//===-- perfbench/src/main.cpp - Benchmark entry point --------------------===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///           [--tiny] [--inject-fault]
///
/// Prints a readable report, then one JSON result line: the end-to-end
/// metrics with --trace 0, the per-layer metrics with --trace 1. Exit 0
/// when the run completed (the result line says whether every output was
/// correct), 2 on bad arguments.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dlfcn.h>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;

/// The JIT keeps each compile's scratch files in a fresh /tmp/hl_jit_XXXXXX
/// directory. The benchmark must not write outside the directory it runs
/// in, so it supplies mkdtemp itself and moves that one template to a
/// relative path of no greater length; every other template goes to the
/// C library.
extern "C" char *mkdtemp(char *Template) noexcept {
  static const char JitTemplate[] = "/tmp/hl_jit_XXXXXX";
  static const char LocalTemplate[] = "jit/hl_jit_XXXXXX";
  static_assert(sizeof(LocalTemplate) <= sizeof(JitTemplate),
                "the local template must fit the JIT's buffer");
  using MkdtempFn = char *(*)(char *);
  static MkdtempFn Real =
      reinterpret_cast<MkdtempFn>(dlsym(RTLD_NEXT, "mkdtemp"));
  if (std::strcmp(Template, JitTemplate) == 0)
    std::memcpy(Template, LocalTemplate, sizeof(LocalTemplate));
  return Real(Template);
}

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--inject-fault]\n"
               "workloads:",
               Why);
  for (const std::string &W : workloadNames())
    std::fprintf(stderr, " %s", W.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

long parseInt(const char *Text, const char *Flag) {
  char *End = nullptr;
  errno = 0;
  long V = std::strtol(Text, &End, 10);
  if (errno || End == Text || *End)
    usage((std::string("bad value for ") + Flag).c_str());
  return V;
}

std::string ccVersion() {
  FILE *P = popen("cc --version 2>/dev/null", "r");
  if (!P)
    return "unknown";
  char Line[256] = {};
  if (!std::fgets(Line, sizeof(Line), P))
    Line[0] = 0;
  pclose(P);
  std::string S = Line;
  while (!S.empty() && (S.back() == '\n' || S.back() == '\r'))
    S.pop_back();
  std::string Escaped;
  for (char C : S)
    if (C != '"' && C != '\\')
      Escaped += C;
  return Escaped.empty() ? "unknown" : Escaped;
}

void printMetrics(const std::vector<Metric> &Ms) {
  for (size_t I = 0; I < Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value,
                Ms[I].Unit.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  O.Nproc = int(std::thread::hardware_concurrency());
  if (O.Nproc < 1)
    O.Nproc = 1;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage(("missing value for " + A).c_str());
      return Argv[++I];
    };
    if (A == "--workload") {
      O.Workload = Value();
      HaveWorkload = true;
    } else if (A == "--seed") {
      long V = parseInt(Value(), "--seed");
      if (V < 0)
        usage("--seed must be non-negative");
      O.Seed = uint64_t(V);
      HaveSeed = true;
    } else if (A == "--seconds") {
      long V = parseInt(Value(), "--seconds");
      if (V < 1 || V > 3600)
        usage("--seconds must be in 1..3600");
      O.Seconds = double(V);
      HaveSeconds = true;
    } else if (A == "--trace") {
      long V = parseInt(Value(), "--trace");
      if (V != 0 && V != 1)
        usage("--trace must be 0 or 1");
      O.Trace = V == 1;
      HaveTrace = true;
    } else if (A == "--tiny") {
      O.Tiny = true;
    } else if (A == "--inject-fault") {
      O.InjectFault = true;
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    usage("--workload, --seed, --seconds and --trace are required");
  bool Known = false;
  for (const std::string &W : workloadNames())
    Known |= W == O.Workload;
  if (!Known)
    usage(("unknown workload " + O.Workload).c_str());

  // The scheduler pool counts the thread that submits work. In
  // serve_mixed the submitters are the clients, so the pool adds
  // SchedulerThreads - 1 workers beside them, and the two together must
  // fit the host's cores. One core is left to the rest of the system: on
  // a shared host, a busy thread preempted mid-frame stalls every frame
  // waiting on it.
  if (O.Workload == "serve_mixed") {
    O.ClientThreads = std::max(1, O.Nproc / 2);
    O.SchedulerThreads = std::max(1, O.Nproc - O.ClientThreads);
    assert(O.SchedulerThreads - 1 + O.ClientThreads <= O.Nproc);
  } else {
    O.SchedulerThreads = O.Nproc;
    O.ClientThreads = 0;
  }

  // The JIT's scratch directories and the host compiler's temporaries stay
  // under the working directory.
  if (mkdir("jit", 0700) != 0 && errno != EEXIST) {
    std::perror("perfbench: mkdir jit");
    return 2;
  }
  char Cwd[4096];
  if (!getcwd(Cwd, sizeof(Cwd))) {
    std::perror("perfbench: getcwd");
    return 2;
  }
  setenv("TMPDIR", (std::string(Cwd) + "/jit").c_str(), 1);

  std::printf("host: {\"nproc\": %d, \"scheduler_threads\": %d, "
              "\"client_threads\": %d, \"cc\": \"%s\"}\n",
              O.Nproc, O.SchedulerThreads, O.ClientThreads,
              ccVersion().c_str());
  std::printf("workload: %s seed %llu seconds %g trace %d%s%s\n",
              O.Workload.c_str(), (unsigned long long)O.Seed, O.Seconds,
              int(O.Trace), O.Tiny ? " tiny" : "",
              O.InjectFault ? " inject-fault" : "");
  std::fflush(stdout);

  Outcome R = runWorkload(O);

  for (const Metric &M : R.Report)
    std::printf("  %-48s %14.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  const std::vector<Metric> &Printed = O.Trace ? R.PerLayer : R.EndToEnd;
  for (const Metric &M : Printed)
    std::printf("  %-48s %14.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  for (const Metric &M : Printed)
    if (!std::isfinite(M.Value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   M.Name.c_str());
      return 1;
    }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              R.Failed == 0 ? "true" : "false", (long long)R.Attempted,
              (long long)R.Failed);
  printMetrics(Printed);
  std::printf("}}\n");
  return 0;
}
