//===-- codegen/Jit.cpp ---------------------------------------------------===//

#include "codegen/Jit.h"
#include "codegen/CodeGenC.h"
#include "observe/TraceRecorder.h"
#include "runtime/Buffer.h"
#include "runtime/GpuSim.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <dlfcn.h>
#include <fstream>
#include <functional>
#include <spawn.h>
#include <sstream>
#include <sys/wait.h>
#include <system_error>
#include <thread>
#include <unistd.h>

extern char **environ;

using namespace halide;

int CompiledPipeline::run(const ParamBindings &Params,
                          ExecutionStats *Stats) const {
  internal_assert(Fn) << "run of invalid CompiledPipeline";
  std::vector<void *> Bufs;
  std::vector<int64_t> IntArgs;
  std::vector<double> FloatArgs;

  for (const BufferArg &Arg : P.Buffers) {
    const RawBuffer &Raw = Params.buffer(Arg.Name);
    user_assert(Raw.defined()) << "buffer " << Arg.Name << " is unbound";
    user_assert(Raw.ElemType == Arg.ElemType)
        << "buffer " << Arg.Name << " has element type "
        << Raw.ElemType.str() << ", pipeline expects " << Arg.ElemType.str();
    user_assert(Raw.Dim[0].Stride == 1)
        << "buffer " << Arg.Name
        << " must be dense in dimension 0 (stride 1)";
    Bufs.push_back(Raw.Host);
    for (int D = 0; D < MaxBufferDims; ++D) {
      if (D < Raw.Dimensions) {
        IntArgs.push_back(Raw.Dim[D].Min);
        IntArgs.push_back(Raw.Dim[D].Extent);
        IntArgs.push_back(Raw.Dim[D].Stride);
      } else {
        IntArgs.push_back(0);
        IntArgs.push_back(1);
        IntArgs.push_back(0);
      }
    }
  }
  for (const ScalarArg &Arg : P.Scalars) {
    double Value;
    user_assert(Params.lookupScalar(Arg.Name, &Value))
        << "scalar parameter " << Arg.Name << " is unbound";
    if (Arg.ArgType.isFloat())
      FloatArgs.push_back(Value);
    else
      IntArgs.push_back(int64_t(Value));
  }
  // Never pass null array pointers.
  IntArgs.push_back(0);
  FloatArgs.push_back(0);

  // On the GpuSim target, report the run's launch statistics as the delta
  // of the process-wide device counters. Nothing serializes runs on the
  // device, so the delta also counts launches of concurrent frames.
  GpuStats Before;
  if (T.TargetBackend == Backend::GpuSim && Stats)
    Before = gpuSim().stats();
  int Rc = Fn(runtimeVTable(), Bufs.data(), IntArgs.data(), FloatArgs.data());
  if (T.TargetBackend == Backend::GpuSim && Stats) {
    const GpuStats After = gpuSim().stats();
    Stats->GpuKernelLaunches = After.KernelLaunches - Before.KernelLaunches;
    Stats->GpuBlocksExecuted = After.BlocksExecuted - Before.BlocksExecuted;
  }
  return Rc;
}

namespace {

/// Host-compile totals over every jitCompile, exported by jitCounters().
std::atomic<int64_t> HostCcNs{0};
std::atomic<int64_t> EmittedCBytes{0};

/// Owns one compile's /tmp/hl_jit_XXXXXX scratch directory. Every file
/// name handed out by path() is removed by the destructor, then the
/// directory, on every exit path -- concurrent serving compiles many
/// pipelines, so leaked scratch dirs would otherwise accumulate per frame
/// shape. keep() disarms the cleanup when the host compiler fails,
/// preserving the sources and logs the error message points at.
class JitTempDir {
public:
  JitTempDir() {
    char Buf[] = "/tmp/hl_jit_XXXXXX";
    user_assert(mkdtemp(Buf)) << "could not create JIT temp directory";
    Dir = Buf;
  }
  ~JitTempDir() {
    if (Kept)
      return;
    for (const std::string &File : Files)
      std::remove(File.c_str());
    rmdir(Dir.c_str());
  }
  JitTempDir(const JitTempDir &) = delete;
  JitTempDir &operator=(const JitTempDir &) = delete;

  std::string path(const std::string &Name) {
    Files.push_back(Dir + "/" + Name);
    return Files.back();
  }
  const std::string &dir() const { return Dir; }
  void keep() { Kept = true; }

private:
  std::string Dir;
  std::vector<std::string> Files;
  bool Kept = false;
};

/// Runs \p Cmd with /bin/sh and returns its exit status, or -1 when it
/// could not be started or did not exit normally. Unlike std::system it
/// may run on several threads at once.
int runShell(const std::string &Cmd) {
  const char *Argv[] = {"sh", "-c", Cmd.c_str(), nullptr};
  pid_t Pid;
  if (posix_spawn(&Pid, "/bin/sh", nullptr, nullptr,
                  const_cast<char *const *>(Argv), environ) != 0)
    return -1;
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0)
    if (errno != EINTR)
      return -1;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

/// Splits the bodies into at most \p Jobs groups of similar byte size:
/// largest first, each into the lightest group so far.
std::vector<std::vector<size_t>>
groupBodies(const std::vector<std::string> &Bodies, size_t Jobs) {
  std::vector<size_t> Order(Bodies.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Bodies[A].size() > Bodies[B].size();
  });
  std::vector<std::vector<size_t>> Groups(std::min(Jobs, Bodies.size()));
  std::vector<size_t> Bytes(Groups.size(), 0);
  for (size_t I : Order) {
    size_t G = size_t(std::min_element(Bytes.begin(), Bytes.end()) -
                      Bytes.begin());
    Groups[G].push_back(I);
    Bytes[G] += Bodies[I].size();
  }
  return Groups;
}

/// One translation unit of a JIT compile.
struct CUnit {
  explicit CUnit(std::string Source) : Source(std::move(Source)) {}
  std::string Source, CPath, LogPath, Cmd;
  int Rc = 0;
};

/// Compiles \p U and, while tracing, records it as span "cc unit K".
void compileUnit(CUnit &U, size_t K) {
  const int64_t T0 = traceActive() ? traceNowNs() : 0;
  U.Rc = runShell(U.Cmd);
  if (T0) {
    std::vector<TraceArg> Args;
    Args.emplace_back("bytes", int64_t(U.Source.size()));
    traceComplete("compile", "cc unit " + std::to_string(K), T0,
                  traceNowNs() - T0, std::move(Args));
  }
}

} // namespace

JitCounters halide::jitCounters() {
  JitCounters C;
  C.HostCcMs = HostCcNs.load(std::memory_order_relaxed) / 1000000;
  C.CBytes = EmittedCBytes.load(std::memory_order_relaxed);
  return C;
}

std::shared_ptr<CompiledPipeline> halide::jitCompile(const LoweredPipeline &P,
                                                     const Target &T) {
  user_assert(T.usesJit()) << "jitCompile on an interpreter Target";
  std::shared_ptr<CompiledPipeline> Result(new CompiledPipeline(P, T));

  std::string FnName = "hl_pipeline";
  CSourceParts Parts = codegenCParts(P, FnName);
  Result->Source = Parts.joined();
  EmittedCBytes.fetch_add(int64_t(Result->Source.size()),
                          std::memory_order_relaxed);

  // Unit 0 holds the entry function; with no parallel body it is the
  // whole pipeline and compiles straight to the shared object. Otherwise
  // the bodies are split into one unit per core at most, every unit
  // compiles to an object at the same time, and a link step follows.
  std::vector<CUnit> Units;
  if (Parts.Bodies.empty()) {
    Units.emplace_back(Result->Source);
  } else {
    Units.emplace_back(Parts.Header + Parts.Entry);
    const size_t Cores = std::max(1u, std::thread::hardware_concurrency());
    for (const std::vector<size_t> &Group : groupBodies(Parts.Bodies, Cores)) {
      CUnit U(Parts.Header);
      for (size_t I : Group)
        U.Source += Parts.Bodies[I];
      Units.push_back(std::move(U));
    }
  }
  const bool Link = Units.size() > 1;

  JitTempDir Temp;
  const std::string SoPath = Temp.path("pipeline.so");
  // -ffp-contract=off keeps float results bit-identical across schedules
  // (FMA contraction would otherwise round differently per loop shape),
  // preserving the paper's "all valid schedules generate correct code"
  // property at the bit level.
  const std::string Cc = "cc -O3 -march=native -fno-math-errno "
                         "-ffp-contract=off -fPIC " +
                         T.JitFlags;
  std::string Objects;
  for (size_t K = 0; K < Units.size(); ++K) {
    CUnit &U = Units[K];
    const std::string Stem = "unit" + std::to_string(K);
    U.CPath = Temp.path(Stem + ".c");
    U.LogPath = Temp.path(Stem + ".log");
    {
      std::ofstream Out(U.CPath);
      Out << U.Source;
    }
    if (Link) {
      const std::string OPath = Temp.path(Stem + ".o");
      Objects += " " + OPath;
      U.Cmd = Cc + " -c -o " + OPath + " " + U.CPath + " 2> " + U.LogPath;
    } else {
      U.Cmd = Cc + " -shared -o " + SoPath + " " + U.CPath + " -lm 2> " +
              U.LogPath;
    }
  }

  const int64_t T0 = traceNowNs();
  {
    std::vector<std::thread> Helpers;
    for (size_t K = 1; K < Units.size(); ++K) {
      try {
        Helpers.emplace_back(compileUnit, std::ref(Units[K]), K);
      } catch (const std::system_error &) {
        compileUnit(Units[K], K); // no thread to spare: compile it here
      }
    }
    compileUnit(Units[0], 0);
    for (std::thread &H : Helpers)
      H.join();
  }
  for (size_t K = 0; K < Units.size(); ++K) {
    const CUnit &U = Units[K];
    if (U.Rc == 0)
      continue;
    Temp.keep();
    user_error << "host C compiler failed on unit " << K << " of "
               << Units.size() << " of the generated code:\n"
               << readFile(U.LogPath) << "\nsource left at " << U.CPath
               << ", log at " << U.LogPath;
  }
  if (Link) {
    const std::string LogPath = Temp.path("link.log");
    const int64_t LinkT0 = traceActive() ? traceNowNs() : 0;
    const int Rc = runShell("cc -shared " + T.JitFlags + " -o " + SoPath +
                            Objects + " -lm 2> " + LogPath);
    if (LinkT0)
      traceComplete("compile", "link", LinkT0, traceNowNs() - LinkT0);
    if (Rc != 0) {
      Temp.keep();
      user_error << "host linker failed on the generated code:\n"
                 << readFile(LogPath) << "\nobjects left in " << Temp.dir()
                 << ", log at " << LogPath;
    }
  }
  HostCcNs.fetch_add(traceNowNs() - T0, std::memory_order_relaxed);

  void *Handle = dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  user_assert(Handle) << "dlopen failed: " << dlerror();
  Result->Handle = std::shared_ptr<void>(Handle, [](void *H) { dlclose(H); });
  Result->Fn = reinterpret_cast<CompiledPipeline::EntryPoint>(
      dlsym(Handle, FnName.c_str()));
  user_assert(Result->Fn) << "generated entry point not found";

  // The artifacts can be removed once loaded (Temp's destructor); the
  // source stays in memory on the CompiledPipeline.
  return Result;
}
