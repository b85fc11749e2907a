//===-- tests/JitUnitsTest.cpp - Multi-unit host compile of the JIT -------===//
//
// The JIT compiles a pipeline's parallel and GPU bodies as separate
// translation units, at most one per core, beside the entry function's
// unit, then links them. These tests check that the split build computes
// what the VM computes (including a body that launches a body in another
// unit), that source() is still one self-contained unit, that a pipeline
// without bodies still builds as one unit with no link step, and that a
// failing unit names its log.
//
//===----------------------------------------------------------------------===//

#include "codegen/CodeGenC.h"
#include "codegen/Jit.h"
#include "lang/ImageParam.h"
#include "lang/Pipeline.h"
#include "observe/MetricsRegistry.h"
#include "observe/TraceRecorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace halide;

namespace {

size_t cores() { return std::max(1u, std::thread::hardware_concurrency()); }

/// The "cc unit k" and "link" spans recorded while \p Compile runs.
struct UnitSpans {
  int Units = 0;
  int Links = 0;
};

template <typename Fn> UnitSpans recordUnitSpans(Fn Compile) {
  traceStart();
  Compile();
  traceStop();
  const std::string Json = traceWriteJson();
  UnitSpans S;
  for (size_t At = 0; (At = Json.find("\"name\":\"cc unit ", At)) !=
                      std::string::npos;
       ++At)
    ++S.Units;
  for (size_t At = 0; (At = Json.find("\"name\":\"link\"", At)) !=
                      std::string::npos;
       ++At)
    ++S.Links;
  return S;
}

Buffer<int32_t> makeInput(int W, int H) {
  Buffer<int32_t> In(W, H);
  In.fill([](int X, int Y) { return (X * 37 + Y * 101) % 997 - 400; });
  return In;
}

/// Realizes \p Out on \p T and on the VM and expects identical pixels.
void expectMatchesVm(Func Out, const ImageParam &In, const Target &T, int W,
                     int H) {
  Buffer<int32_t> Input = makeInput(W, H);
  ParamBindings Params;
  Params.bind(In.name(), Input);
  Pipeline Pipe(Out);
  Buffer<int32_t> FromVm(W, H), FromJit(W, H);
  Pipe.realize(FromVm, Params, Target::vm());
  Pipe.realize(FromJit, Params, T);
  for (int Y = 0; Y < H; ++Y)
    for (int X = 0; X < W; ++X)
      ASSERT_EQ(FromVm(X, Y), FromJit(X, Y)) << "at (" << X << "," << Y << ")";
}

Expr clampedIn(const ImageParam &In, Expr X, Expr Y) {
  return In(clamp(X, 0, In.width() - 1), clamp(Y, 0, In.height() - 1));
}

} // namespace

TEST(JitUnitsTest, MoreBodiesThanCoresWithGpuChainMatchVm) {
  const int W = 64, H = 48;
  ImageParam In(Int(32), 2, "ju_many_in");
  Var x("x"), y("y"), bx("bx"), by("by"), tx("tx"), ty("ty");
  // cores() + 2 parallel root stages, then two chained GPU kernels.
  const int Stages = int(cores()) + 2;
  std::vector<Func> Chain;
  for (int I = 0; I < Stages; ++I) {
    Func F("ju_many_" + std::to_string(I));
    if (I == 0)
      F(x, y) = clampedIn(In, x - 1, y) + clampedIn(In, x + 1, y) * 3;
    else
      F(x, y) = Chain.back()(x, y) * (I + 1) - Chain.back()(x, y) / 4;
    F.bound(x, 0, W).bound(y, 0, H);
    F.computeRoot().parallel(y);
    Chain.push_back(F);
  }
  Func Kernel("ju_many_kernel"), Out("ju_many_out");
  Kernel(x, y) = Chain.back()(x, y) + x * y;
  Kernel.computeRoot().gpuTile(x, y, bx, by, tx, ty, 8, 8);
  Out(x, y) = Kernel(x, y) - Chain.front()(x, y);
  Out.gpuTile(x, y, bx, by, tx, ty, 8, 8);

  const size_t Bodies = codegenCParts(
      Pipeline(Out).lowerPipeline(Target::gpuSim()), "f").Bodies.size();
  ASSERT_GT(Bodies, cores());

  Pipeline::clearCompileCache();
  const MetricsSnapshot Before = metricsSnapshot();
  std::shared_ptr<const Executable> Exe;
  UnitSpans S = recordUnitSpans(
      [&] { Exe = Pipeline(Out).compile(Target::gpuSim()); });
  EXPECT_EQ(S.Units, int(1 + cores()));
  EXPECT_EQ(S.Links, 1);
  const MetricsSnapshot After = metricsSnapshot();
  EXPECT_EQ(After.get("jit.c_bytes") - Before.get("jit.c_bytes"),
            int64_t(Exe->source().size()));
  EXPECT_GE(After.get("jit.host_cc_ms"), Before.get("jit.host_cc_ms"));

  expectMatchesVm(Out, In, Target::gpuSim(), W, H);
}

TEST(JitUnitsTest, NestedBodyInAnotherUnitMatchesVm) {
  // Exactly two bodies: the outer parallel loop over Out's row strips
  // launches the inner one over A's rows. With two cores or more each
  // lands in its own unit, so the outer body calls across units.
  const int W = 40, H = 32;
  ImageParam In(Int(32), 2, "ju_nest_in");
  Var x("x"), y("y"), yo("yo"), yi("yi");
  Func A("ju_nest_a"), Out("ju_nest_out");
  A(x, y) = clampedIn(In, x, y) * 2 + 1;
  Out(x, y) = A(x, y) + A(x + 1, y) - A(x, y + 1);
  Out.split(y, yo, yi, 4).parallel(yo);
  A.computeAt(Out, yo).parallel(y);

  ASSERT_EQ(codegenCParts(Pipeline(Out).lowerPipeline(Target::jit()), "f")
                .Bodies.size(),
            2u);
  Pipeline::clearCompileCache();
  UnitSpans S =
      recordUnitSpans([&] { Pipeline(Out).compile(Target::jit()); });
  EXPECT_EQ(S.Units, 1 + int(std::min<size_t>(cores(), 2)));
  EXPECT_EQ(S.Links, 1);

  expectMatchesVm(Out, In, Target::jit(), W, H);
}

TEST(JitUnitsTest, SourceIsOneSelfContainedUnit) {
  ImageParam In(Int(32), 2, "ju_src_in");
  Var x("x"), y("y"), yo("yo"), yi("yi");
  Func A("ju_src_a"), Out("ju_src_out");
  A(x, y) = clampedIn(In, x, y) + 7;
  Out(x, y) = A(x, y) * A(x, y + 1);
  Out.split(y, yo, yi, 4).parallel(yo);
  A.computeAt(Out, yo).parallel(y);

  LoweredPipeline LP = Pipeline(Out).lowerPipeline(Target::jit());
  const CSourceParts Parts = codegenCParts(LP, "hl_pipeline");
  ASSERT_FALSE(Parts.Bodies.empty());
  auto CP = jitCompile(LP);
  EXPECT_EQ(CP->source(), Parts.joined());

  const std::string Path = ::testing::TempDir() + "ju_source_" +
                           std::to_string(getpid()) + ".c";
  {
    std::ofstream Out(Path);
    Out << CP->source();
  }
  const std::string Cmd = "cc -fsyntax-only -Werror " + Path;
  EXPECT_EQ(std::system(Cmd.c_str()), 0) << Cmd;
  std::remove(Path.c_str());
}

TEST(JitUnitsTest, PipelineWithoutParallelLoopIsOneUnit) {
  const int W = 24, H = 16;
  ImageParam In(Int(32), 2, "ju_serial_in");
  Var x("x"), y("y");
  Func A("ju_serial_a"), Out("ju_serial_out");
  A(x, y) = clampedIn(In, x - 1, y) - clampedIn(In, x + 1, y);
  Out(x, y) = A(x, y) * 3 + A(x, y - 1);
  A.computeRoot();
  Out.vectorize(x, 8);

  ASSERT_TRUE(codegenCParts(Pipeline(Out).lowerPipeline(Target::jit()), "f")
                  .Bodies.empty());
  Pipeline::clearCompileCache();
  UnitSpans S =
      recordUnitSpans([&] { Pipeline(Out).compile(Target::jit()); });
  EXPECT_EQ(S.Units, 1);
  EXPECT_EQ(S.Links, 0);

  expectMatchesVm(Out, In, Target::jit(), W, H);
}

namespace {

std::set<std::string> jitTempDirs() {
  std::set<std::string> Names;
  if (DIR *D = opendir("/tmp")) {
    while (const dirent *E = readdir(D))
      if (std::string(E->d_name).rfind("hl_jit_", 0) == 0)
        Names.insert(E->d_name);
    closedir(D);
  }
  return Names;
}

} // namespace

TEST(JitUnitsTest, FailingUnitNamesItsLog) {
  ImageParam In(Int(32), 2, "ju_fail_in");
  Var x("x"), y("y");
  Func Out("ju_fail_out");
  Out(x, y) = clampedIn(In, x, y) + 1;
  Out.parallel(y);
  LoweredPipeline LP = lower(Out.function());
  const std::string Flag = "-fno-such-jit-flag";

  // The compile starts helper threads, which a child forked from this
  // threaded process may not (ThreadSanitizer refuses): re-execute instead.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::set<std::string> Before = jitTempDirs();
  EXPECT_DEATH(jitCompile(LP, Target::jit().withJitFlags(Flag)),
               "host C compiler failed on unit 0 of 2.*" + Flag +
                   ".*log at /tmp/hl_jit_[^/]*/unit0\\.log");

  // The failed compile keeps its directory for inspection; remove the one
  // this test made (its unit logs quote the bogus flag).
  for (const std::string &Name : jitTempDirs()) {
    if (Before.count(Name))
      continue;
    const std::string Dir = "/tmp/" + Name;
    std::ifstream Log(Dir + "/unit0.log");
    std::stringstream Text;
    Text << Log.rdbuf();
    if (Text.str().find(Flag) == std::string::npos)
      continue;
    if (DIR *D = opendir(Dir.c_str())) {
      while (const dirent *E = readdir(D))
        if (E->d_name[0] != '.')
          std::remove((Dir + "/" + E->d_name).c_str());
      closedir(D);
    }
    rmdir(Dir.c_str());
  }
}
