//===-- tests/PipelineTest.cpp - Front end, lowering, bounds inference -------===//

#include "lang/ImageParam.h"
#include "lang/Pipeline.h"
#include "analysis/CallGraph.h"
#include "codegen/Interpreter.h"

#include <gtest/gtest.h>

using namespace halide;

namespace {

/// A reusable two-stage gradient pipeline (no input image).
struct GradientPipe {
  Var x{"x"}, y{"y"};
  Func F, G;
  GradientPipe() : F("grad_f"), G("grad_g") {
    F(x, y) = x + y * 10;
    G(x, y) = F(x, y) + F(x + 1, y) * 2;
  }
};

} // namespace

TEST(FuncTest, PureDefinitionBasics) {
  Var x("x"), y("y");
  Func F("deftest");
  F(x, y) = x * 2 + y;
  EXPECT_TRUE(F.defined());
  EXPECT_EQ(F.dimensions(), 2);
  EXPECT_EQ(F.function().outputType(), Int(32));
  EXPECT_EQ(F.function().args()[0], "x");
  EXPECT_EQ(F.function().args()[1], "y");
  // Default loop order is row-major: x innermost (last in Dims).
  const Schedule &S = F.function().schedule();
  ASSERT_EQ(S.Dims.size(), 2u);
  EXPECT_EQ(S.Dims[0].Var, "y");
  EXPECT_EQ(S.Dims[1].Var, "x");
}

TEST(FuncTest, UniqueNames) {
  Func A("collide"), B("collide");
  EXPECT_NE(A.name(), B.name());
  Function Found = Function::lookup(B.name());
  EXPECT_TRUE(Found.sameAs(B.function()));
}

TEST(FuncTest, CallGraph) {
  GradientPipe P;
  auto Env = buildEnvironment(P.G.function());
  EXPECT_EQ(Env.size(), 2u);
  auto Order = realizationOrder(P.G.function(), Env);
  ASSERT_EQ(Order.size(), 2u);
  EXPECT_EQ(Order[0], P.F.name()); // producer first
  EXPECT_EQ(Order[1], P.G.name());
  auto Callees = directCallees(P.G.function());
  ASSERT_EQ(Callees.size(), 1u);
  EXPECT_EQ(Callees[0], P.F.name());
}

TEST(PipelineTest, RealizeNoInput) {
  GradientPipe P;
  P.F.computeRoot();
  Pipeline Pipe(P.G);
  Buffer<int32_t> Out(8, 6);
  Pipe.realize(Out);
  for (int Y = 0; Y < 6; ++Y)
    for (int X = 0; X < 8; ++X) {
      int FXY = X + Y * 10, FX1Y = (X + 1) + Y * 10;
      EXPECT_EQ(Out(X, Y), FXY + 2 * FX1Y);
    }
}

TEST(PipelineTest, ClearingTheCacheFirstThenExitingIsClean) {
  // clearCompileCache() as the process's first library call builds the
  // compile cache before the Function registry, so the registry is
  // destroyed first at exit while the cache's lowered pipelines, the last
  // owners of their Functions, still deregister them from it. The
  // threadsafe style runs the child as a fresh process, so the call
  // really is its first.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        Pipeline::clearCompileCache();
        bool Ok;
        {
          GradientPipe P;
          P.F.computeRoot();
          Buffer<int32_t> Out(8, 6);
          Pipeline(P.G).realize(Out, ParamBindings(), Target::vm());
          Ok = Out(1, 1) == 11 + 2 * 12;
        }
        std::exit(Ok ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(PipelineTest, OutputWindowWithMins) {
  GradientPipe P;
  Pipeline Pipe(P.G);
  Buffer<int32_t> Out(4, 4);
  Out.setMin(10, 20);
  Pipe.realize(Out);
  EXPECT_EQ(Out(10, 20), (10 + 200) + 2 * (11 + 200));
  EXPECT_EQ(Out(13, 23), (13 + 230) + 2 * (14 + 230));
}

TEST(PipelineTest, ScalarParams) {
  Var x("x");
  Param<int32_t> Gain("gain");
  Param<float> Offset("offset");
  Func F("paramtest");
  F(x) = cast(Float(32), x * Gain) + Offset;
  Pipeline Pipe(F);
  Buffer<float> Out(5);
  ParamBindings Params;
  Params.bindInt("gain", 3);
  Params.bindFloat("offset", 0.5);
  Pipe.realize(Out, Params);
  EXPECT_FLOAT_EQ(Out(4), 12.5f);
  // The lowered pipeline advertises the scalar args.
  LoweredPipeline LP = Pipe.lowerPipeline();
  EXPECT_EQ(LP.Scalars.size(), 2u);
}

TEST(PipelineTest, ImageParamMetadata) {
  ImageParam In(UInt(8), 2, "meta_in");
  Var x("x"), y("y");
  Func F("metatest");
  F(x, y) = cast(Int(32), In(clamp(x, 0, In.width() - 1),
                             clamp(y, 0, In.height() - 1))) +
            In.width();
  Buffer<uint8_t> Input(7, 3);
  Input.fillConstant(5);
  Pipeline Pipe(F);
  Buffer<int32_t> Out(7, 3);
  ParamBindings Params;
  Params.bind("meta_in", Input);
  Pipe.realize(Out, Params);
  EXPECT_EQ(Out(0, 0), 5 + 7);
}

TEST(LoweringTest, BreadthFirstStructure) {
  GradientPipe P;
  P.F.computeRoot();
  std::string Text = Pipeline(P.G).loweredText();
  // Allocation, produce/consume markers, loops with qualified names.
  EXPECT_NE(Text.find("allocate " + P.F.name()), std::string::npos);
  EXPECT_NE(Text.find("produce " + P.F.name()), std::string::npos);
  EXPECT_NE(Text.find("consume " + P.F.name()), std::string::npos);
  EXPECT_NE(Text.find("for (" + P.G.name() + ".x"), std::string::npos);
  // No unflattened constructs remain.
  EXPECT_EQ(Text.find("realize"), std::string::npos);
}

TEST(LoweringTest, BoundsInferenceExpandsProducer) {
  // G reads F at x and x+1, so F's allocation must be one wider than G's
  // region ("at least as large as the region consumed", paper section 4.2).
  GradientPipe P;
  P.F.computeRoot();
  Pipeline Pipe(P.G);
  Buffer<int32_t> Out(8, 6);
  ExecutionStats Stats = Pipe.realize(Out);
  EXPECT_EQ(Stats.StoresPerBuffer[P.F.name()], int64_t(9 * 6));
  EXPECT_EQ(Stats.StoresPerBuffer[P.G.name()], int64_t(8 * 6));
}

TEST(LoweringTest, InlineLeavesNoAllocation) {
  GradientPipe P; // default schedule: F inlined
  std::string Text = Pipeline(P.G).loweredText();
  EXPECT_EQ(Text.find("allocate " + P.F.name()), std::string::npos);
  Buffer<int32_t> Out(4, 4);
  ExecutionStats Stats = Pipeline(P.G).realize(Out);
  EXPECT_EQ(Stats.StoresPerBuffer.count(P.F.name()), 0u);
  EXPECT_EQ(Out(1, 1), (1 + 10) + 2 * (2 + 10));
}

TEST(LoweringTest, ComputeAtPlacement) {
  GradientPipe P;
  P.F.computeAt(P.G, P.y);
  std::string Text = Pipeline(P.G).loweredText();
  // The produce of F must appear inside G's y loop: find positions.
  size_t YLoop = Text.find("for (" + P.G.name() + ".y");
  size_t Produce = Text.find("produce " + P.F.name());
  ASSERT_NE(YLoop, std::string::npos);
  ASSERT_NE(Produce, std::string::npos);
  EXPECT_LT(YLoop, Produce);
  // Per-scanline allocation: F's buffer holds one row (of width 9).
  Buffer<int32_t> Out(8, 6);
  ExecutionStats Stats = Pipeline(P.G).realize(Out);
  EXPECT_EQ(Stats.PeakAllocationBytes, int64_t(9 * 4));
}

TEST(LoweringTest, SplitRoundsUp) {
  // Splitting a producer's dimension rounds the traversed domain up to a
  // multiple of the factor (paper section 4.1).
  GradientPipe P;
  Var xo("xo"), xi("xi");
  P.F.computeRoot().split(P.x, xo, xi, 4);
  Buffer<int32_t> Out(6, 2); // F needs 7 columns -> rounds to 8
  ExecutionStats Stats = Pipeline(P.G).realize(Out);
  EXPECT_EQ(Stats.StoresPerBuffer[P.F.name()], int64_t(8 * 2));
}

TEST(LoweringTest, OutputSplitDivisibilityAssert) {
  GradientPipe P;
  Var xo("xo"), xi("xi");
  P.G.split(P.x, xo, xi, 4);
  std::string Text = Pipeline(P.G).loweredText();
  EXPECT_NE(Text.find("assert"), std::string::npos);
  // A divisible size passes.
  Buffer<int32_t> Out(8, 4);
  Pipeline(P.G).realize(Out);
  EXPECT_EQ(Out(7, 3), (7 + 30) + 2 * (8 + 30));
}

TEST(LoweringTest, TwoConsumersAtRoot) {
  Var x("x");
  Func A("multi_a"), B("multi_b"), C("multi_c"), D("multi_d");
  A(x) = x * x;
  B(x) = A(x) + 1;
  C(x) = A(x + 1) * 2;
  D(x) = B(x) + C(x);
  A.computeRoot();
  B.computeRoot();
  C.computeRoot();
  Buffer<int32_t> Out(10);
  Pipeline(D).realize(Out);
  for (int X = 0; X < 10; ++X)
    EXPECT_EQ(Out(X), (X * X + 1) + ((X + 1) * (X + 1) * 2));
}

TEST(LoweringTest, ReorderChangesLoopNesting) {
  GradientPipe P;
  P.G.reorder(P.y, P.x); // y innermost now
  std::string Text = Pipeline(P.G).loweredText();
  size_t XLoop = Text.find("for (" + P.G.name() + ".x");
  size_t YLoop = Text.find("for (" + P.G.name() + ".y");
  ASSERT_NE(XLoop, std::string::npos);
  ASSERT_NE(YLoop, std::string::npos);
  EXPECT_LT(XLoop, YLoop); // x is now the outer loop
  Buffer<int32_t> Out(4, 4);
  Pipeline(P.G).realize(Out);
  EXPECT_EQ(Out(2, 2), (2 + 20) + 2 * (3 + 20));
}
