//===-- tests/RuntimeTest.cpp - Task scheduler, GPU sim, buffers ---------------===//

#include "runtime/Buffer.h"
#include "runtime/GpuSim.h"
#include "runtime/Runtime.h"
#include "runtime/TaskScheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

using namespace halide;

TEST(TaskSchedulerTest, CoversAllIterations) {
  std::vector<std::atomic<int>> Hits(100);
  for (auto &H : Hits)
    H = 0;
  struct Ctx {
    std::vector<std::atomic<int>> *Hits;
  } C{&Hits};
  parallelFor(0, 100,
              [](int32_t I, void *P) {
                auto *Ctx_ = static_cast<Ctx *>(P);
                (*Ctx_->Hits)[size_t(I)].fetch_add(1);
              },
              &C);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Hits[size_t(I)].load(), 1) << "iteration " << I;
}

TEST(TaskSchedulerTest, NonZeroMin) {
  std::atomic<int64_t> Sum{0};
  struct Ctx {
    std::atomic<int64_t> *Sum;
  } C{&Sum};
  parallelFor(10, 5,
              [](int32_t I, void *P) {
                static_cast<Ctx *>(P)->Sum->fetch_add(I);
              },
              &C);
  EXPECT_EQ(Sum.load(), 10 + 11 + 12 + 13 + 14);
}

TEST(TaskSchedulerTest, NestedParallelism) {
  std::atomic<int> Count{0};
  struct Ctx {
    std::atomic<int> *Count;
  } C{&Count};
  parallelFor(0, 4,
              [](int32_t, void *P) {
                auto *Outer = static_cast<Ctx *>(P);
                parallelFor(0, 8,
                            [](int32_t, void *Q) {
                              static_cast<Ctx *>(Q)->Count->fetch_add(1);
                            },
                            Outer);
              },
              &C);
  EXPECT_EQ(Count.load(), 32);
}

TEST(TaskSchedulerTest, NestedLoopsRunOffTheSubmittingThread) {
  // The work-stealing property the single-queue pool lacked: a nested
  // parallel loop's iterations are real tasks other threads execute, not
  // inlined serially on the submitting worker. A barrier holds all four
  // outer iterations concurrently occupied — which already requires the
  // workers to have stolen the outer chunks from the submitter's deque —
  // and then each runs a nested loop; the barrier releasing at all
  // proves 4-way outer concurrency, and inner work must land on more
  // than one thread.
  if (taskSchedulerThreads() < 4)
    GTEST_SKIP() << "needs at least 4 scheduler threads";
  struct Ctx {
    std::mutex M;
    std::condition_variable CV;
    int Arrived = 0;
    std::set<std::thread::id> Ids;
  } C;
  parallelFor(0, 4,
              [](int32_t, void *P) {
                auto *Ctx_ = static_cast<Ctx *>(P);
                {
                  std::unique_lock<std::mutex> Lock(Ctx_->M);
                  if (++Ctx_->Arrived >= 4)
                    Ctx_->CV.notify_all();
                  else
                    while (Ctx_->Arrived < 4)
                      Ctx_->CV.wait(Lock);
                }
                parallelFor(0, 64,
                            [](int32_t, void *Q) {
                              auto *Inner = static_cast<Ctx *>(Q);
                              std::lock_guard<std::mutex> Lock(Inner->M);
                              Inner->Ids.insert(std::this_thread::get_id());
                            },
                            Ctx_);
              },
              &C);
  EXPECT_GT(C.Ids.size(), 1u);
}

TEST(TaskSchedulerTest, ZeroAndNegativeExtent) {
  parallelFor(0, 0, [](int32_t, void *) { FAIL(); }, nullptr);
  parallelFor(0, -5, [](int32_t, void *) { FAIL(); }, nullptr);
}

TEST(TaskSchedulerTest, ChunkPartitionIsDeterministicAndComplete) {
  struct Ctx {
    std::atomic<int64_t> Iters{0};
    std::atomic<int> Chunks{0};
  } C;
  int N = parallelForChunks(
      5, 1000, 7,
      [](int64_t Begin, int64_t End, int Chunk, void *P) {
        auto *Ctx_ = static_cast<Ctx *>(P);
        EXPECT_GE(Chunk, 0);
        EXPECT_LT(Chunk, 7);
        EXPECT_LT(Begin, End);
        Ctx_->Iters.fetch_add(End - Begin);
        Ctx_->Chunks.fetch_add(1);
      },
      &C);
  EXPECT_EQ(N, 7);
  EXPECT_EQ(C.Iters.load(), 1000);
  EXPECT_EQ(C.Chunks.load(), 7);
  EXPECT_EQ(parallelForChunks(
                0, 0, 4, [](int64_t, int64_t, int, void *) { FAIL(); },
                nullptr),
            0);
}

TEST(TaskSchedulerTest, ResizeTakesEffectAndRestoresDefault) {
  int Default = taskSchedulerThreads();
  EXPECT_GE(Default, 1);
  setTaskSchedulerThreads(3);
  EXPECT_EQ(taskSchedulerThreads(), 3);
  // Loops still cover every iteration at the new size.
  std::atomic<int> Count{0};
  parallelFor(0, 50,
              [](int32_t, void *P) {
                static_cast<std::atomic<int> *>(P)->fetch_add(1);
              },
              &Count);
  EXPECT_EQ(Count.load(), 50);
  setTaskSchedulerThreads(0);
  EXPECT_EQ(taskSchedulerThreads(), Default);
}

TEST(TaskSchedulerTest, ResizeIsLockedAgainstInFlightLoops) {
  // The ThreadPool lifecycle bug this runtime replaced: resizing while
  // loops are in flight tore down workers under a running job. The
  // scheduler must instead drain in-flight loops, rebuild, and release
  // the queued loops — no lost iterations, no deadlock, no crash.
  std::atomic<bool> Done{false};
  std::atomic<int64_t> Total{0};
  std::vector<std::thread> Submitters;
  for (int S = 0; S < 3; ++S)
    Submitters.emplace_back([&] {
      while (!Done.load()) {
        parallelFor(0, 64,
                    [](int32_t, void *P) {
                      static_cast<std::atomic<int64_t> *>(P)->fetch_add(1);
                    },
                    &Total);
      }
    });
  for (int N : {2, 4, 1, 3, 0})
    setTaskSchedulerThreads(N);
  Done = true;
  for (std::thread &T : Submitters)
    T.join();
  EXPECT_EQ(Total.load() % 64, 0);
  EXPECT_GT(Total.load(), 0);
}

TEST(TaskSchedulerTest, InTaskWorkerReflectsContext) {
  EXPECT_FALSE(inTaskWorker());
  struct Ctx {
    std::atomic<int> InTask{0};
  } C;
  parallelFor(0, 8,
              [](int32_t, void *P) {
                if (inTaskWorker())
                  static_cast<Ctx *>(P)->InTask.fetch_add(1);
              },
              &C);
  EXPECT_EQ(C.InTask.load(), 8);
  EXPECT_FALSE(inTaskWorker());
}

TEST(GpuSimTest, LaunchStats) {
  gpuSim().resetStats();
  std::atomic<int> Blocks{0};
  struct Ctx {
    std::atomic<int> *Blocks;
  } C{&Blocks};
  gpuSim().launch(12,
                  [](int32_t, void *P) {
                    static_cast<Ctx *>(P)->Blocks->fetch_add(1);
                  },
                  &C);
  EXPECT_EQ(Blocks.load(), 12);
  EXPECT_EQ(gpuSim().stats().KernelLaunches, 1);
  EXPECT_EQ(gpuSim().stats().BlocksExecuted, 12);
}

TEST(GpuSimTest, ConcurrentLaunchesAreAllCounted) {
  gpuSim().resetStats();
  const int Threads = 4, Launches = 50;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([] {
      for (int L = 0; L < Launches; ++L)
        gpuSim().launch(3, [](int32_t, void *) {}, nullptr);
    });
  for (std::thread &Th : Pool)
    Th.join();
  EXPECT_EQ(gpuSim().stats().KernelLaunches, Threads * Launches);
  EXPECT_EQ(gpuSim().stats().BlocksExecuted, 3 * Threads * Launches);
}

TEST(BufferTest, LayoutAndAccess) {
  Buffer<uint16_t> B(5, 3);
  EXPECT_EQ(B.width(), 5);
  EXPECT_EQ(B.height(), 3);
  EXPECT_EQ(B.raw().Dim[0].Stride, 1); // innermost dense
  EXPECT_EQ(B.raw().Dim[1].Stride, 5);
  B(2, 1) = 42;
  EXPECT_EQ(B.data()[1 * 5 + 2], 42);
  B.fill([](int X, int Y) { return X * 10 + Y; });
  EXPECT_EQ(B(4, 2), 42);
}

TEST(BufferTest, ThreeDimensional) {
  Buffer<float> B(4, 3, 2);
  EXPECT_EQ(B.raw().Dim[2].Stride, 12);
  B(1, 2, 1) = 7.0f;
  EXPECT_EQ(B.data()[1 * 12 + 2 * 4 + 1], 7.0f);
}

TEST(BufferTest, MinOffsets) {
  Buffer<int32_t> B(4, 4);
  B.setMin(100, 200);
  B(101, 202) = 9;
  EXPECT_EQ(B(101, 202), 9);
  EXPECT_EQ(B.minCoord(0), 100);
}

TEST(BufferTest, RawKeepsStorageAlive) {
  RawBuffer Raw;
  {
    Buffer<uint8_t> B(8, 8);
    B.fillConstant(77);
    Raw = B.raw();
  }
  // The typed buffer is gone; the descriptor's Owner keeps data valid.
  EXPECT_EQ(static_cast<uint8_t *>(Raw.Host)[0], 77);
}

TEST(ParamBindingsTest, MetadataLookup) {
  Buffer<float> B(6, 4);
  B.setMin(2, 3);
  ParamBindings P;
  P.bind("img", B);
  double V;
  EXPECT_TRUE(P.lookupScalar("img.extent.0", &V));
  EXPECT_EQ(V, 6);
  EXPECT_TRUE(P.lookupScalar("img.min.1", &V));
  EXPECT_EQ(V, 3);
  EXPECT_TRUE(P.lookupScalar("img.stride.1", &V));
  EXPECT_EQ(V, 6);
  // Dimensions beyond rank read as degenerate.
  EXPECT_TRUE(P.lookupScalar("img.extent.2", &V));
  EXPECT_EQ(V, 1);
  EXPECT_FALSE(P.lookupScalar("other.extent.0", &V));
  P.bindInt("k", 42);
  EXPECT_TRUE(P.lookupScalar("k", &V));
  EXPECT_EQ(V, 42);
}

TEST(RuntimeVTableTest, MallocAlignment) {
  void *P = halideMalloc(1000);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % 64, 0u);
  halideFree(P);
  const RuntimeVTable *VT = runtimeVTable();
  void *Q = VT->Malloc(16);
  ASSERT_NE(Q, nullptr);
  VT->Free(Q);
}
