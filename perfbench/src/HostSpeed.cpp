//===-- perfbench/src/HostSpeed.cpp - The calibration kernel --------------===//

#include "HostSpeed.h"
#include "Stats.h"

#include "runtime/TaskScheduler.h"

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <ctime>
#include <mutex>
#include <thread>

using namespace perfbench;

namespace {

// Keeps the kernel's result observable.
thread_local volatile float Sink;

/// CPU time other threads of the process may spend while a slice runs,
/// as a share of the kernel's own CPU time, without the slice counting as
/// busy. Waking the helper threads costs under 1% (about 0.1-0.2 ms of a
/// 4-thread slice's 24 ms).
constexpr double BusyAllowance = 0.02;

int64_t cpuNs(clockid_t Clock) {
  timespec T;
  clock_gettime(Clock, &T);
  return int64_t(T.tv_sec) * 1000000000 + T.tv_nsec;
}

/// A slice is 1M kernel iterations per thread, handed out in chunks.
constexpr int ChunkIterations = 50000;
constexpr int ChunksPerThread = 20;

/// Runs chunks of a fixed mix of integer hashing, table lookups and float
/// accumulation over 48 KB of per-thread data, claiming each from \p Next,
/// until \p Total chunks have been claimed. Threads that run faster take
/// more chunks, as the scheduler's threads do in a frame. Adds the calling
/// thread's CPU time for the whole call to \p CpuNs.
void runChunks(std::atomic<int> &Next, int Total, int64_t *CpuNs) {
  const int64_t Cpu0 = cpuNs(CLOCK_THREAD_CPUTIME_ID);
  thread_local uint32_t Table[4096];
  thread_local float Acc[8192];
  thread_local bool Init = false;
  if (!Init) {
    for (uint32_t I = 0; I < 4096; ++I)
      Table[I] = I * 2654435761u;
    Init = true;
  }
  uint32_t X = 1;
  float Sum = 0;
  while (Next.fetch_add(1) < Total)
    for (int K = 0; K < ChunkIterations; ++K) {
      X ^= X << 13;
      X ^= X >> 17;
      X ^= X << 5;
      X += Table[X & 4095];
      Acc[X & 8191] += 1.0f;
      Sum += Acc[(X >> 3) & 8191] * 0.5f;
    }
  Sink = Sum + float(X);
  *CpuNs += cpuNs(CLOCK_THREAD_CPUTIME_ID) - Cpu0;
}

/// The threads that run the kernel beside the caller. They live as long as
/// the process, so no slice pays for starting or joining a thread.
class Helpers {
public:
  explicit Helpers(int N) {
    for (int I = 0; I < N; ++I)
      Threads.emplace_back([this, I] { loop(size_t(I)); });
  }
  ~Helpers() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Stop = true;
    }
    Cv.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }
  size_t size() const { return Threads.size(); }

  /// Runs one slice's chunks on the helpers and the caller together,
  /// helper I adding its CPU time to slot I + 1 of \p Cpu and the caller to
  /// slot 0; returns when every chunk is done.
  void slice(std::vector<int64_t> &Cpu) {
    std::atomic<int> Next{0};
    const int Total = ChunksPerThread * int(Threads.size() + 1);
    {
      std::lock_guard<std::mutex> Lock(M);
      OutNext = &Next;
      OutTotal = Total;
      OutCpu = &Cpu;
      Pending = Threads.size();
      ++Generation;
    }
    Cv.notify_all();
    runChunks(Next, Total, &Cpu[0]);
    std::unique_lock<std::mutex> Lock(M);
    Cv.wait(Lock, [&] { return Pending == 0; });
  }

private:
  void loop(size_t I) {
    uint64_t Seen = 0;
    std::unique_lock<std::mutex> Lock(M);
    while (true) {
      Cv.wait(Lock, [&] { return Stop || Generation != Seen; });
      if (Stop)
        return;
      Seen = Generation;
      std::atomic<int> &Next = *OutNext;
      const int Total = OutTotal;
      int64_t &Cpu = (*OutCpu)[I + 1];
      Lock.unlock();
      runChunks(Next, Total, &Cpu);
      Lock.lock();
      if (--Pending == 0)
        Cv.notify_all();
    }
  }

  std::vector<std::thread> Threads;
  std::mutex M;
  std::condition_variable Cv;
  bool Stop = false;
  uint64_t Generation = 0;
  size_t Pending = 0;
  std::atomic<int> *OutNext = nullptr;
  int OutTotal = 0;
  std::vector<int64_t> *OutCpu = nullptr;
};

} // namespace

Calibration perfbench::calibrateHost(int Threads) {
  // The benchmark calibrates on one thread or on every core, so one set of
  // helpers serves the whole run.
  Helpers *H = nullptr;
  if (Threads > 1) {
    static Helpers Pool(Threads - 1);
    assert(Pool.size() == size_t(Threads - 1));
    H = &Pool;
  }
  const halide::TaskSchedulerStats S0 = halide::taskSchedulerStats();
  Calibration C;
  C.Idle = true;
  std::vector<double> Slices;
  for (int Rep = 0; Rep < 3; ++Rep) {
    std::vector<int64_t> Cpu(static_cast<size_t>(Threads), 0);
    const int64_t Process0 = cpuNs(CLOCK_PROCESS_CPUTIME_ID);
    const int64_t T0 = nowNs();
    if (H) {
      H->slice(Cpu);
    } else {
      std::atomic<int> Next{0};
      runChunks(Next, ChunksPerThread, &Cpu[0]);
    }
    Slices.push_back(double(nowNs() - T0) * 1e-6);
    int64_t Kernel = 0;
    for (int64_t Ns : Cpu)
      Kernel += Ns;
    const int64_t Other = cpuNs(CLOCK_PROCESS_CPUTIME_ID) - Process0 - Kernel;
    if (double(Other) > BusyAllowance * double(Kernel))
      C.Idle = false;
  }
  const halide::TaskSchedulerStats S1 = halide::taskSchedulerStats();
  if (S1.ChunksExecuted != S0.ChunksExecuted ||
      S1.AsyncJobsExecuted != S0.AsyncJobsExecuted)
    C.Idle = false;
  C.SliceMs = median(Slices);
  return C;
}

double PhaseSpeed::calibrate() {
  const int64_t T0 = nowNs();
  for (int Attempt = 0; Attempt < 3; ++Attempt) {
    const Calibration C = calibrateHost(Threads);
    if (C.Idle) {
      Slices.push_back(C.SliceMs);
      break;
    }
    ++Discarded;
  }
  return double(nowNs() - T0) * 1e-6;
}

double PhaseSpeed::scale() const {
  return Slices.empty() ? 1.0 : RefMs / median(Slices);
}
