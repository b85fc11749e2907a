//===-- runtime/GpuSim.h - Simulated GPU device -----------------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A software stand-in for the paper's CUDA device (see DESIGN.md,
/// substitution 2). Kernel launches execute a block range on a worker pool
/// that models a fixed number of streaming multiprocessors; the simulator
/// tracks launch counts and per-launch block/thread totals so benchmarks
/// can report the kernel-graph structure the paper discusses (e.g. the 58
/// distinct kernels of the local Laplacian schedule). Memory is unified:
/// the copy-tracking the paper describes degenerates to counting logical
/// transfers at kernel boundaries.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_RUNTIME_GPUSIM_H
#define HALIDE_RUNTIME_GPUSIM_H

#include <atomic>
#include <cstdint>

namespace halide {

/// Aggregate statistics of the simulated device.
struct GpuStats {
  int64_t KernelLaunches = 0;
  int64_t BlocksExecuted = 0;
};

/// The simulated GPU device.
class GpuSim {
public:
  /// Launches a kernel over \p Blocks blocks; Body(B, Closure) runs once
  /// per block (thread loops execute inside the body).
  void launch(int32_t Blocks, void (*Body)(int32_t, void *), void *Closure);

  /// Number of simulated streaming multiprocessors (parallel workers).
  int smCount() const { return SMs; }
  void setSmCount(int Count) { SMs = Count < 1 ? 1 : Count; }

  /// A snapshot of the device counters. Concurrent frames launch on the
  /// one device, so the counters are relaxed atomics and a snapshot may
  /// fall between another frame's launch and its block count.
  GpuStats stats() const {
    GpuStats S;
    S.KernelLaunches = KernelLaunches.load(std::memory_order_relaxed);
    S.BlocksExecuted = BlocksExecuted.load(std::memory_order_relaxed);
    return S;
  }
  void resetStats() {
    KernelLaunches.store(0, std::memory_order_relaxed);
    BlocksExecuted.store(0, std::memory_order_relaxed);
  }

private:
  int SMs = 8;
  std::atomic<int64_t> KernelLaunches{0};
  std::atomic<int64_t> BlocksExecuted{0};
};

/// The process-wide simulated device.
GpuSim &gpuSim();

} // namespace halide

#endif // HALIDE_RUNTIME_GPUSIM_H
