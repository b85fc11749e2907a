//===-- runtime/GpuSim.cpp -------------------------------------------------------=//

#include "runtime/GpuSim.h"
#include "observe/TraceRecorder.h"
#include "runtime/TaskScheduler.h"

using namespace halide;

void GpuSim::launch(int32_t Blocks, void (*Body)(int32_t, void *),
                    void *Closure) {
  KernelLaunches.fetch_add(1, std::memory_order_relaxed);
  BlocksExecuted.fetch_add(Blocks, std::memory_order_relaxed);
  const int64_t T0 = traceActive() ? traceNowNs() : 0;
  // Blocks are data parallel; run them on the host task scheduler, which
  // stands in for the SM array. (With one hardware core this degrades
  // gracefully to a serial sweep, preserving semantics.)
  parallelFor(0, Blocks, Body, Closure);
  if (T0) {
    std::vector<TraceArg> Args;
    Args.emplace_back("blocks", int64_t(Blocks));
    traceComplete("gpu", "kernel_launch", T0, traceNowNs() - T0,
                  std::move(Args));
  }
}

GpuSim &halide::gpuSim() {
  static GpuSim Device;
  return Device;
}
