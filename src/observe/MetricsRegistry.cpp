//===-- observe/MetricsRegistry.cpp - Unified runtime metrics -------------===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "observe/MetricsRegistry.h"

#include "codegen/Jit.h"
#include "lang/Pipeline.h"
#include "observe/TraceStream.h"
#include "runtime/BufferPool.h"
#include "runtime/GpuSim.h"
#include "runtime/TaskScheduler.h"

#include <atomic>

namespace halide {

namespace {

std::atomic<int64_t> FramesSubmitted{0};
std::atomic<int64_t> FramesCompleted{0};

} // namespace

int64_t metricsNoteFrameSubmitted() {
  return FramesSubmitted.fetch_add(1, std::memory_order_relaxed) + 1;
}

void metricsNoteFrameCompleted() {
  FramesCompleted.fetch_add(1, std::memory_order_relaxed);
}

MetricsSnapshot metricsSnapshot() {
  MetricsSnapshot Snap;
  auto Add = [&Snap](const char *Name, int64_t V) {
    Snap.Values.emplace_back(Name, V);
  };

  CompileCounters CC = Pipeline::compileCounters();
  Add("compile.lowerings", CC.Lowerings);
  Add("compile.backend_compiles", CC.BackendCompiles);
  Add("compile.cache_hits", CC.CacheHits);

  TaskSchedulerStats TS = taskSchedulerStats();
  Add("scheduler.threads", TS.Threads);
  Add("scheduler.steals", TS.Steals);
  Add("scheduler.chunks_executed", TS.ChunksExecuted);
  Add("scheduler.async_jobs_executed", TS.AsyncJobsExecuted);
  Add("scheduler.peak_queue_depth", TS.PeakQueueDepth);

  BufferPoolStats BP = bufferPoolStats();
  Add("pool.hits", BP.PoolHits);
  Add("pool.fresh_allocations", BP.FreshAllocations);
  Add("pool.capacity_evictions", BP.CapacityEvictions);
  Add("pool.bytes_held", BP.BytesHeld);
  Add("pool.bytes_live", BP.BytesLive);

  const GpuStats GS = gpuSim().stats();
  Add("gpu.kernel_launches", GS.KernelLaunches);
  Add("gpu.blocks_executed", GS.BlocksExecuted);

  JitCounters JC = jitCounters();
  Add("jit.host_cc_ms", JC.HostCcMs);
  Add("jit.c_bytes", JC.CBytes);

  Add("serve.frames_submitted",
      FramesSubmitted.load(std::memory_order_relaxed));
  Add("serve.frames_completed",
      FramesCompleted.load(std::memory_order_relaxed));

  TraceStreamStats TR = traceStreamStats();
  Add("trace.events_emitted", TR.EventsEmitted);
  Add("trace.events_dropped", TR.EventsDropped);
  Add("trace.bytes_written", TR.BytesWritten);
  return Snap;
}

int64_t MetricsSnapshot::get(const std::string &Name) const {
  for (const auto &KV : Values)
    if (KV.first == Name)
      return KV.second;
  return 0;
}

std::string MetricsSnapshot::str() const {
  std::string Out;
  for (const auto &KV : Values) {
    Out += KV.first;
    Out += ' ';
    Out += std::to_string(KV.second);
    Out += '\n';
  }
  return Out;
}

std::string MetricsSnapshot::toJson() const {
  std::string Out = "{";
  for (size_t I = 0; I < Values.size(); ++I) {
    if (I)
      Out += ",";
    Out += "\"" + Values[I].first + "\":" + std::to_string(Values[I].second);
  }
  Out += "}";
  return Out;
}

} // namespace halide
