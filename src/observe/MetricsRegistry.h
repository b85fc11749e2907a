//===-- observe/MetricsRegistry.h - Unified runtime metrics -----*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One snapshot call unifying the runtime counters that previously lived
/// in five ad-hoc places: the compile cache (Pipeline::compileCounters),
/// the work-stealing TaskScheduler (taskSchedulerStats), the BufferPool
/// (bufferPoolStats), the simulated GPU (gpuSim().stats()), the JIT's
/// host compiler (jitCounters), and the serving layer's frame counters (maintained here, fed by
/// Pipeline::realizeAsync). The registry is pull-based: nothing is
/// registered or pushed at runtime; metricsSnapshot() reads each
/// subsystem's counters under its own synchronization and returns a
/// stable, ordered name -> value list. Exported names (the glossary
/// lives in README.md "Observability"):
///
///   compile.lowerings, compile.backend_compiles, compile.cache_hits,
///   scheduler.threads, scheduler.steals, scheduler.chunks_executed,
///   scheduler.async_jobs_executed, scheduler.peak_queue_depth,
///   pool.hits, pool.fresh_allocations, pool.capacity_evictions,
///   pool.bytes_held, pool.bytes_live,
///   gpu.kernel_launches, gpu.blocks_executed,
///   jit.host_cc_ms, jit.c_bytes,
///   serve.frames_submitted, serve.frames_completed,
///   trace.events_emitted, trace.events_dropped, trace.bytes_written
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_OBSERVE_METRICSREGISTRY_H
#define HALIDE_OBSERVE_METRICSREGISTRY_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace halide {

/// A point-in-time view of every exported runtime counter, in a fixed
/// order (see the header comment for the name glossary).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> Values;

  /// Value under \p Name, or 0 when absent.
  int64_t get(const std::string &Name) const;
  /// "name value" lines, one per metric.
  std::string str() const;
  /// Flat JSON object {"name": value, ...}.
  std::string toJson() const;
};

/// Reads every subsystem's counters (each under its own lock/atomics)
/// and returns them as one snapshot. Counters from different subsystems
/// are not read atomically with respect to each other.
MetricsSnapshot metricsSnapshot();

/// Serving-layer frame counters, bumped by Pipeline::realizeAsync at
/// submission and by the frame job at completion. Returns the frame's
/// 1-based sequence number (used to label trace spans).
int64_t metricsNoteFrameSubmitted();
void metricsNoteFrameCompleted();

} // namespace halide

#endif // HALIDE_OBSERVE_METRICSREGISTRY_H
