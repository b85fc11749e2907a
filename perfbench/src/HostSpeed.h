//===-- perfbench/src/HostSpeed.h - Reference-speed timing ------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark runs on shared hosts whose speed drifts by a third within
/// seconds: on a 4-vCPU Sapphire Rapids guest, the calibration kernel
/// below took between 111 and 151 ms per 20M iterations over 15 idle
/// seconds. Bounding regressions at 25% needs times that move less than
/// the host does, so the end-to-end times are reported at a reference host
/// speed. Between the measured operations, while the workload is idle, the
/// benchmark times a fixed kernel of plain C++ (no library code); a
/// phase's times are scaled by the reference kernel time over the median
/// kernel time of that phase. The raw times stay in the per-layer metrics,
/// and so do the scales (bench.host_speed.*).
///
/// Limitation: the kernel runs inside the benchmark's own process. If the
/// library kept cores busy after an operation returned (a pool that spins
/// before it sleeps, deferred frees, prefetching), the kernel would run
/// slower, the scale would shrink, and that burnt CPU would read as a
/// speed-up. So a slice counts only when it proves the rest of the process
/// idle: the process spent no more CPU time during the slice than the
/// kernel's own threads did (within 2%, for waking them), and the task
/// scheduler ran no chunk and no async job. Other slices are discarded and
/// counted in the readable report; a phase without an idle slice is
/// reported unscaled, which reads as a slowdown.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOSTSPEED_H
#define PERFBENCH_HOSTSPEED_H

#include "Trace.h"

#include <vector>

namespace perfbench {

/// The reference kernel times, which set the unit of the reported times:
/// about what one slice takes on an idle core of that guest, alone and on
/// all four cores at once.
constexpr double RefSerialSliceMs = 6.0;
constexpr double RefParallelSliceMs = 7.0;

/// One calibration: a slice of the kernel run three times.
struct Calibration {
  /// Median wall time of the three.
  double SliceMs = 0;
  /// Whether nothing else in the process ran during any of the three.
  bool Idle = false;
};

/// Runs a slice of the calibration kernel, \p Threads times 1M iterations
/// shared among \p Threads threads in chunks, three times. Run on one
/// thread it tracks the speed of the compiler's single-threaded work; on
/// every core it tracks the capacity left to parallel frames, which also
/// balance their work across threads: a core taken by another tenant
/// slows the slice by its share of the work, not by all of it.
Calibration calibrateHost(int Threads);

/// The calibrations of one phase of the run (a set-up repetition or the
/// timed phase). Times measured in the phase are reported at the reference
/// speed by multiplying them with scale(): the median over the phase
/// smooths out both the slices' own noise and drift within the phase.
class PhaseSpeed {
public:
  PhaseSpeed(int Threads, double RefMs) : Threads(Threads), RefMs(RefMs) {}
  /// Calibrates until a slice proves the process idle, at most three
  /// times, and returns how long that took, in ms.
  double calibrate();
  /// Reference seconds per measured second; 1 when no slice was idle.
  double scale() const;
  /// Slices discarded since the run began because the process was busy.
  int discarded() const { return Discarded; }
  void clear() { Slices.clear(); }

private:
  int Threads;
  double RefMs;
  std::vector<double> Slices;
  int Discarded = 0;
};

} // namespace perfbench

#endif // PERFBENCH_HOSTSPEED_H
