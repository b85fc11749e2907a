//===-- perfbench/src/Bench.h - The repository benchmark --------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declarations shared by the benchmark's translation units: run options,
/// the result a workload hands back to main(), and the output checks.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "runtime/Buffer.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Smoke-test frame size (128x96) instead of the workload's own.
  bool Tiny = false;
  /// Flips one byte of the first timed frame's output before it is checked,
  /// so the self-test can show the check counts it.
  bool InjectFault = false;
  int Nproc = 1;
  int SchedulerThreads = 1;
  int ClientThreads = 0; ///< serve_mixed only
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct Outcome {
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::vector<Metric> EndToEnd; ///< printed by the untraced run
  std::vector<Metric> PerLayer; ///< printed by the traced run
  /// The detailed figures of this workload (per-app ns/px, serving
  /// latency, failed fraction), printed as a readable report above the
  /// result line.
  std::vector<Metric> Report;
};

/// The names accepted by --workload.
const std::vector<std::string> &workloadNames();

/// Runs one workload to completion.
Outcome runWorkload(const Options &O);

/// Plain-C++ histogram equalization of an 8-bit W x H image, written
/// independently of the library: the reference for the histeq app, which
/// registers none of its own.
void histeqReference(const halide::RawBuffer &In, const halide::RawBuffer &Out);

/// Compares two identically shaped W x H (x C) outputs over the interior
/// \p Margin pixels away from the border: integers within \p IntTol, floats
/// within \p FloatTol. False when the margin leaves no interior.
bool outputsMatch(const halide::RawBuffer &Got, const halide::RawBuffer &Want,
                  int Margin, int64_t IntTol, double FloatTol);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
