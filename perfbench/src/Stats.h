//===-- perfbench/src/Stats.h - Medians, tails, geomeans --------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// The highest percentile of a sample that has at least ten samples beyond
/// it: the 11th-largest value. A conventional "p99" of a small sample is
/// its maximum, or one sample short of it, which says nothing about the
/// tail. With ten samples or fewer there is no such percentile and the
/// maximum is reported; Samples says which case applies.
struct Tail {
  double Value = 0;
  double Percentile = 100; ///< rank of Value, 0..100
  size_t Samples = 0;
};

inline Tail tail(std::vector<double> V) {
  Tail T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  if (V.size() <= 10) {
    T.Value = V.back();
    return T;
  }
  size_t Idx = V.size() - 11;
  T.Value = V[Idx];
  T.Percentile = 100.0 * double(Idx) / double(V.size() - 1);
  return T;
}

inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / double(V.size()));
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
