//===-- perfbench/src/Trace.h - Spans around layer calls --------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracer. A span brackets one call into a library layer
/// (name, layer, pipeline key, start, end, parent span, and the id of the
/// compile or frame it belongs to). Spans are recorded from the benchmark's
/// own files, around the public entry points; nothing inside the library is
/// instrumented. Spans stay in memory and are reduced to per-layer metrics
/// when the run ends.
///
/// Every timed call goes through Tracer::time(), traced or not, so the
/// untraced run pays two clock reads per call and the traced run adds only
/// the record.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The repository modules a span is charged to, plus the benchmark's own
/// output checks and the operation spans that parent everything else.
enum class Layer { Lang, Transforms, Codegen, Vm, Runtime, Apps, Check, Bench };
constexpr int NumLayers = 8;
const char *layerName(Layer L);

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char *Name = "";
  Layer L = Layer::Bench;
  std::string Key; ///< pipeline key ("blur", "histeq", ...)
  int64_t Id = 0, Parent = 0, Op = 0;
  int64_t StartNs = 0, EndNs = 0;
  double ms() const { return double(EndNs - StartNs) * 1e-6; }
};

class Tracer {
public:
  /// Spans are recorded only while recording() is true.
  void setRecording(bool On) { Recording = On; }
  bool recording() const { return Recording; }

  /// Runs \p F as span \p Name of layer \p L and returns its duration in
  /// seconds. A span of layer Bench opens a new operation id (one compile
  /// or frame); the calls it makes inherit that id.
  template <typename Fn>
  double time(const char *Name, Layer L, const std::string &Key, Fn &&F) {
    Open O = open(L);
    int64_t T0 = nowNs();
    std::forward<Fn>(F)();
    int64_t T1 = nowNs();
    close(O, Name, L, Key, T0, T1);
    return double(T1 - T0) * 1e-9;
  }

  /// Marks \p Ns of one thread's time as benchmark work while recording:
  /// the denominator the layer self-times are charged against.
  void addWindow(int64_t Ns);

  /// Durations (ms) of every span named \p Name with pipeline \p Key.
  std::vector<double> durations(const char *Name, const std::string &Key) const;

  /// Self time per layer (span time minus time covered by its child spans)
  /// and the recorded thread time those self times are charged against.
  struct Accounting {
    double SelfMs[NumLayers] = {};
    double WindowMs = 0;
  };
  Accounting account() const;

private:
  struct Open {
    int64_t Id = 0, Parent = 0, Op = 0, OuterOp = 0;
  };
  Open open(Layer L);
  void close(const Open &O, const char *Name, Layer L, const std::string &Key,
             int64_t T0, int64_t T1);

  std::atomic<bool> Recording{false};
  std::atomic<int64_t> NextId{1};
  mutable std::mutex Mutex;
  std::vector<SpanRecord> Spans; // guarded by Mutex
  int64_t WindowNs = 0;          // guarded by Mutex
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
