//===-- perfbench/src/Trace.cpp - In-memory spans around layer calls ------===//

#include "Trace.h"

#include <unordered_map>

using namespace perfbench;

namespace {
// The innermost open span and operation on this thread: what a new span's
// parent and operation id are.
thread_local int64_t CurrentSpan = 0;
thread_local int64_t CurrentOp = 0;
} // namespace

const char *perfbench::layerName(Layer L) {
  switch (L) {
  case Layer::Lang:
    return "lang";
  case Layer::Transforms:
    return "transforms";
  case Layer::Codegen:
    return "codegen";
  case Layer::Vm:
    return "vm";
  case Layer::Runtime:
    return "runtime";
  case Layer::Apps:
    return "apps";
  case Layer::Check:
    return "check";
  case Layer::Bench:
    return "bench";
  }
  return "?";
}

Tracer::Open Tracer::open(Layer L) {
  Open O;
  if (!Recording)
    return O;
  O.Id = NextId.fetch_add(1);
  O.Parent = CurrentSpan;
  O.OuterOp = CurrentOp;
  O.Op = L == Layer::Bench ? O.Id : CurrentOp;
  CurrentSpan = O.Id;
  CurrentOp = O.Op;
  return O;
}

void Tracer::close(const Open &O, const char *Name, Layer L,
                   const std::string &Key, int64_t T0, int64_t T1) {
  if (!O.Id)
    return;
  CurrentSpan = O.Parent;
  CurrentOp = O.OuterOp;
  SpanRecord R;
  R.Name = Name;
  R.L = L;
  R.Key = Key;
  R.Id = O.Id;
  R.Parent = O.Parent;
  R.Op = O.Op;
  R.StartNs = T0;
  R.EndNs = T1;
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(std::move(R));
}

void Tracer::addWindow(int64_t Ns) {
  if (!Recording)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  WindowNs += Ns;
}

std::vector<double> Tracer::durations(const char *Name,
                                      const std::string &Key) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<double> Ms;
  for (const SpanRecord &S : Spans)
    if (S.Key == Key && std::string(S.Name) == Name)
      Ms.push_back(S.ms());
  return Ms;
}

Tracer::Accounting Tracer::account() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::unordered_map<int64_t, double> ChildMs;
  for (const SpanRecord &S : Spans)
    if (S.Parent)
      ChildMs[S.Parent] += S.ms();
  Accounting A;
  for (const SpanRecord &S : Spans) {
    auto It = ChildMs.find(S.Id);
    A.SelfMs[int(S.L)] += S.ms() - (It == ChildMs.end() ? 0.0 : It->second);
  }
  A.WindowMs = double(WindowNs) * 1e-6;
  return A;
}
