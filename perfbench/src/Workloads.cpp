//===-- perfbench/src/Workloads.cpp - The benchmark workloads -------------===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// steady_frames, serve_mixed and vm_frames, driven through the library's
/// public API. Each workload sets up several times, bringing every
/// pipeline up from a cleared compile cache (the median is setup_s, and
/// the compile path's first_frame_s), then runs its timed phase for
/// --seconds. A traced run (--trace 1) repeats the timed phase with spans
/// recorded and reduces the spans to per-layer metrics. End-to-end times
/// are reported at the reference host speed (HostSpeed.h); per-layer times
/// are raw.
///
/// Every output is checked. The first frame of each compiled pipeline is
/// compared against the app's hand-written reference; every later frame of
/// that pipeline must equal the checked first frame byte for byte (the
/// generated code is deterministic, serial or threaded).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "HostSpeed.h"
#include "Stats.h"
#include "Trace.h"

#include "apps/Apps.h"
#include "codegen/CodeGenC.h"
#include "ir/IRVisitor.h"
#include "runtime/BufferPool.h"
#include "runtime/TaskScheduler.h"
#include "support/DiffTest.h"
#include "vm/VmCompiler.h"
#include "vm/VmExecutable.h"

#include <atomic>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <thread>

using namespace halide;
using namespace perfbench;

namespace {

/// Set-up repetitions per run: setup_s and the first-frame times are their
/// medians. steady_frames compiles six pipelines per set-up (~10 s) and
/// affords the fewest.
int setupReps(const std::string &Workload) {
  if (Workload == "steady_frames")
    return 3;
  return Workload == "vm_frames" ? 7 : 5;
}
/// Frames per app behind the serial/threaded comparison and the standalone
/// frame time of serve_mixed.
constexpr int ProbeFrames = 5;
/// The frame on which an app is checked when its reference margin leaves no
/// interior at the workload's own frame size. local_laplacian's
/// hand-written pyramid clamps each of its 8 levels at the level's own
/// edge, so it agrees with the pipeline only 512 pixels in from the border.
constexpr int CheckW = 2048, CheckH = 1536;
constexpr int TinyW = 128, TinyH = 96;

const std::vector<std::string> AllApps = {"blur",        "bilateral_grid",
                                          "camera_pipe", "interpolate",
                                          "local_laplacian", "histeq"};
const std::vector<std::string> ServeApps = {"blur", "bilateral_grid",
                                            "camera_pipe", "histeq"};
/// local_laplacian runs ~4 s per 512x384 frame on the bytecode VM.
const std::vector<std::string> VmApps = {"blur", "bilateral_grid",
                                         "camera_pipe", "interpolate",
                                         "histeq"};
/// Requests each serve_mixed client keeps in flight. With two clients,
/// eight outstanding frames outnumber the threads that run them, so frames
/// queue as async jobs, the queue orders them by priority, and frames
/// running at once share the buffer pool.
constexpr int InFlight = 4;

struct Image {
  RawBuffer Buf;
  std::shared_ptr<void> Keep;
  size_t bytes() const {
    return size_t(Buf.numElements()) * size_t(Buf.ElemType.bytes());
  }
};

Image makeImage(const App &A, int W, int H) {
  Image I;
  I.Buf = makeAppOutput(A, W, H, &I.Keep);
  return I;
}

bool sameBytes(const Image &A, const Image &B) {
  return A.bytes() == B.bytes() &&
         std::memcmp(A.Buf.Host, B.Buf.Host, A.bytes()) == 0;
}

/// One pipeline under test: an app under its tuned schedule at one frame
/// size.
struct Subject {
  std::string Key; ///< app name
  App *A = nullptr;
  int W = 0, H = 0;
  ParamBindings Inputs; ///< without the output
  ParamBindings Params; ///< Inputs plus Out
  Image Out, Golden;
  /// The reference, at W x H or, when its margin leaves no interior there,
  /// at the check size; CheckParams/CheckOut then hold the check frame.
  Image Ref;
  ParamBindings CheckParams;
  Image CheckOut;
  std::shared_ptr<const Executable> Exe;
  /// Timed-phase frame times (serve_mixed: request latencies), raw ms.
  std::vector<double> FrameMs;
  double StandaloneMs = 0;

  double pixels() const { return double(W) * H; }
  bool checkedAtOwnSize() const { return Ref.Buf.Dim[0].Extent == W; }
};

/// What the traced run learns about one pipeline's compile path.
struct CompileFacts {
  int64_t IrNodes = 0, CBytes = 0, VmInstrs = 0;
  double VmStoresPerPx = 0, VmPeakAllocKb = 0;
};

struct PhaseCounters {
  CompileCounters Compile;
  TaskSchedulerStats Sched;
  BufferPoolStats Pool;
  static PhaseCounters now() {
    return {Pipeline::compileCounters(), taskSchedulerStats(),
            bufferPoolStats()};
  }
};

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0;
}

/// Integer tolerance against the app's reference. local_laplacian's
/// reference computes its float pyramid in a different operation order and
/// rounds to the adjacent uint16 in ~0.03% of interior pixels; every other
/// integer output must match exactly. Float outputs use the differential
/// harness's 1e-5.
int64_t intTolerance(const std::string &App) {
  return App == "local_laplacian" ? 1 : 0;
}
constexpr double FloatTolerance = 1e-5;

class Run {
public:
  explicit Run(const Options &O)
      : Opt(O), FrameSpeed(O.Nproc, RefParallelSliceMs) {
    Tgt = O.Workload == "vm_frames" ? Target::vm() : Target::jit();
    RunLayer = Tgt.TargetBackend == Backend::VmBytecode ? Layer::Vm
                                                        : Layer::Runtime;
  }

  Outcome go();

private:
  // Set-up.
  void buildRegistry();
  Subject &addSubject(const std::string &Key, int W, int H);
  void prepare(Subject &S);
  /// Lowers, compiles and runs \p S from a cleared cache and checks the
  /// frame; returns the seconds that took, excluding the check.
  double bringUp(Subject &S);
  bool verifyFirstFrame(Subject &S);
  void setUp(const std::vector<std::string> &Keys, int W, int H);

  // Timed phases.
  void count(bool Ok) {
    ++Attempted;
    Failed += Ok ? 0 : 1;
  }
  void recalibrate(PhaseSpeed &P);
  void frame(Subject &S, bool Record);
  void timedRounds(int Replay, bool Record);
  void timedServe(bool Record);
  /// Runs the workload's timed phase. The untraced phase runs for
  /// --seconds; the traced one replays as many rounds (serve_mixed: runs
  /// as long). Returns wall seconds per operation.
  double timedPhase(bool Traced);
  void probeScaling();
  void probeVmStats();

  void emitEndToEnd(Outcome &Out);
  void emitPerLayer(Outcome &Out, double UntracedS, double TracedS);

  const Options &Opt;
  Target Tgt;
  Layer RunLayer = Layer::Runtime;
  Tracer Tr;
  /// Calibrated on one thread among set-up and compiles, on every core
  /// among frames.
  PhaseSpeed Speed{1, RefSerialSliceMs}, FrameSpeed;
  double CalibrationMs = 0; ///< time spent calibrating in this phase
  double TimedScale = 1;    ///< the untraced phase's scale for frames
  std::vector<double> SetupScales; ///< each set-up's scale
  std::vector<App> Apps;
  std::vector<std::unique_ptr<Subject>> Subjects;
  std::map<std::string, Image> RefCache; ///< "app@WxH" -> reference
  std::map<std::string, CompileFacts> Facts;
  std::atomic<int64_t> Attempted{0}, Failed{0};
  bool FaultPending = false;

  // At the reference host speed once their phase ends.
  std::vector<double> SetupS, FirstFrameSumS, FirstFrameMaxS;
  int64_t CodeBytes = 0;
  // Raw.
  int64_t FramesTimed = 0;
  double FrameSecondsTimed = 0; ///< serve_mixed: phase wall time
  int Rounds = 0;               ///< what the traced phase replays
  std::atomic<int64_t> Ops{0};  ///< operations in the current phase
  std::vector<double> ServeWaitMs; ///< raw
  PhaseCounters Before, After;
  std::map<std::string, double> Scaling; ///< serial / pooled frame time
};

void Run::buildRegistry() {
  Tr.time("paperApps", Layer::Apps, "", [&] {
    Apps = paperApps();
    Apps.push_back(makeHistogramEqualizeApp());
  });
  App &Histeq = Apps.back();
  auto MakeInputs = Histeq.MakeInputs;
  std::string InputName = Histeq.Inputs[0].name();
  Histeq.Reference = [MakeInputs, InputName](int W, int H,
                                             const RawBuffer &Out) {
    ParamBindings In = MakeInputs(W, H);
    histeqReference(In.buffer(InputName), Out);
  };
}

Subject &Run::addSubject(const std::string &Key, int W, int H) {
  auto S = std::make_unique<Subject>();
  S->Key = Key;
  for (App &A : Apps)
    if (A.Name == Key)
      S->A = &A;
  S->W = W;
  S->H = H;
  Subjects.push_back(std::move(S));
  return *Subjects.back();
}

void Run::prepare(Subject &S) {
  App &A = *S.A;
  Tr.time("App::MakeInputs", Layer::Apps, A.Name,
          [&] { S.Inputs = A.MakeInputs(S.W, S.H); });
  S.Out = makeImage(A, S.W, S.H);
  S.Params = S.Inputs;
  S.Params.bind(A.Output.name(), S.Out.Buf);

  const int M = A.ReferenceMargin;
  const bool Fits = 2 * M < S.W && 2 * M < S.H;
  const int RW = Fits ? S.W : CheckW, RH = Fits ? S.H : CheckH;
  if (!Fits) {
    Tr.time("App::MakeInputs", Layer::Apps, A.Name,
            [&] { S.CheckParams = A.MakeInputs(RW, RH); });
    S.CheckOut = makeImage(A, RW, RH);
    S.CheckParams.bind(A.Output.name(), S.CheckOut.Buf);
  }
  const std::string RefKey =
      A.Name + "@" + std::to_string(RW) + "x" + std::to_string(RH);
  auto It = RefCache.find(RefKey);
  if (It == RefCache.end()) {
    Image Ref = makeImage(A, RW, RH);
    Tr.time("App::Reference", Layer::Apps, A.Name,
            [&] { A.Reference(RW, RH, Ref.Buf); });
    It = RefCache.emplace(RefKey, Ref).first;
  }
  S.Ref = It->second;
}

bool Run::verifyFirstFrame(Subject &S) {
  bool Ok = false;
  Tr.time("verify", Layer::Check, S.Key, [&] {
    const int64_t IntTol = intTolerance(S.A->Name);
    const int M = S.A->ReferenceMargin;
    if (S.checkedAtOwnSize()) {
      Tr.time("compare_reference", Layer::Check, S.Key, [&] {
        Ok = outputsMatch(S.Out.Buf, S.Ref.Buf, M, IntTol, FloatTolerance);
      });
      return;
    }
    int Rc = -1;
    Tr.time("Executable::run", RunLayer, S.Key,
            [&] { Rc = S.Exe->run(S.CheckParams); });
    Tr.time("compare_reference", Layer::Check, S.Key, [&] {
      Ok = Rc == 0 && outputsMatch(S.CheckOut.Buf, S.Ref.Buf, M, IntTol,
                                   FloatTolerance);
    });
  });
  return Ok;
}

double Run::bringUp(Subject &S) {
  double Seconds = 0;
  bool Ok = false;
  const bool Jit = Tgt.usesJit();
  Tr.time("bring_up", Layer::Bench, S.Key, [&] {
    App &A = *S.A;
    A.ScheduleTuned();
    Pipeline P(A.Output);
    const CompileCounters C0 = Pipeline::compileCounters();
    LoweredPipeline LP;
    Seconds += Tr.time("Pipeline::lowerPipeline", Layer::Transforms, S.Key,
                       [&] { LP = P.lowerPipeline(Tgt); });
    if (Tr.recording()) {
      // The library emits C (or bytecode) inside makeExecutable; calling
      // the emitter once more from outside is what times it on its own.
      CompileFacts &CF = Facts[S.Key];
      CF.IrNodes = int64_t(countIRNodes(LP.Body));
      if (Jit)
        Tr.time("codegenC", Layer::Codegen, S.Key, [&] {
          CF.CBytes = int64_t(codegenC(LP, "hl_pipeline").size());
        });
      else
        Tr.time("compileToBytecode", Layer::Vm, S.Key, [&] {
          CF.VmInstrs = int64_t(compileToBytecode(LP).Code.size());
        });
    }
    // The lowering is cached by now, so on this cache miss compile() is a
    // lookup plus makeExecutable for the target's backend.
    Seconds += Tr.time(
        Jit ? "makeExecutable:jit_c" : "makeExecutable:vm_bytecode",
        Jit ? Layer::Codegen : Layer::Vm, S.Key,
        [&] { S.Exe = P.compile(Tgt); });
    int Rc = -1;
    Seconds += Tr.time("Executable::run", RunLayer, S.Key,
                       [&] { Rc = S.Exe->run(S.Params); });
    // Cold means cold: exactly one lowering and one backend compile, and
    // nothing served from the cache.
    const CompileCounters C1 = Pipeline::compileCounters();
    const bool Cold = C1.Lowerings - C0.Lowerings == 1 &&
                      C1.BackendCompiles - C0.BackendCompiles == 1 &&
                      C1.CacheHits == C0.CacheHits;
    Ok = Rc == 0 && Cold && verifyFirstFrame(S);
    if (!Ok)
      std::fprintf(stderr, "perfbench: %s failed its first frame "
                           "(exit %d, cold %d)\n",
                   S.Key.c_str(), Rc, int(Cold));
    if (S.Golden.bytes() != S.Out.bytes())
      S.Golden = makeImage(A, S.W, S.H);
    std::memcpy(S.Golden.Buf.Host, S.Out.Buf.Host, S.Out.bytes());
    if (Jit)
      CodeBytes += int64_t(S.Exe->source().size());
    else
      CodeBytes += int64_t(
          static_cast<const VmExecutable &>(*S.Exe).program().Code.size() *
          sizeof(VmInstr));
  });
  count(Ok);
  return Seconds;
}

/// One set-up repetition: registry, inputs, references and every pipeline
/// brought up cold.
void Run::setUp(const std::vector<std::string> &Keys, int W, int H) {
  const int64_t T0 = nowNs();
  Speed.clear();
  CalibrationMs = 0;
  recalibrate(Speed);
  Subjects.clear();
  RefCache.clear();
  Apps.clear();
  buildRegistry();
  Pipeline::clearCompileCache();
  for (const std::string &Key : Keys)
    prepare(addSubject(Key, W, H));
  CodeBytes = 0;
  double Sum = 0, Max = 0;
  for (auto &S : Subjects) {
    recalibrate(Speed);
    const double T = bringUp(*S);
    Sum += T;
    Max = std::max(Max, T);
  }
  FirstFrameSumS.push_back(Sum * Speed.scale());
  FirstFrameMaxS.push_back(Max * Speed.scale());
  if (Opt.Workload == "serve_mixed") {
    // The standalone frame time each request's wait is measured against,
    // which also warms the buffer pool.
    for (auto &S : Subjects) {
      std::vector<double> Ms;
      for (int I = 0; I < ProbeFrames; ++I)
        Ms.push_back(1e3 * Tr.time("Executable::run", RunLayer, S->Key,
                                   [&] { S->Exe->run(S->Params); }));
      S->StandaloneMs = median(Ms);
    }
  }
  const int64_t Ns = nowNs() - T0;
  SetupS.push_back((double(Ns) * 1e-9 - CalibrationMs * 1e-3) *
                   Speed.scale());
  SetupScales.push_back(Speed.scale());
  Tr.addWindow(Ns);
}

void Run::recalibrate(PhaseSpeed &P) {
  Tr.time("calibrate", Layer::Bench, "",
          [&] { CalibrationMs += P.calibrate(); });
}

void Run::frame(Subject &S, bool Record) {
  bool Ok = false;
  Tr.time("frame", Layer::Bench, S.Key, [&] {
    int Rc = -1;
    double Sec = Tr.time("Executable::run", RunLayer, S.Key,
                         [&] { Rc = S.Exe->run(S.Params); });
    if (Record) {
      S.FrameMs.push_back(Sec * 1e3);
      ++FramesTimed;
      FrameSecondsTimed += Sec;
    }
    if (FaultPending) {
      static_cast<uint8_t *>(S.Out.Buf.Host)[0] ^= 1;
      FaultPending = false;
    }
    Tr.time("compare_golden", Layer::Check, S.Key,
            [&] { Ok = Rc == 0 && sameBytes(S.Out, S.Golden); });
  });
  count(Ok);
  ++Ops;
}

/// Frames one at a time, each round a seeded permutation of the pipelines.
void Run::timedRounds(int Replay, bool Record) {
  std::mt19937_64 R(Opt.Seed);
  const int64_t Deadline = nowNs() + int64_t(Opt.Seconds * 1e9);
  int Done = 0;
  while (Replay > 0 ? Done < Replay : (Done == 0 || nowNs() < Deadline)) {
    std::vector<Subject *> Order;
    for (auto &S : Subjects)
      Order.push_back(S.get());
    std::shuffle(Order.begin(), Order.end(), R);
    recalibrate(FrameSpeed);
    for (Subject *S : Order)
      frame(*S, Record);
    ++Done;
  }
  Rounds = Done;
}

/// Closed-loop clients: each keeps InFlight frames of seeded apps at seeded
/// priorities submitted, waits for the oldest, checks it, and submits the
/// next. The phase runs in half-second slices so that the host speed is
/// calibrated between them often enough for its median to hold still.
void Run::timedServe(bool Record) {
  const int Clients = Opt.ClientThreads;
  const int Slices = std::max(1, int(2 * Opt.Seconds));
  std::vector<std::mt19937_64> Rngs;
  // An output per client, request slot and subject. Requests finish in the
  // order they were submitted, so request N reuses slot N % InFlight only
  // after request N - InFlight has been waited for.
  std::vector<std::vector<std::vector<Image>>> Outs(
      static_cast<size_t>(Clients),
      std::vector<std::vector<Image>>(static_cast<size_t>(InFlight)));
  for (int C = 0; C < Clients; ++C) {
    Rngs.emplace_back(Opt.Seed * 1000003u + uint64_t(C));
    for (std::vector<Image> &Slot : Outs[size_t(C)])
      for (auto &S : Subjects)
        Slot.push_back(makeImage(*S->A, S->W, S->H));
  }
  struct Request {
    size_t I = 0; ///< subject index
    Image *Out = nullptr;
    FrameFuture F;
    int64_t SubmitNs = 0;
  };
  for (int Slice = 0; Slice < Slices; ++Slice) {
    const int64_t Calibration = nowNs();
    recalibrate(FrameSpeed);
    const int64_t T0 = nowNs();
    Tr.addWindow(T0 - Calibration);
    const int64_t Deadline = T0 + int64_t(Opt.Seconds / Slices * 1e9);
    // Per client: raw latency samples per subject, and wait beyond the
    // standalone frame time.
    std::vector<std::vector<std::vector<double>>> Lat(
        size_t(Clients), std::vector<std::vector<double>>(Subjects.size()));
    std::vector<std::vector<double>> Wait(static_cast<size_t>(Clients));
    std::vector<std::thread> Threads;
    for (int C = 0; C < Clients; ++C)
      Threads.emplace_back([&, C] {
        const int64_t Start = nowNs();
        std::mt19937_64 &R = Rngs[size_t(C)];
        std::uniform_int_distribution<size_t> PickApp(0, Subjects.size() - 1);
        std::uniform_int_distribution<int> PickPriority(0, 1);
        std::deque<Request> Pending;
        int64_t Submitted = 0;
        auto Submit = [&] {
          Request Q;
          Q.I = PickApp(R);
          const int Priority = PickPriority(R);
          Subject &S = *Subjects[Q.I];
          Q.Out = &Outs[size_t(C)][size_t(Submitted++ % InFlight)][Q.I];
          Tr.time("submit", Layer::Bench, S.Key, [&] {
            Pipeline Pipe(S.A->Output);
            if (Tr.recording())
              Tr.time("Pipeline::compile", Layer::Lang, S.Key,
                      [&] { Pipe.compile(Tgt); });
            Q.SubmitNs = nowNs();
            Tr.time("Pipeline::realizeAsync", Layer::Lang, S.Key, [&] {
              Q.F = Pipe.realizeAsync(Q.Out->Buf, S.Inputs, Tgt, Priority);
            });
          });
          Pending.push_back(std::move(Q));
        };
        auto Finish = [&] {
          Request &Q = Pending.front();
          Subject &S = *Subjects[Q.I];
          bool Ok = false;
          Tr.time("finish", Layer::Bench, S.Key, [&] {
            Tr.time("FrameFuture::wait", Layer::Runtime, S.Key,
                    [&] { Q.F.wait(); });
            const double Ms = double(nowNs() - Q.SubmitNs) * 1e-6;
            if (Record) {
              Lat[size_t(C)][Q.I].push_back(Ms);
              Wait[size_t(C)].push_back(Ms - S.StandaloneMs);
            }
            if (C == 0 && FaultPending) {
              static_cast<uint8_t *>(Q.Out->Buf.Host)[0] ^= 1;
              FaultPending = false;
            }
            Tr.time("compare_golden", Layer::Check, S.Key,
                    [&] { Ok = sameBytes(*Q.Out, S.Golden); });
          });
          Pending.pop_front();
          count(Ok);
          ++Ops;
        };
        while (true) {
          while (Pending.size() < size_t(InFlight) && nowNs() < Deadline)
            Submit();
          if (Pending.empty())
            break;
          Finish();
        }
        Tr.addWindow(nowNs() - Start);
      });
    for (std::thread &T : Threads)
      T.join();
    if (!Record)
      continue;
    FrameSecondsTimed += double(nowNs() - T0) * 1e-9;
    for (int C = 0; C < Clients; ++C) {
      for (size_t I = 0; I < Subjects.size(); ++I)
        for (double Ms : Lat[size_t(C)][I]) {
          Subjects[I]->FrameMs.push_back(Ms);
          ++FramesTimed;
        }
      ServeWaitMs.insert(ServeWaitMs.end(), Wait[size_t(C)].begin(),
                         Wait[size_t(C)].end());
    }
  }
}

double Run::timedPhase(bool Traced) {
  Tr.setRecording(Traced);
  const bool Record = !Traced; // metrics come from the untraced phase
  if (Record) {
    FaultPending = Opt.InjectFault;
    Before = PhaseCounters::now();
  }
  Ops = 0;
  FrameSpeed.clear();
  const int64_t T0 = nowNs();
  if (Opt.Workload == "serve_mixed")
    timedServe(Record);
  else
    timedRounds(Traced ? Rounds : 0, Record);
  const int64_t Ns = nowNs() - T0;
  if (Record) {
    After = PhaseCounters::now();
    TimedScale = FrameSpeed.scale();
  }
  if (Traced && Opt.Workload != "serve_mixed")
    Tr.addWindow(Ns);
  Tr.setRecording(false);
  return double(Ns) * 1e-9 / double(std::max<int64_t>(Ops, 1));
}

/// Serial versus pooled frame time of each pipeline: the executables were
/// compiled to inherit the pool size, so resizing the pool is all it takes.
void Run::probeScaling() {
  auto Probe = [&](Subject &S) {
    std::vector<double> Ms;
    for (int I = 0; I < ProbeFrames; ++I)
      Ms.push_back(Tr.time("Executable::run", RunLayer, S.Key,
                           [&] { S.Exe->run(S.Params); }));
    return median(Ms);
  };
  std::map<std::string, double> Pooled;
  for (auto &S : Subjects)
    Pooled[S->Key] = Probe(*S);
  setTaskSchedulerThreads(1);
  for (auto &S : Subjects)
    Scaling[S->Key] = Probe(*S) / Pooled[S->Key];
  setTaskSchedulerThreads(Opt.SchedulerThreads);
}

void Run::probeVmStats() {
  for (auto &S : Subjects) {
    ExecutionStats St;
    S->Exe->run(S->Params, &St);
    CompileFacts &CF = Facts[S->Key];
    CF.VmStoresPerPx = double(St.totalStores()) / S->pixels();
    CF.VmPeakAllocKb = double(St.PeakAllocationBytes) / 1024.0;
  }
}

void Run::emitEndToEnd(Outcome &Out) {
  std::vector<double> Median;
  for (auto &S : Subjects)
    Median.push_back(median(S->FrameMs) * TimedScale * 1e6 / S->pixels());
  const double FramesPerS =
      double(FramesTimed) / (FrameSecondsTimed * TimedScale);
  Out.EndToEnd = {
      {"setup_s", median(SetupS), "s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
      {"first_frame_s", median(FirstFrameSumS), "s"},
      {"code_kb", double(CodeBytes) / 1024.0, "KB"},
      {"ns_per_px", geomean(Median), "ns/px"},
      {"frames_per_s", FramesPerS, "frames/s"},
  };
}

/// Every per-layer metric name the benchmark declares, in output order.
/// Metrics of a layer or pipeline the workload does not exercise read 0.
std::vector<std::pair<std::string, std::string>> perLayerNames() {
  std::vector<std::pair<std::string, std::string>> N;
  const std::vector<std::string> &Pipelines = AllApps;
  auto PerKey = [&](const std::string &Prefix, const std::string &Unit,
                    const std::vector<std::string> &Keys) {
    for (const std::string &K : Keys)
      N.push_back({Prefix + "." + K, Unit});
  };
  PerKey("transforms.lower_ms", "ms", Pipelines);
  PerKey("transforms.ir_nodes", "count", Pipelines);
  PerKey("codegen.emit_ms", "ms", Pipelines);
  PerKey("codegen.c_bytes", "bytes", Pipelines);
  PerKey("codegen.cc_ms", "ms", Pipelines);
  N.push_back({"lang.cache_hits", "count"});
  PerKey("runtime.scaling", "ratio", Pipelines);
  PerKey("runtime.frame_ms", "ms", Pipelines);
  PerKey("runtime.frame_ms_tail", "ms", Pipelines);
  PerKey("runtime.frame_samples", "count", Pipelines);
  N.push_back({"runtime.steals_per_frame", "count"});
  N.push_back({"runtime.chunks_per_frame", "count"});
  PerKey("vm.compile_ms", "ms", VmApps);
  PerKey("vm.instrs", "count", VmApps);
  PerKey("vm.stores_per_px", "count", VmApps);
  PerKey("vm.peak_alloc_kb", "KB", VmApps);
  N.push_back({"lang.compile_hit_us", "us"});
  N.push_back({"lang.submit_us", "us"});
  N.push_back({"serve.wait_ms", "ms"});
  N.push_back({"serve.latency_p50_ms", "ms"});
  N.push_back({"serve.latency_tail_ms", "ms"});
  N.push_back({"serve.latency_samples", "count"});
  N.push_back({"runtime.async_jobs", "count"});
  N.push_back({"runtime.peak_queue_depth", "count"});
  N.push_back({"runtime.pool_hit_ratio", "ratio"});
  N.push_back({"runtime.pool_fresh_allocs", "count"});
  PerKey("apps.input_ms", "ms", AllApps);
  PerKey("apps.reference_ms", "ms", AllApps);
  N.push_back({"check.compare_ms", "ms"});
  N.push_back({"trace.overhead_pct", "%"});
  N.push_back({"trace.unaccounted_pct", "%"});
  for (int L = 0; L < NumLayers; ++L)
    N.push_back({std::string(layerName(Layer(L))) + ".self_pct", "%"});
  N.push_back({"bench.host_speed.setup", "ref_s/s"});
  N.push_back({"bench.host_speed.frames", "ref_s/s"});
  return N;
}

void Run::emitPerLayer(Outcome &Out, double UntracedS, double TracedS) {
  std::map<std::string, double> V;
  auto Med = [&](const char *Span, const std::string &Key) {
    return median(Tr.durations(Span, Key));
  };
  for (auto &S : Subjects) {
    const std::string &K = S->Key;
    const CompileFacts &CF = Facts[K];
    V["transforms.lower_ms." + K] = Med("Pipeline::lowerPipeline", K);
    V["transforms.ir_nodes." + K] = double(CF.IrNodes);
    if (Tgt.usesJit()) {
      const double Emit = Med("codegenC", K);
      V["codegen.emit_ms." + K] = Emit;
      V["codegen.c_bytes." + K] = double(CF.CBytes);
      // makeExecutable emits the C again before it runs the host compiler.
      V["codegen.cc_ms." + K] = Med("makeExecutable:jit_c", K) - Emit;
    } else {
      V["vm.compile_ms." + K] = Med("compileToBytecode", K);
      V["vm.instrs." + K] = double(CF.VmInstrs);
      V["vm.stores_per_px." + K] = CF.VmStoresPerPx;
      V["vm.peak_alloc_kb." + K] = CF.VmPeakAllocKb;
    }
    V["runtime.scaling." + K] = Scaling[K];
    V["runtime.frame_ms." + K] = median(S->FrameMs);
    const Tail T = tail(S->FrameMs);
    V["runtime.frame_ms_tail." + K] = T.Value;
    V["runtime.frame_samples." + K] = double(T.Samples);
  }
  for (const std::string &A : AllApps) {
    V["apps.input_ms." + A] = Med("App::MakeInputs", A);
    V["apps.reference_ms." + A] = Med("App::Reference", A);
  }
  std::vector<double> Compare;
  for (auto &S : Subjects)
    for (double Ms : Tr.durations("compare_reference", S->Key))
      Compare.push_back(Ms);
  V["check.compare_ms"] = median(Compare);

  const double Frames = double(std::max<int64_t>(FramesTimed, 1));
  V["lang.cache_hits"] =
      double(After.Compile.CacheHits - Before.Compile.CacheHits);
  V["runtime.steals_per_frame"] =
      double(After.Sched.Steals - Before.Sched.Steals) / Frames;
  V["runtime.chunks_per_frame"] =
      double(After.Sched.ChunksExecuted - Before.Sched.ChunksExecuted) /
      Frames;
  V["runtime.async_jobs"] =
      double(After.Sched.AsyncJobsExecuted - Before.Sched.AsyncJobsExecuted);
  V["runtime.peak_queue_depth"] = double(After.Sched.PeakQueueDepth);
  const double Hits = double(After.Pool.PoolHits - Before.Pool.PoolHits);
  const double Fresh =
      double(After.Pool.FreshAllocations - Before.Pool.FreshAllocations);
  V["runtime.pool_hit_ratio"] = Hits + Fresh > 0 ? Hits / (Hits + Fresh) : 0;
  V["runtime.pool_fresh_allocs"] = Fresh;

  if (Opt.Workload == "serve_mixed") {
    std::vector<double> Compile, Submit, Latency;
    for (auto &S : Subjects) {
      Latency.insert(Latency.end(), S->FrameMs.begin(), S->FrameMs.end());
      for (double Ms : Tr.durations("Pipeline::compile", S->Key))
        Compile.push_back(Ms * 1e3);
      for (double Ms : Tr.durations("Pipeline::realizeAsync", S->Key))
        Submit.push_back(Ms * 1e3);
    }
    V["lang.compile_hit_us"] = median(Compile);
    V["lang.submit_us"] = median(Submit);
    V["serve.wait_ms"] = median(ServeWaitMs);
    V["serve.latency_p50_ms"] = median(Latency);
    const Tail T = tail(Latency);
    V["serve.latency_tail_ms"] = T.Value;
    V["serve.latency_samples"] = double(T.Samples);
  }

  V["trace.overhead_pct"] = 100.0 * (TracedS / UntracedS - 1.0);
  const Tracer::Accounting Acc = Tr.account();
  double Accounted = 0;
  for (int L = 0; L < NumLayers; ++L) {
    const double Pct = 100.0 * Acc.SelfMs[L] / Acc.WindowMs;
    V[std::string(layerName(Layer(L))) + ".self_pct"] = Pct;
    Accounted += Pct;
  }
  V["trace.unaccounted_pct"] = 100.0 - Accounted;
  // The scales the end-to-end times were reported at: a change that makes
  // the host look faster or slower to the benchmark shows here.
  V["bench.host_speed.setup"] = median(SetupScales);
  V["bench.host_speed.frames"] = TimedScale;

  for (const auto &[Name, Unit] : perLayerNames())
    Out.PerLayer.push_back({Name, V.count(Name) ? V[Name] : 0.0, Unit});
}

Outcome Run::go() {
  const std::string &W = Opt.Workload;
  const std::vector<std::string> *Keys = &AllApps;
  int FrameW = 512, FrameH = 384;
  if (W == "steady_frames") {
    FrameW = 2048;
    FrameH = 1536;
  } else if (W == "serve_mixed") {
    Keys = &ServeApps;
    FrameW = 1024;
    FrameH = 768;
  } else {
    Keys = &VmApps;
  }
  if (Opt.Tiny) {
    FrameW = TinyW;
    FrameH = TinyH;
  }
  setTaskSchedulerThreads(Opt.SchedulerThreads);

  // Set-up is traced in the traced run: it is where the compile path runs.
  Tr.setRecording(Opt.Trace);
  for (int Rep = 0, Reps = setupReps(W); Rep < Reps; ++Rep)
    setUp(*Keys, FrameW, FrameH);
  Tr.setRecording(false);

  Outcome Out;
  const double UntracedS = timedPhase(false);
  if (Opt.Trace) {
    const double TracedS = timedPhase(true);
    probeScaling();
    if (W == "vm_frames")
      probeVmStats();
    emitPerLayer(Out, UntracedS, TracedS);
  } else {
    emitEndToEnd(Out);
  }

  Out.Attempted = Attempted;
  Out.Failed = Failed;
  Out.Report.push_back(
      {"failed_frac", double(Out.Failed) / double(Out.Attempted), "ratio"});
  // The per-app figures, at the reference host speed like the end-to-end
  // metrics; host_speed converts them back to this host.
  Out.Report.push_back({"host_speed", TimedScale, "ref_s/s"});
  // Calibrations discarded because the process was not idle (HostSpeed.h).
  Out.Report.push_back({"calibration_discards",
                        double(Speed.discarded() + FrameSpeed.discarded()),
                        "count"});
  // A single compile sets it, so it spreads too widely to bound.
  Out.Report.push_back({"first_frame_max_s", median(FirstFrameMaxS), "s"});
  std::vector<double> Latency;
  for (auto &S : Subjects) {
    const Tail T = tail(S->FrameMs);
    Out.Report.push_back(
        {"ns_per_px." + S->Key,
         median(S->FrameMs) * TimedScale * 1e6 / S->pixels(), "ns/px"});
    Out.Report.push_back(
        {"tail_ns_per_px." + S->Key + " (p" +
             std::to_string(int(T.Percentile)) + " of " +
             std::to_string(T.Samples) + ")",
         T.Value * TimedScale * 1e6 / S->pixels(), "ns/px"});
    Latency.insert(Latency.end(), S->FrameMs.begin(), S->FrameMs.end());
  }
  if (W == "serve_mixed") {
    const Tail T = tail(Latency);
    Out.Report.push_back(
        {"latency_p50_ms", median(Latency) * TimedScale, "ms"});
    Out.Report.push_back({"latency_p" + std::to_string(int(T.Percentile)) +
                              "_ms (of " + std::to_string(T.Samples) + ")",
                          T.Value * TimedScale, "ms"});
  }
  return Out;
}

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {"steady_frames",
                                                 "serve_mixed", "vm_frames"};
  return Names;
}

Outcome perfbench::runWorkload(const Options &O) {
  Outcome Out = Run(O).go();
  // The compile cache and the Function registry are function-local statics
  // destroyed in reverse order of first use; a cache that still holds
  // lowered pipelines at exit may outlive the registry their Functions
  // deregister from.
  Pipeline::clearCompileCache();
  return Out;
}
