//===-- codegen/Jit.h - Compile-and-load native pipelines -------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JIT execution of lowered pipelines: the C backend's output is compiled
/// with the host C compiler (one process per translation unit, in
/// parallel) into a shared object and loaded with dlopen
/// (DESIGN.md substitution 1 for the paper's LLVM JIT). The entry point
/// receives the runtime vtable, so the shared object is self-contained.
/// CompiledPipeline implements the common Executable interface; a GpuSim
/// Target shares the same native path but reports the simulated device's
/// launch statistics through ExecutionStats.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_CODEGEN_JIT_H
#define HALIDE_CODEGEN_JIT_H

#include "codegen/Executable.h"

#include <memory>
#include <string>

namespace halide {

/// A natively compiled pipeline, ready to run.
class CompiledPipeline final : public Executable {
public:
  /// Executes the pipeline; all buffers and scalars must be bound in
  /// \p Params. Returns the pipeline's exit code (0 on success). On a
  /// GpuSim target, \p Stats receives the run's kernel-launch counters.
  int run(const ParamBindings &Params,
          ExecutionStats *Stats = nullptr) const override;

  /// The generated C source as one translation unit (for inspection and
  /// tests), whatever units it was compiled in.
  const std::string &source() const override { return Source; }

private:
  friend std::shared_ptr<CompiledPipeline> jitCompile(const LoweredPipeline &,
                                                      const Target &);

  CompiledPipeline(LoweredPipeline P, Target T)
      : Executable(std::move(P), std::move(T)) {}

  using EntryPoint = int32_t (*)(const RuntimeVTable *, void **,
                                 const int64_t *, const double *);

  std::shared_ptr<void> Handle; // dlopen handle, closed on destruction
  EntryPoint Fn = nullptr;
  std::string Source;
};

/// Emits C for \p P, compiles it with the host compiler (appending
/// \p T.JitFlags to every command line), and loads it. A pipeline with
/// parallel or GPU bodies is compiled as several translation units at once
/// -- the entry function, and the bodies split into at most one unit per
/// core -- then linked; one without compiles as a single unit. Aborts
/// (user_error) if the host compiler fails, naming the failing unit's
/// source and log, which are kept on disk.
std::shared_ptr<CompiledPipeline> jitCompile(const LoweredPipeline &P,
                                             const Target &T = Target::jit());

/// Process-wide totals over every jitCompile (metricsSnapshot's jit.*).
struct JitCounters {
  /// Wall milliseconds from the first host-compiler start to the end of
  /// the link.
  int64_t HostCcMs = 0;
  /// Bytes of emitted C (CompiledPipeline::source()).
  int64_t CBytes = 0;
};
JitCounters jitCounters();

} // namespace halide

#endif // HALIDE_CODEGEN_JIT_H
