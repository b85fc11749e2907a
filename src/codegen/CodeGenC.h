//===-- codegen/CodeGenC.h - C source backend -------------------*- C++ -*-===//
//
// Part of the halide-pldi13-repro project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits a lowered pipeline as C99 source (DESIGN.md substitution 1: the
/// host C compiler stands in for the paper's LLVM backend). Vector IR is
/// emitted through fixed-width vector structs with per-lane helper
/// functions that the host compiler re-vectorizes;
/// dense stride-1 ramp loads/stores become contiguous memcpys, strided and
/// gathered accesses are classified exactly as in paper section 4.5.
/// Parallel loops compile to closure structs plus a body function handed to
/// the runtime's work-stealing task scheduler (section 4.6); GPU block loops
/// compile to simulated-device kernel launches. The source comes in parts
/// (a shared header, the entry function and the body functions) so the
/// JIT can compile the bodies in parallel; joined, the parts are one
/// self-contained translation unit.
///
/// The generated entry point is:
///   int32_t <name>(const hl_vtable *rt, void **bufs,
///                  const int64_t *iargs, const double *fargs);
/// with buffers and metadata packed by codegen/Jit.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef HALIDE_CODEGEN_CODEGENC_H
#define HALIDE_CODEGEN_CODEGENC_H

#include "transforms/Lower.h"

#include <string>
#include <vector>

namespace halide {

/// The C source of a pipeline in parts that compile as separate
/// translation units. Header is what every unit needs: the includes, the
/// runtime vtable, vector typedefs, helpers, every closure typedef and a
/// hidden-visibility prototype of every body. Entry is the entry function
/// and Bodies holds one parallel-loop or GPU-kernel body function each, so
/// Header + Entry and Header + any subset of Bodies each compile alone.
struct CSourceParts {
  std::string Header;
  std::string Entry;
  std::vector<std::string> Bodies;

  /// The parts as one self-contained translation unit.
  std::string joined() const;
};

/// Renders the C source for \p P in parts. \p FnName must be a valid C
/// identifier.
CSourceParts codegenCParts(const LoweredPipeline &P,
                           const std::string &FnName);

/// Renders the complete C source for \p P as one translation unit
/// (codegenCParts(P, FnName).joined()).
std::string codegenC(const LoweredPipeline &P, const std::string &FnName);

/// The number of int64 metadata slots occupied by one buffer argument
/// (min/extent/stride for each of MaxBufferDims dimensions).
int bufferMetadataSlots();

} // namespace halide

#endif // HALIDE_CODEGEN_CODEGENC_H
