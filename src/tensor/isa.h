#ifndef ADAMGNN_TENSOR_ISA_H_
#define ADAMGNN_TENSOR_ISA_H_

#include <string>

// Runtime ISA selection for the kernel backend. The library ships two
// kernel variants compiled in separate translation units (portable scalar
// and AVX2+FMA); at process start the dispatcher probes the CPU and picks
// AVX2+FMA when the CPU has both, else scalar. `ADAMGNN_ISA=scalar|avx2`
// (env) or `--isa` (both CLIs) forces scalar for reproducibility across
// machines.
//
// Determinism contract (see DESIGN.md "Kernel dispatch & determinism"):
//   - At a fixed ISA, every kernel is bitwise-identical across thread
//     counts.
//   - Sparse/reduction kernels (SpMM, SpMM^T, SegmentSum, IndexAddRows) and
//     the elementwise primitives avoid FMA contraction entirely, so they are
//     bitwise-identical across ALL ISAs.
//   - Dense GEMM differs on avx2 only through explicit FMA in the
//     microkernel: avx2 agrees with scalar within an ULP-bounded tolerance
//     (tests/isa_test.cc).

namespace adamgnn::tensor {

enum class Isa : int {
  kScalar = 0,  // portable C++, no vector intrinsics
  kAvx2 = 1,    // 256-bit lanes + FMA in the GEMM microkernel
};

// Short lowercase name ("scalar", "avx2").
const char* IsaName(Isa isa);

// Parses an ISA name; returns false (and leaves *out untouched) on an
// unknown name.
bool ParseIsa(const std::string& name, Isa* out);

// Widest ISA the running CPU supports. kScalar on non-x86 builds.
Isa BestSupportedIsa();

inline bool IsaSupported(Isa isa) {
  return static_cast<int>(isa) <= static_cast<int>(BestSupportedIsa());
}

// The ISA that ADAMGNN_ISA asks for, resolved against this CPU:
// BestSupportedIsa() when the variable is unset or empty, and — with a
// stderr warning — when it names no ISA or one the CPU cannot run.
Isa IsaFromEnv();

// The ISA kernels currently dispatch to. Resolved on first use through
// IsaFromEnv().
Isa ActiveIsa();

// Forces the active ISA process-wide. Returns false (no change) if the CPU
// does not support it — callers forcing an ISA for reproducibility must
// fail loudly rather than silently compute different bits.
bool SetIsa(Isa isa);

// Space-separated CPU feature flags relevant to the backend (e.g.
// "sse2 sse4.1 avx avx2 fma"), for bench JSON provenance.
std::string CpuFeatureString();

}  // namespace adamgnn::tensor

#endif  // ADAMGNN_TENSOR_ISA_H_
