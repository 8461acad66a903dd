#ifndef ADAMGNN_TENSOR_SIMD_OPS_H_
#define ADAMGNN_TENSOR_SIMD_OPS_H_

#include <cstddef>

#include "tensor/isa.h"

// The per-ISA kernel vtable. Each ISA variant (scalar / AVX2+FMA) lives in
// its own translation unit (kernels_scalar.cc / kernels_avx2.cc) compiled
// with per-TU flags; every variant's symbols sit
// in an anonymous namespace so nothing compiled with, say, -mavx2 can ever
// be ODR-merged into a path reachable on a non-AVX2 host. The only exported
// surface per TU is its `const SimdOps*` getter below.
//
// Bit contract (see isa.h): axpy / axpy_store / vadd / gather_rows are
// element-wise lane operations with NO fused multiply-add at any ISA, so
// they produce identical bits across scalar/avx2 AND identical bits to
// a plain serial C++ loop. gemm_rows uses explicit FMA on avx2 only.

namespace adamgnn::tensor {

// One GEMM call: C[i0:i1, :] = A' * B' where A'(i, p) =
// a[i * a_row_stride + p * a_elem_stride] (covers MatMul, MatMulTransA and
// MatMulTransB with one kernel) and B' is available twice: `packed` in
// NR=8 panel-major layout (panel p at packed[p * k * 8], row kk at offset
// kk * 8) for the vector microkernel, and raw `b` with strides for the
// scalar column tail (n % 8 columns).
struct GemmArgs {
  const double* a;
  size_t a_row_stride;
  size_t a_elem_stride;
  const double* b;
  size_t b_row_stride;  // stride along k in the effective B'
  size_t b_col_stride;  // stride along j in the effective B'
  const double* packed;
  size_t k;
  size_t n;
  double* c;
  size_t c_row_stride;  // == n
  // Caller-provided packing scratch for A panels, capacity >=
  // tuning::kGemmKc * round_up_4(i1 - i0) doubles (Workspace-backed).
  double* apack;
};

// One gather call: for each output row r in [r0, r1), fold the row's
// source contributions in ascending entry order:
//   for e in [offsets[r], offsets[r+1]):
//     p   = perm ? perm[e] : e          // entry id indirection
//     src = src_rows ? src_rows[p] : p  // source row in x
//     w_e = w ? w[p] : 1.0
//     out[r, :] (+)= w_e * x[src, :]
// With overwrite=true `out` arrives uninitialized: the first contribution
// stores `0.0 + w_e * x[src, j]` (bitwise what a zero-initialized
// accumulation produces, including -0.0 normalization) and empty rows are
// zero-filled. With overwrite=false contributions accumulate into the
// existing `out` values.
struct GatherSpec {
  const size_t* offsets;
  const size_t* perm;      // nullable
  const size_t* src_rows;  // nullable
  const double* w;         // nullable
  const double* x;
  size_t d;  // row width of x and out
  double* out;
  bool overwrite;
};

struct SimdOps {
  Isa isa;
  const char* name;
  void (*gemm_rows)(const GemmArgs& args, size_t i0, size_t i1);
  void (*gather_rows)(const GatherSpec& spec, size_t r0, size_t r1);
  void (*axpy)(double* y, const double* x, size_t d, double w);  // y += w*x
  void (*axpy_store)(double* y, const double* x, size_t d,
                     double w);                           // y = 0.0 + w*x
  void (*vadd)(double* y, const double* x, size_t d);     // y += x
};

namespace simd {
// One exported getter per ISA translation unit. The avx2 getter always
// exists; on a toolchain without the matching intrinsics it points at
// portable fallbacks with the same fold order (runtime dispatch never
// selects it there because BestSupportedIsa() probes the CPU).
const SimdOps* ScalarOps();
const SimdOps* Avx2Ops();
}  // namespace simd

// The vtable for a given ISA / the currently active ISA.
const SimdOps* GetOps(Isa isa);
inline const SimdOps* ActiveOps() { return GetOps(ActiveIsa()); }

}  // namespace adamgnn::tensor

#endif  // ADAMGNN_TENSOR_SIMD_OPS_H_
