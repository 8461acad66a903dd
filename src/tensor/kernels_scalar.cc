// Scalar (portable C++) kernel variant. See simd_ops.h for the contract.
// Compiled with the project's default flags — no vector intrinsics — so it
// runs on any CPU and serves as the bit reference: avx2 matches it exactly
// outside the FMA GEMM microkernel.

#include "tensor/simd_ops.h"
#include "tensor/tuning.h"

namespace adamgnn::tensor::simd {

namespace {

inline void Axpy(double* y, const double* x, size_t d, double w) {
  for (size_t j = 0; j < d; ++j) y[j] += w * x[j];
}

inline void AxpyStore(double* y, const double* x, size_t d, double w) {
  for (size_t j = 0; j < d; ++j) y[j] = 0.0 + w * x[j];
}

inline void VAdd(double* y, const double* x, size_t d) {
  for (size_t j = 0; j < d; ++j) y[j] += x[j];
}

// 4x8 tile with one scalar accumulator per element, ascending p.
inline void MicroKernel4x8(const double* ap, const double* bp, size_t kc,
                           double* c0, double* c1, double* c2, double* c3,
                           bool accumulate) {
  double s0[8], s1[8], s2[8], s3[8];
  for (int u = 0; u < 8; ++u) {
    s0[u] = accumulate ? c0[u] : 0.0;
    s1[u] = accumulate ? c1[u] : 0.0;
    s2[u] = accumulate ? c2[u] : 0.0;
    s3[u] = accumulate ? c3[u] : 0.0;
  }
  for (size_t p = 0; p < kc; ++p) {
    const double* b = bp + p * 8;
    const double x0 = ap[p * 4], x1 = ap[p * 4 + 1];
    const double x2 = ap[p * 4 + 2], x3 = ap[p * 4 + 3];
    for (int u = 0; u < 8; ++u) {
      s0[u] += x0 * b[u];
      s1[u] += x1 * b[u];
      s2[u] += x2 * b[u];
      s3[u] += x3 * b[u];
    }
  }
  for (int u = 0; u < 8; ++u) {
    c0[u] = s0[u];
    c1[u] = s1[u];
    c2[u] = s2[u];
    c3[u] = s3[u];
  }
}

#include "tensor/kernels_isa_body.inc"

}  // namespace

const SimdOps* ScalarOps() {
  static const SimdOps ops = {Isa::kScalar, "scalar", &GemmRowRange,
                              &GatherRowRange,  &Axpy,  &AxpyStore,
                              &VAdd};
  return &ops;
}

}  // namespace adamgnn::tensor::simd
