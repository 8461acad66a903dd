// AVX2+FMA (256-bit) kernel variant. See simd_ops.h for the contract.
//
// This TU — and only this TU — is compiled with `-mavx2 -mfma
// -ffp-contract=off` (see src/CMakeLists.txt). `-ffp-contract=off` matters:
// the shared body fragments and the axpy/vadd lanes below are written as
// explicit multiply-then-add, and letting the compiler contract them into
// FMA would silently change bits relative to the scalar variant. The ONLY
// fused operations are the explicit _mm256_fmadd_pd calls in the GEMM
// microkernel, which is why dense GEMM is the one kernel where avx2 output
// differs (within an ULP-bounded tolerance) from scalar.
//
// On a toolchain without AVX2 support the portable fallbacks compile
// instead; the runtime dispatcher never selects this variant there.

#include "tensor/simd_ops.h"
#include "tensor/tuning.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define ADAMGNN_HAVE_AVX2_BODY 1
#endif

namespace adamgnn::tensor::simd {

namespace {

#if defined(ADAMGNN_HAVE_AVX2_BODY)

inline void Axpy(double* y, const double* x, size_t d, double w) {
  const __m256d vw = _mm256_set1_pd(w);
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    const __m256d p = _mm256_mul_pd(vw, _mm256_loadu_pd(x + j));
    _mm256_storeu_pd(y + j, _mm256_add_pd(_mm256_loadu_pd(y + j), p));
  }
  for (; j < d; ++j) y[j] += w * x[j];
}

inline void AxpyStore(double* y, const double* x, size_t d, double w) {
  const __m256d vw = _mm256_set1_pd(w);
  const __m256d zero = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    const __m256d p = _mm256_mul_pd(vw, _mm256_loadu_pd(x + j));
    _mm256_storeu_pd(y + j, _mm256_add_pd(zero, p));
  }
  for (; j < d; ++j) y[j] = 0.0 + w * x[j];
}

inline void VAdd(double* y, const double* x, size_t d) {
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    _mm256_storeu_pd(
        y + j, _mm256_add_pd(_mm256_loadu_pd(y + j), _mm256_loadu_pd(x + j)));
  }
  for (; j < d; ++j) y[j] += x[j];
}

// 4 rows x 8 columns: 8 ymm accumulators (4 rows x 2 halves), one broadcast
// and two explicit FMAs per (row, k) step.
inline void MicroKernel4x8(const double* ap, const double* bp, size_t kc,
                           double* c0, double* c1, double* c2, double* c3,
                           bool accumulate) {
  __m256d s00, s01, s10, s11, s20, s21, s30, s31;
  if (accumulate) {
    s00 = _mm256_loadu_pd(c0);
    s01 = _mm256_loadu_pd(c0 + 4);
    s10 = _mm256_loadu_pd(c1);
    s11 = _mm256_loadu_pd(c1 + 4);
    s20 = _mm256_loadu_pd(c2);
    s21 = _mm256_loadu_pd(c2 + 4);
    s30 = _mm256_loadu_pd(c3);
    s31 = _mm256_loadu_pd(c3 + 4);
  } else {
    s00 = s01 = _mm256_setzero_pd();
    s10 = s11 = _mm256_setzero_pd();
    s20 = s21 = _mm256_setzero_pd();
    s30 = s31 = _mm256_setzero_pd();
  }
  for (size_t p = 0; p < kc; ++p) {
    const double* b = bp + p * 8;
    const __m256d b0 = _mm256_loadu_pd(b);
    const __m256d b1 = _mm256_loadu_pd(b + 4);
    __m256d x = _mm256_broadcast_sd(ap + p * 4);
    s00 = _mm256_fmadd_pd(x, b0, s00);
    s01 = _mm256_fmadd_pd(x, b1, s01);
    x = _mm256_broadcast_sd(ap + p * 4 + 1);
    s10 = _mm256_fmadd_pd(x, b0, s10);
    s11 = _mm256_fmadd_pd(x, b1, s11);
    x = _mm256_broadcast_sd(ap + p * 4 + 2);
    s20 = _mm256_fmadd_pd(x, b0, s20);
    s21 = _mm256_fmadd_pd(x, b1, s21);
    x = _mm256_broadcast_sd(ap + p * 4 + 3);
    s30 = _mm256_fmadd_pd(x, b0, s30);
    s31 = _mm256_fmadd_pd(x, b1, s31);
  }
  _mm256_storeu_pd(c0, s00);
  _mm256_storeu_pd(c0 + 4, s01);
  _mm256_storeu_pd(c1, s10);
  _mm256_storeu_pd(c1 + 4, s11);
  _mm256_storeu_pd(c2, s20);
  _mm256_storeu_pd(c2 + 4, s21);
  _mm256_storeu_pd(c3, s30);
  _mm256_storeu_pd(c3 + 4, s31);
}

#else  // !ADAMGNN_HAVE_AVX2_BODY: portable fallbacks (never dispatched to).

inline void Axpy(double* y, const double* x, size_t d, double w) {
  for (size_t j = 0; j < d; ++j) y[j] += w * x[j];
}

inline void AxpyStore(double* y, const double* x, size_t d, double w) {
  for (size_t j = 0; j < d; ++j) y[j] = 0.0 + w * x[j];
}

inline void VAdd(double* y, const double* x, size_t d) {
  for (size_t j = 0; j < d; ++j) y[j] += x[j];
}

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

#endif  // ADAMGNN_HAVE_AVX2_BODY

#include "tensor/kernels_isa_body.inc"

}  // namespace

const SimdOps* Avx2Ops() {
  static const SimdOps ops = {Isa::kAvx2, "avx2", &GemmRowRange,
                              &GatherRowRange, &Axpy, &AxpyStore,
                              &VAdd};
  return &ops;
}

}  // namespace adamgnn::tensor::simd
