#include "tensor/isa.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "tensor/simd_ops.h"

#if defined(__x86_64__) || defined(__i386__)
#define ADAMGNN_X86 1
#endif

namespace adamgnn::tensor {

namespace {

Isa ProbeBestIsa() {
#if defined(ADAMGNN_X86) && defined(__GNUC__)
  // kAvx2 implies FMA: the AVX2 GEMM microkernel uses _mm256_fmadd_pd, so a
  // CPU with AVX2 but no FMA (none shipping, but CPUID allows it) must fall
  // back to scalar.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Isa::kAvx2;
  }
#endif
  return Isa::kScalar;
}

// -1 = not yet resolved. Relaxed ordering is fine: the value is write-once
// from the CLI/env before kernels run, and a torn first-use race would only
// re-resolve the same env value.
std::atomic<int> g_active_isa{-1};

}  // namespace

Isa IsaFromEnv() {
  const Isa best = BestSupportedIsa();
  const char* env = std::getenv("ADAMGNN_ISA");
  if (env == nullptr || env[0] == '\0') return best;
  Isa requested;
  if (!ParseIsa(env, &requested)) {
    std::fprintf(stderr,
                 "warning: ADAMGNN_ISA=%s is not scalar|avx2; using %s\n",
                 env, IsaName(best));
    return best;
  }
  if (static_cast<int>(requested) > static_cast<int>(best)) {
    std::fprintf(stderr,
                 "warning: ADAMGNN_ISA=%s unsupported on this CPU; using %s\n",
                 env, IsaName(best));
    return best;
  }
  return requested;
}

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool ParseIsa(const std::string& name, Isa* out) {
  if (name == "scalar") {
    *out = Isa::kScalar;
  } else if (name == "avx2") {
    *out = Isa::kAvx2;
  } else {
    return false;
  }
  return true;
}

Isa BestSupportedIsa() {
  static const Isa best = ProbeBestIsa();
  return best;
}

Isa ActiveIsa() {
  int v = g_active_isa.load(std::memory_order_relaxed);
  if (v < 0) {
    v = static_cast<int>(IsaFromEnv());
    g_active_isa.store(v, std::memory_order_relaxed);
  }
  return static_cast<Isa>(v);
}

bool SetIsa(Isa isa) {
  if (!IsaSupported(isa)) return false;
  g_active_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  return true;
}

const SimdOps* GetOps(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return simd::ScalarOps();
    case Isa::kAvx2:
      return simd::Avx2Ops();
  }
  return simd::ScalarOps();
}

std::string CpuFeatureString() {
  std::string s;
#if defined(ADAMGNN_X86) && defined(__GNUC__)
  const char* kFeatures[] = {"sse2", "sse4.1", "avx", "avx2", "fma", "avx512f"};
  for (const char* f : kFeatures) {
    bool has = false;
    if (std::string(f) == "sse2") has = __builtin_cpu_supports("sse2");
    if (std::string(f) == "sse4.1") has = __builtin_cpu_supports("sse4.1");
    if (std::string(f) == "avx") has = __builtin_cpu_supports("avx");
    if (std::string(f) == "avx2") has = __builtin_cpu_supports("avx2");
    if (std::string(f) == "fma") has = __builtin_cpu_supports("fma");
    if (std::string(f) == "avx512f") has = __builtin_cpu_supports("avx512f");
    if (has) {
      if (!s.empty()) s += ' ';
      s += f;
    }
  }
#else
  s = "generic";
#endif
  return s;
}

}  // namespace adamgnn::tensor
