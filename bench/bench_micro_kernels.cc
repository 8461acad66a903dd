// Micro-benchmarks (google-benchmark) for the kernels on AdamGNN's critical
// path: dense GEMM, sparse SpMM, segment softmax, λ-hop ego-network
// enumeration, one full adaptive-pooling step, the hyper-graph build
// S_kᵀ Â S_k plus its GCN normalisation on its own, and the graph
// fingerprint that keys the serving result cache.
//
// Before the google-benchmark suite runs, this binary times the parallel
// kernel backend against naive single-threaded reference loops and writes
// the results to BENCH_kernels.json (override with --json=PATH). The same
// pass asserts that every kernel is bitwise-identical to its threads==1
// result at each tested thread count, cross-checks backend-vs-naive outputs
// (bitwise for the FMA-free sparse/segment kernels, to tolerance for dense
// GEMM where avx2 uses FMA), times the GEMM at each supported ISA, and —
// outside --smoke — exits nonzero if any gated kernel fails to beat its
// naive baseline or the avx2 GEMM fails its 2.0x-over-scalar gate.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/segment_ops.h"
#include "autograd/sparse_ops.h"
#include "bench_env.h"
#include "core/assignment.h"
#include "core/ego_selection.h"
#include "core/fitness.h"
#include "core/graph_plan.h"
#include "data/node_datasets.h"
#include "data/sbm.h"
#include "graph/builder.h"
#include "tensor/isa.h"
#include "tensor/kernels.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace adamgnn {
namespace {

void BM_DenseMatMul(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  util::Rng rng(1);
  tensor::Matrix a = tensor::Matrix::Gaussian(n, n, 1.0, &rng);
  tensor::Matrix b = tensor::Matrix::Gaussian(n, n, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n * n));
}
BENCHMARK(BM_DenseMatMul)->Arg(64)->Arg(128)->Arg(256);

graph::SparseMatrix RandomSparse(size_t n, size_t nnz_per_row,
                                 util::Rng* rng) {
  std::vector<graph::Triplet> t;
  for (size_t r = 0; r < n; ++r) {
    for (size_t k = 0; k < nnz_per_row; ++k) {
      t.push_back({r, rng->NextUint64(n), rng->NextDouble() + 0.1});
    }
  }
  return graph::SparseMatrix::FromTriplets(n, n, std::move(t));
}

void BM_SpMM(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  util::Rng rng(2);
  graph::SparseMatrix s = RandomSparse(n, 8, &rng);
  tensor::Matrix x = tensor::Matrix::Gaussian(n, 64, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.MultiplyDense(x));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(s.nnz() * 64));
}
BENCHMARK(BM_SpMM)->Arg(1000)->Arg(4000);

void BM_SegmentSoftmax(benchmark::State& state) {
  const auto m = static_cast<size_t>(state.range(0));
  util::Rng rng(3);
  autograd::Variable scores = autograd::Variable::Constant(
      tensor::Matrix::Gaussian(m, 1, 1.0, &rng));
  const size_t num_segments = m / 8 + 1;
  std::vector<size_t> seg(m);
  for (auto& s : seg) s = rng.NextUint64(num_segments);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        autograd::SegmentSoftmax(scores, seg, num_segments));
  }
}
BENCHMARK(BM_SegmentSoftmax)->Arg(10000)->Arg(50000);

void BM_EgoNetworkEnumeration(benchmark::State& state) {
  data::NodeDataset d =
      data::MakeNodeDataset(data::NodeDatasetId::kCora, 1, 0.25)
          .ValueOrDie();
  auto adj = core::AdjacencyLists(d.graph);
  const int lambda = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::EgoPairs::Build(adj, lambda));
  }
}
BENCHMARK(BM_EgoNetworkEnumeration)->Arg(1)->Arg(2);

void BM_AdaptivePoolingStep(benchmark::State& state) {
  // One full AGP step: score -> select -> assemble S -> coarsen adjacency.
  data::NodeDataset d =
      data::MakeNodeDataset(data::NodeDatasetId::kCora, 1, 0.25)
          .ValueOrDie();
  auto adj_lists = core::AdjacencyLists(d.graph);
  core::EgoPairs pairs = core::EgoPairs::Build(adj_lists, 1);
  util::Rng rng(4);
  core::FitnessScorer scorer(32, &rng);
  autograd::Variable h = autograd::Variable::Constant(
      tensor::Matrix::Gaussian(d.graph.num_nodes(), 32, 1.0, &rng));
  graph::SparseMatrix prev = graph::SparseMatrix::Adjacency(d.graph);
  for (auto _ : state) {
    core::FitnessScorer::Scores scores = scorer.Score(pairs, h);
    core::Selection sel = core::SelectEgoNetworks(scores.ego_phi.value(),
                                                  adj_lists, pairs);
    core::Assignment asg = core::BuildAssignment(pairs, sel, scores);
    benchmark::DoNotOptimize(core::NextAdjacency(prev, asg));
  }
}
BENCHMARK(BM_AdaptivePoolingStep);

void BM_NextAdjacency(benchmark::State& state) {
  // The hyper-graph stage alone: A_1 = S_1ᵀ (A + I) S_1 and its GCN
  // normalisation, for a fixed level-0 assignment on a 5k-node degree-16
  // SBM (the perfbench train_sbm graph size).
  const size_t n = 5000;
  util::Rng rng(5);
  data::SbmConfig sbm;
  sbm.num_nodes = n;
  sbm.num_classes = 4;
  sbm.communities_per_class = static_cast<int>(n / (4 * 50));
  sbm.target_edges = n * 16 / 2;
  data::SbmSample sample = data::SampleSbm(sbm, &rng).ValueOrDie();
  graph::GraphBuilder builder(n);
  for (const auto& [u, v] : sample.edges) builder.AddEdge(u, v).CheckOK();
  const graph::Graph g = std::move(builder).Build().ValueOrDie();
  auto adj_lists = core::AdjacencyLists(g);
  core::EgoPairs pairs = core::EgoPairs::Build(adj_lists, 1);
  core::FitnessScorer scorer(32, &rng);
  autograd::Variable h = autograd::Variable::Constant(
      tensor::Matrix::Gaussian(n, 32, 1.0, &rng));
  core::FitnessScorer::Scores scores = scorer.Score(pairs, h);
  core::Selection sel =
      core::SelectEgoNetworks(scores.ego_phi.value(), adj_lists, pairs);
  core::Assignment asg = core::BuildAssignment(pairs, sel, scores);
  const graph::SparseMatrix prev = graph::SparseMatrix::Adjacency(g);
  size_t nnz = 0;
  for (auto _ : state) {
    graph::SparseMatrix next = core::NextAdjacency(prev, asg);
    nnz = next.nnz();
    benchmark::DoNotOptimize(next.Normalized());
  }
  state.counters["hyper_nodes"] =
      static_cast<double>(sel.num_hyper_nodes());
  state.counters["adjacency_nnz"] = static_cast<double>(nnz);
}
BENCHMARK(BM_NextAdjacency)->Unit(benchmark::kMillisecond);

void BM_GraphFingerprint(benchmark::State& state) {
  // GraphPlan::Fingerprint on a D&D-sized graph (~300 nodes x 89 features,
  // ~750 edges): the whole cost of a serving cache hit but the lookup.
  const size_t n = 300, d = 89;
  util::Rng rng(6);
  graph::GraphBuilder builder(n);
  for (size_t i = 0; i < n; ++i) {
    builder
        .AddEdge(static_cast<graph::NodeId>(i),
                 static_cast<graph::NodeId>((i + 1) % n))
        .CheckOK();
  }
  for (size_t c = 0; c < 450; ++c) {
    const size_t u = static_cast<size_t>(rng.NextUint64(n));
    const size_t v = (u + 2 + static_cast<size_t>(rng.NextUint64(n - 3))) % n;
    builder
        .AddEdge(static_cast<graph::NodeId>(u), static_cast<graph::NodeId>(v))
        .CheckOK();
  }
  builder.SetFeatures(tensor::Matrix::Gaussian(n, d, 1.0, &rng)).CheckOK();
  const graph::Graph g = std::move(builder).Build().ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::GraphPlan::Fingerprint(g));
  }
  state.counters["edges"] = static_cast<double>(g.num_edges());
}
BENCHMARK(BM_GraphFingerprint)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Serial-vs-parallel comparison pass.
//
// "naive" is the straightforward single-threaded triple loop the library
// shipped before the kernel backend was introduced; "serial" is the backend
// pinned to one thread; "parallel" is the backend at four threads.
// ---------------------------------------------------------------------------

tensor::Matrix NaiveMatMul(const tensor::Matrix& a, const tensor::Matrix& b) {
  tensor::Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t p = 0; p < a.cols(); ++p) {
      const double av = a(i, p);
      const double* br = b.row(p);
      double* cr = c.row(i);
      for (size_t j = 0; j < b.cols(); ++j) cr[j] += av * br[j];
    }
  }
  return c;
}

tensor::Matrix NaiveMatMulTransA(const tensor::Matrix& a,
                                 const tensor::Matrix& b) {
  tensor::Matrix c(a.cols(), b.cols());
  for (size_t p = 0; p < a.rows(); ++p) {
    const double* ar = a.row(p);
    const double* br = b.row(p);
    for (size_t i = 0; i < a.cols(); ++i) {
      double* cr = c.row(i);
      const double av = ar[i];
      for (size_t j = 0; j < b.cols(); ++j) cr[j] += av * br[j];
    }
  }
  return c;
}

tensor::Matrix NaiveMatMulTransB(const tensor::Matrix& a,
                                 const tensor::Matrix& b) {
  tensor::Matrix c(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* ar = a.row(i);
    for (size_t j = 0; j < b.rows(); ++j) {
      const double* br = b.row(j);
      double s = 0.0;
      for (size_t p = 0; p < a.cols(); ++p) s += ar[p] * br[p];
      c(i, j) = s;
    }
  }
  return c;
}

tensor::Matrix NaiveSoftmaxRows(const tensor::Matrix& a) {
  tensor::Matrix out(a.rows(), a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    double m = a(i, 0);
    for (size_t j = 1; j < a.cols(); ++j) m = std::max(m, a(i, j));
    double z = 0.0;
    for (size_t j = 0; j < a.cols(); ++j) {
      out(i, j) = std::exp(a(i, j) - m);
      z += out(i, j);
    }
    for (size_t j = 0; j < a.cols(); ++j) out(i, j) /= z;
  }
  return out;
}

tensor::Matrix NaiveSegmentSum(const tensor::Matrix& a,
                               const std::vector<size_t>& seg,
                               size_t num_segments) {
  tensor::Matrix out(num_segments, a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    double* orow = out.row(seg[i]);
    const double* ar = a.row(i);
    for (size_t j = 0; j < a.cols(); ++j) orow[j] += ar[j];
  }
  return out;
}

// Plain scalar CSR loops — the fold order matches the backend's ascending
// per-entry fold, and this TU builds without FMA, so the backend must
// reproduce these bit for bit at every ISA.
tensor::Matrix NaiveSpmm(const graph::SparseMatrix& s,
                         const tensor::Matrix& x) {
  tensor::Matrix out(s.rows(), x.cols());
  const auto& offsets = s.row_offsets();
  const auto& cols = s.col_indices();
  const auto& vals = s.values();
  for (size_t r = 0; r < s.rows(); ++r) {
    double* orow = out.row(r);
    for (size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
      const double v = vals[k];
      const double* xr = x.row(cols[k]);
      for (size_t j = 0; j < x.cols(); ++j) orow[j] += v * xr[j];
    }
  }
  return out;
}

tensor::Matrix NaiveSpmmTranspose(const graph::SparseMatrix& s,
                                  const tensor::Matrix& x) {
  tensor::Matrix out(s.cols(), x.cols());
  const auto& offsets = s.row_offsets();
  const auto& cols = s.col_indices();
  const auto& vals = s.values();
  for (size_t r = 0; r < s.rows(); ++r) {
    const double* xr = x.row(r);
    for (size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
      const double v = vals[k];
      double* orow = out.row(cols[k]);
      for (size_t j = 0; j < x.cols(); ++j) orow[j] += v * xr[j];
    }
  }
  return out;
}

/// How a kernel's backend output is required to relate to its naive
/// reference. The FMA-free sparse/segment kernels share the naive loops'
/// exact fold order, so they must match bitwise at every ISA; dense GEMM
/// legitimately differs on avx2 (explicit FMA), and SoftmaxRows is checked
/// to tolerance.
enum class CrossCheck { kBitwise, kTolerance };

struct KernelReport {
  std::string name;
  std::string shape;
  double naive_ms = 0.0;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  bool bitwise_identical = true;  // backend vs itself across thread counts
  bool cross_check_ok = true;     // backend vs naive (per CrossCheck mode)
  const char* cross_check = "bitwise";
  double max_rel_diff = 0.0;      // backend vs naive, max over elements
  // Kernels where the backend is a genuinely different algorithm are gated:
  // the full-size run exits nonzero if best(serial, parallel) fails to beat
  // the naive baseline. SoftmaxRows is reported but ungated — both sides
  // are the same scalar exp() loop and parity is the expectation.
  bool gated = true;
};

constexpr int kParallelThreads = 4;
constexpr int kTestedThreads[] = {1, 2, 4, 7};

// --smoke shrinks every shape so tools/check.sh can compile-and-run this
// binary in seconds; the bitwise checks still execute on the small shapes.
bool g_smoke = false;
int kReps = 5;
size_t kDenseRows = 2048;
size_t kSpmmNodes = 20000;
size_t kSoftmaxRows = 20000;
size_t kSegmentRows = 100000;

void ApplySmokeSizes() {
  kReps = 2;
  kDenseRows = 256;
  kSpmmNodes = 2500;
  kSoftmaxRows = 2000;
  kSegmentRows = 10000;
}

std::string SpmmShape(const char* transpose_suffix) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s%zux%zu%s(nnz~%zuk)*%zux64",
                *transpose_suffix != '\0' ? "(" : "", kSpmmNodes, kSpmmNodes,
                *transpose_suffix != '\0' ? ")^T" : "", kSpmmNodes * 8 / 1000,
                kSpmmNodes);
  return buf;
}

template <typename Fn>
double BestOfMs(int reps, const Fn& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    util::Stopwatch watch;
    benchmark::DoNotOptimize(fn());
    best = std::min(best, watch.ElapsedSeconds() * 1e3);
  }
  return best;
}

double MaxRelDiff(const tensor::Matrix& a, const tensor::Matrix& b) {
  double worst = 0.0;
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      worst = std::max(worst, std::abs(a(r, c) - b(r, c)) /
                                  std::max(1.0, std::abs(a(r, c))));
    }
  }
  return worst;
}

template <typename NaiveFn, typename BackendFn>
KernelReport CompareKernel(const std::string& name, const std::string& shape,
                           int reps, const NaiveFn& naive,
                           const BackendFn& backend,
                           CrossCheck cross = CrossCheck::kBitwise) {
  KernelReport r;
  r.name = name;
  r.shape = shape;
  r.naive_ms = BestOfMs(reps, naive);
  const tensor::Matrix naive_out = naive();
  util::SetNumThreads(1);
  r.serial_ms = BestOfMs(reps, backend);
  const tensor::Matrix reference = backend();
  for (int t : kTestedThreads) {
    util::SetNumThreads(t);
    if (!(backend() == reference)) {
      r.bitwise_identical = false;
      std::fprintf(stderr, "FAIL %s: threads=%d differs from threads=1\n",
                   name.c_str(), t);
    }
  }
  r.max_rel_diff = MaxRelDiff(naive_out, reference);
  if (cross == CrossCheck::kBitwise) {
    r.cross_check = "bitwise";
    r.cross_check_ok = naive_out == reference;
  } else {
    r.cross_check = "tolerance";
    r.cross_check_ok = r.max_rel_diff <= 1e-9;
  }
  if (!r.cross_check_ok) {
    std::fprintf(stderr,
                 "FAIL %s: backend differs from naive reference (%s check, "
                 "max rel diff %.3g)\n",
                 name.c_str(), r.cross_check, r.max_rel_diff);
  }
  util::SetNumThreads(kParallelThreads);
  r.parallel_ms = BestOfMs(reps, backend);
  util::SetNumThreads(0);  // restore the env/hardware default
  return r;
}

std::vector<KernelReport> RunKernelComparison() {
  std::vector<KernelReport> reports;
  util::Rng rng(7);

  // Dense GEMM matches the naive triple loop bitwise on scalar (same
  // ascending-k fold); on avx2 the microkernel's explicit FMA makes the
  // comparison a tolerance check.
  const CrossCheck gemm_cross = tensor::ActiveIsa() == tensor::Isa::kAvx2
                                    ? CrossCheck::kTolerance
                                    : CrossCheck::kBitwise;
  auto dim2 = [](size_t a, size_t b) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%zux%zu", a, b);
    return std::string(buf);
  };
  {
    // The acceptance shape: (2048,256) x (256,256).
    tensor::Matrix a = tensor::Matrix::Gaussian(kDenseRows, 256, 1.0, &rng);
    tensor::Matrix b = tensor::Matrix::Gaussian(256, 256, 1.0, &rng);
    reports.push_back(CompareKernel(
        "MatMul", dim2(kDenseRows, 256) + "*256x256", kReps,
        [&] { return NaiveMatMul(a, b); },
        [&] { return tensor::MatMul(a, b); }, gemm_cross));
  }
  {
    tensor::Matrix a = tensor::Matrix::Gaussian(256, kDenseRows, 1.0, &rng);
    tensor::Matrix b = tensor::Matrix::Gaussian(256, 256, 1.0, &rng);
    reports.push_back(CompareKernel(
        "MatMulTransA", "(" + dim2(256, kDenseRows) + ")^T*256x256", kReps,
        [&] { return NaiveMatMulTransA(a, b); },
        [&] { return tensor::MatMulTransA(a, b); }, gemm_cross));
  }
  {
    tensor::Matrix a = tensor::Matrix::Gaussian(kDenseRows, 256, 1.0, &rng);
    tensor::Matrix b = tensor::Matrix::Gaussian(256, 256, 1.0, &rng);
    reports.push_back(CompareKernel(
        "MatMulTransB", dim2(kDenseRows, 256) + "*(256x256)^T", kReps,
        [&] { return NaiveMatMulTransB(a, b); },
        [&] { return tensor::MatMulTransB(a, b); }, gemm_cross));
  }
  {
    tensor::Matrix a = tensor::Matrix::Gaussian(kSoftmaxRows, 128, 1.0, &rng);
    KernelReport softmax = CompareKernel(
        "SoftmaxRows", dim2(kSoftmaxRows, 128), kReps,
        [&] { return NaiveSoftmaxRows(a); },
        [&] { return tensor::SoftmaxRows(a); }, CrossCheck::kTolerance);
    softmax.gated = false;  // same scalar exp() loop both sides
    reports.push_back(softmax);
  }
  {
    tensor::Matrix a = tensor::Matrix::Gaussian(kSegmentRows, 64, 1.0, &rng);
    const size_t num_segments = 1000;
    std::vector<size_t> seg(a.rows());
    for (auto& s : seg) s = rng.NextUint64(num_segments);
    reports.push_back(CompareKernel(
        "SegmentSum", dim2(kSegmentRows, 64) + "->1000", kReps,
        [&] { return NaiveSegmentSum(a, seg, num_segments); },
        [&] { return tensor::SegmentSum(a, seg, num_segments); }));
  }
  {
    graph::SparseMatrix s = RandomSparse(kSpmmNodes, 8, &rng);
    tensor::Matrix x = tensor::Matrix::Gaussian(kSpmmNodes, 64, 1.0, &rng);
    reports.push_back(CompareKernel(
        "SpMM", SpmmShape(""), kReps,
        [&] { return NaiveSpmm(s, x); },
        [&] { return s.MultiplyDense(x); }));
  }
  {
    graph::SparseMatrix s = RandomSparse(kSpmmNodes, 8, &rng);
    tensor::Matrix x = tensor::Matrix::Gaussian(kSpmmNodes, 64, 1.0, &rng);
    reports.push_back(CompareKernel(
        "SpMMTranspose", SpmmShape("^T"), kReps,
        [&] { return NaiveSpmmTranspose(s, x); },
        [&] { return s.TransposeMultiplyDense(x); }));
  }
  return reports;
}

// Times the acceptance-shape GEMM at each supported ISA through the runtime
// dispatcher. The avx2 packed microkernel must beat the scalar backend by at
// least 2.0x on full-size runs (the gate that justifies shipping it).
struct GemmIsaReport {
  bool have = false;  // avx2 supported on this CPU
  double scalar_ms = 0.0;
  double avx2_ms = 0.0;
  double speedup_avx2_vs_scalar = 0.0;
  bool gate_ok = true;
};

GemmIsaReport RunGemmIsaComparison() {
  using tensor::Isa;
  GemmIsaReport r;
  if (!tensor::IsaSupported(Isa::kAvx2)) return r;
  util::Rng rng(9);
  tensor::Matrix a = tensor::Matrix::Gaussian(kDenseRows, 256, 1.0, &rng);
  tensor::Matrix b = tensor::Matrix::Gaussian(256, 256, 1.0, &rng);
  const Isa prev = tensor::ActiveIsa();
  auto time_at = [&](Isa isa) {
    tensor::SetIsa(isa);
    return BestOfMs(kReps, [&] { return tensor::MatMul(a, b); });
  };
  r.scalar_ms = time_at(Isa::kScalar);
  r.avx2_ms = time_at(Isa::kAvx2);
  tensor::SetIsa(prev);
  r.speedup_avx2_vs_scalar = r.scalar_ms / std::max(r.avx2_ms, 1e-9);
  r.gate_ok = g_smoke || r.speedup_avx2_vs_scalar >= 2.0;
  r.have = true;
  if (!r.gate_ok) {
    std::fprintf(stderr,
                 "FAIL gemm_isa: avx2 GEMM only %.2fx over scalar (gate: "
                 ">= 2.0x)\n",
                 r.speedup_avx2_vs_scalar);
  }
  return r;
}

bool WriteKernelComparisonJson(const std::string& path) {
  const std::vector<KernelReport> reports = RunKernelComparison();
  const GemmIsaReport gemm_isa = RunGemmIsaComparison();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  // The env block records the machine's core count, the pool size the rest
  // of the process would run with, and the dispatched ISA. The comparison
  // pass additionally pins its own counts (serial=1,
  // parallel=kParallelThreads) — different numbers on purpose.
  bench::WriteEnvJson(f);
  std::fprintf(f, "  \"parallel_threads\": %d,\n", kParallelThreads);
  std::fprintf(f, "  \"threads_tested\": [1, 2, 4, 7],\n");
  std::fprintf(f, "  \"smoke\": %s,\n", g_smoke ? "true" : "false");
  if (gemm_isa.have) {
    std::fprintf(f, "  \"gemm_isa\": {\"shape\": \"%zux256*256x256\", "
                    "\"scalar_ms\": %.3f, \"avx2_ms\": %.3f, "
                    "\"speedup_avx2_vs_scalar\": %.2f, "
                    "\"gate\": \"avx2 >= 2.0x over scalar (full runs)\", "
                    "\"gate_ok\": %s},\n",
                 kDenseRows, gemm_isa.scalar_ms, gemm_isa.avx2_ms,
                 gemm_isa.speedup_avx2_vs_scalar,
                 gemm_isa.gate_ok ? "true" : "false");
    std::printf(
        "GEMM by ISA (%zux256*256x256): scalar %8.3f ms  avx2 %8.3f ms  "
        "(avx2 %.2fx vs scalar, gate >= 2.0x: %s)\n",
        kDenseRows, gemm_isa.scalar_ms, gemm_isa.avx2_ms,
        gemm_isa.speedup_avx2_vs_scalar, gemm_isa.gate_ok ? "ok" : "FAIL");
  }
  std::fprintf(f, "  \"kernels\": [\n");
  bool all_ok = gemm_isa.gate_ok;
  for (size_t i = 0; i < reports.size(); ++i) {
    const KernelReport& r = reports[i];
    const double vs_naive = r.naive_ms / std::max(r.parallel_ms, 1e-9);
    const double vs_serial = r.serial_ms / std::max(r.parallel_ms, 1e-9);
    // The speed gate compares the backend's best configuration against the
    // naive loop: the adaptive selector's whole point is that it may pick
    // the serial strategy when the pool cannot help.
    const double vs_naive_best =
        r.naive_ms / std::max(std::min(r.serial_ms, r.parallel_ms), 1e-9);
    const bool speed_ok = g_smoke || !r.gated || vs_naive_best >= 1.0;
    if (!speed_ok) {
      std::fprintf(stderr,
                   "FAIL %s: backend best %.2fx vs naive (gate: >= 1.0x)\n",
                   r.name.c_str(), vs_naive_best);
    }
    all_ok = all_ok && r.bitwise_identical && r.cross_check_ok && speed_ok;
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"shape\": \"%s\", \"naive_ms\": %.3f, "
        "\"serial_ms\": %.3f, \"parallel_ms\": %.3f, \"speedup\": %.2f, "
        "\"speedup_vs_naive\": %.2f, \"speedup_vs_naive_best\": %.2f, "
        "\"speedup_backend_vs_serial\": %.2f, \"bitwise_identical\": %s, "
        "\"cross_check\": \"%s\", \"cross_check_ok\": %s, "
        "\"max_rel_diff\": %.3g, \"gated\": %s}%s\n",
        r.name.c_str(), r.shape.c_str(), r.naive_ms, r.serial_ms,
        r.parallel_ms, vs_naive, vs_naive, vs_naive_best, vs_serial,
        r.bitwise_identical ? "true" : "false", r.cross_check,
        r.cross_check_ok ? "true" : "false", r.max_rel_diff,
        r.gated ? "true" : "false", i + 1 < reports.size() ? "," : "");
    std::printf(
        "%-18s %-32s naive %8.3f ms  serial %8.3f ms  parallel@%d %8.3f ms "
        " (best %.2fx vs naive)  bitwise:%s cross(%s):%s\n",
        r.name.c_str(), r.shape.c_str(), r.naive_ms, r.serial_ms,
        kParallelThreads, r.parallel_ms, vs_naive_best,
        r.bitwise_identical ? "ok" : "MISMATCH", r.cross_check,
        r.cross_check_ok ? "ok" : "MISMATCH");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return all_ok;
}

}  // namespace
}  // namespace adamgnn

int main(int argc, char** argv) {
  std::string json_path = "BENCH_kernels.json";
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      adamgnn::g_smoke = true;
      adamgnn::ApplySmokeSizes();
    } else {
      bench_argv.push_back(argv[i]);
    }
  }
  if (!adamgnn::WriteKernelComparisonJson(json_path)) return 1;
  if (adamgnn::g_smoke) return 0;  // skip the google-benchmark suite

  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
