// Runtime ISA dispatcher tests: parse/probe/force semantics, the cross-ISA
// numeric contract (sparse kernels bitwise everywhere, GEMM ULP-bounded on
// avx2), bitwise thread-invariance at every
// forced ISA, adaptive-selector pins, and a forced-ISA training smoke whose
// loss trajectory is compared against the scalar baseline.

#include "tensor/isa.h"

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "core/adapters.h"
#include "data/node_datasets.h"
#include "data/splits.h"
#include "graph/sparse_matrix.h"
#include "gtest/gtest.h"
#include "tensor/kernels.h"
#include "tensor/tuning.h"
#include "train/node_trainer.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace adamgnn::tensor {
namespace {

using graph::SparseMatrix;
using graph::Triplet;

/// Restores the active ISA (and the thread count) no matter how a test exits.
struct IsaGuard {
  Isa prev = ActiveIsa();
  ~IsaGuard() {
    SetIsa(prev);
    util::SetNumThreads(0);
  }
};

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2}) {
    if (IsaSupported(isa)) out.push_back(isa);
  }
  return out;
}

/// ULP distance between two finite doubles of the same sign. The test data
/// is strictly positive so the plain bit-pattern difference is the ULP
/// count; mixed signs would need the usual monotonic remapping.
int64_t UlpDiff(double a, double b) {
  const int64_t ia = std::bit_cast<int64_t>(a);
  const int64_t ib = std::bit_cast<int64_t>(b);
  return ia > ib ? ia - ib : ib - ia;
}

int64_t MaxUlpDiff(const Matrix& a, const Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  int64_t worst = 0;
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      worst = std::max(worst, UlpDiff(a(r, c), b(r, c)));
    }
  }
  return worst;
}

SparseMatrix RandomSparse(size_t rows, size_t cols, size_t nnz,
                          uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Triplet> t;
  t.reserve(nnz);
  for (size_t k = 0; k < nnz; ++k) {
    t.push_back({rng.NextUint64(rows), rng.NextUint64(cols),
                 rng.NextUniform(0.1, 1.0)});
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(t));
}

// ---------------------------------------------------------------------------
// Dispatcher semantics.
// ---------------------------------------------------------------------------

TEST(IsaDispatchTest, NamesRoundTripThroughParse) {
  for (Isa isa : {Isa::kScalar, Isa::kAvx2}) {
    Isa parsed;
    ASSERT_TRUE(ParseIsa(IsaName(isa), &parsed)) << IsaName(isa);
    EXPECT_EQ(parsed, isa);
  }
  Isa untouched = Isa::kAvx2;
  EXPECT_FALSE(ParseIsa("sse2", &untouched));  // the retired 128-bit tier
  EXPECT_FALSE(ParseIsa("avx512", &untouched));
  EXPECT_FALSE(ParseIsa("", &untouched));
  EXPECT_FALSE(ParseIsa("AVX2", &untouched));  // names are lowercase
  EXPECT_EQ(untouched, Isa::kAvx2);
}

/// Sets ADAMGNN_ISA for one scope and restores the previous value.
class ScopedIsaEnv {
 public:
  explicit ScopedIsaEnv(const char* value) {
    const char* prev = std::getenv("ADAMGNN_ISA");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    setenv("ADAMGNN_ISA", value, 1);
  }
  ~ScopedIsaEnv() {
    if (had_prev_) {
      setenv("ADAMGNN_ISA", prev_.c_str(), 1);
    } else {
      unsetenv("ADAMGNN_ISA");
    }
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

TEST(IsaDispatchTest, EnvNamingNoIsaWarnsAndFallsBackToBest) {
  for (const char* value : {"sse2", "avx512"}) {
    ScopedIsaEnv env(value);
    ::testing::internal::CaptureStderr();
    const Isa resolved = IsaFromEnv();
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(resolved, BestSupportedIsa()) << value;
    EXPECT_NE(err.find("warning: ADAMGNN_ISA=" + std::string(value)),
              std::string::npos)
        << err;
  }
  {
    ScopedIsaEnv env("scalar");
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(IsaFromEnv(), Isa::kScalar);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  }
}

TEST(IsaDispatchTest, ScalarIsAlwaysSupportedAndForceable) {
  IsaGuard guard;
  EXPECT_TRUE(IsaSupported(Isa::kScalar));
  ASSERT_TRUE(SetIsa(Isa::kScalar));
  EXPECT_EQ(ActiveIsa(), Isa::kScalar);
}

TEST(IsaDispatchTest, SetIsaRejectsUnsupportedWithoutSideEffects) {
  IsaGuard guard;
  ASSERT_TRUE(SetIsa(Isa::kScalar));
  if (!IsaSupported(Isa::kAvx2)) {
    EXPECT_FALSE(SetIsa(Isa::kAvx2));
    EXPECT_EQ(ActiveIsa(), Isa::kScalar) << "failed SetIsa changed the ISA";
  }
  // Every ISA up to the best one must be individually forceable.
  for (Isa isa : SupportedIsas()) {
    EXPECT_TRUE(SetIsa(isa)) << IsaName(isa);
    EXPECT_EQ(ActiveIsa(), isa);
  }
}

TEST(IsaDispatchTest, CpuFeatureStringMatchesProbe) {
  const std::string features = CpuFeatureString();
  if (IsaSupported(Isa::kAvx2)) {
    EXPECT_NE(features.find("avx2"), std::string::npos) << features;
    EXPECT_NE(features.find("fma"), std::string::npos) << features;
  }
}

// ---------------------------------------------------------------------------
// Cross-ISA numeric contract.
// ---------------------------------------------------------------------------

TEST(IsaNumericsTest, GemmAvx2WithinUlpBoundOfScalar) {
  if (!IsaSupported(Isa::kAvx2)) GTEST_SKIP() << "no avx2+fma on this CPU";
  IsaGuard guard;
  // Strictly positive entries keep every partial sum positive, so UlpDiff's
  // plain bit-pattern distance is valid and no cancellation inflates the
  // relative error. k=300 crosses the kGemmKc=256 block boundary.
  util::Rng rng(61);
  const Matrix a = Matrix::Uniform(67, 300, 0.1, 1.1, &rng);
  const Matrix b = Matrix::Uniform(300, 45, 0.1, 1.1, &rng);
  const Matrix bt = Matrix::Uniform(45, 300, 0.1, 1.1, &rng);
  ASSERT_TRUE(SetIsa(Isa::kScalar));
  const Matrix ab = MatMul(a, b);
  const Matrix abt = MatMulTransB(a, bt);
  ASSERT_TRUE(SetIsa(Isa::kAvx2));
  // FMA keeps more precision per step but reassociates nothing; a few
  // hundred ULPs over a 300-term dot product is a generous envelope.
  EXPECT_LE(MaxUlpDiff(MatMul(a, b), ab), 512);
  EXPECT_LE(MaxUlpDiff(MatMulTransB(a, bt), abt), 512);
}

TEST(IsaNumericsTest, SparseAndSegmentKernelsBitwiseAcrossIsas) {
  IsaGuard guard;
  // Above the parallel-work gate (25000 * 64 > 2^20) so the vectorized
  // gather row kernel actually runs, not just the serial fallback.
  SparseMatrix m = RandomSparse(1200, 900, 25000, 62);
  util::Rng rng(63);
  const Matrix xr = Matrix::Gaussian(900, 64, 1.0, &rng);
  const Matrix xl = Matrix::Gaussian(1200, 64, 1.0, &rng);
  Matrix seg_in = Matrix::Gaussian(20000, 24, 1.0, &rng);
  const size_t num_segments = 700;
  std::vector<size_t> seg(seg_in.rows());
  for (auto& s : seg) s = rng.NextUint64(num_segments);

  ASSERT_TRUE(SetIsa(Isa::kScalar));
  const Matrix spmm = m.MultiplyDense(xr);
  const Matrix spmmt = m.TransposeMultiplyDense(xl);
  const Matrix segsum = SegmentSum(seg_in, seg, num_segments);
  const Matrix idxadd = IndexAddRows(seg_in, seg, num_segments);
  for (Isa isa : SupportedIsas()) {
    ASSERT_TRUE(SetIsa(isa));
    EXPECT_TRUE(m.MultiplyDense(xr) == spmm) << "SpMM @ " << IsaName(isa);
    EXPECT_TRUE(m.TransposeMultiplyDense(xl) == spmmt)
        << "SpMM^T @ " << IsaName(isa);
    EXPECT_TRUE(SegmentSum(seg_in, seg, num_segments) == segsum)
        << "SegmentSum @ " << IsaName(isa);
    EXPECT_TRUE(IndexAddRows(seg_in, seg, num_segments) == idxadd)
        << "IndexAddRows @ " << IsaName(isa);
  }
}

TEST(IsaThreadingTest, KernelsBitwiseAcrossThreadCountsAtEveryIsa) {
  IsaGuard guard;
  util::Rng rng(64);
  const Matrix a = Matrix::Gaussian(128, 260, 1.0, &rng);  // > flop gate
  const Matrix b = Matrix::Gaussian(260, 96, 1.0, &rng);
  SparseMatrix m = RandomSparse(2000, 1500, 30000, 65);
  const Matrix x = Matrix::Gaussian(2000, 64, 1.0, &rng);
  for (Isa isa : SupportedIsas()) {
    ASSERT_TRUE(SetIsa(isa));
    util::SetNumThreads(1);
    const Matrix gemm_ref = MatMul(a, b);
    const Matrix spmmt_ref = m.TransposeMultiplyDense(x);
    for (int t : {2, 4, 7}) {
      util::SetNumThreads(t);
      EXPECT_TRUE(MatMul(a, b) == gemm_ref)
          << "GEMM @ " << IsaName(isa) << " threads=" << t;
      EXPECT_TRUE(m.TransposeMultiplyDense(x) == spmmt_ref)
          << "SpMM^T @ " << IsaName(isa) << " threads=" << t;
    }
    util::SetNumThreads(0);
  }
}

// ---------------------------------------------------------------------------
// Adaptive-selector pins: known shapes must keep picking known strategies.
// ---------------------------------------------------------------------------

TEST(TuningSelectorTest, SegmentReducePins) {
  using tuning::ChooseSegmentReduce;
  using tuning::ReduceStrategy;
  // A lone worker never pays for the grouping pass.
  EXPECT_EQ(ChooseSegmentReduce(20000, 24, 700, 1),
            ReduceStrategy::kSerialScatter);
  // Small total work stays serial even with a pool.
  EXPECT_EQ(ChooseSegmentReduce(100, 8, 64, 4),
            ReduceStrategy::kSerialScatter);
  // Too few segments per worker: row-parallelism cannot spread.
  EXPECT_EQ(ChooseSegmentReduce(20000, 24, 8, 4),
            ReduceStrategy::kSerialScatter);
  // Big, well-spread reduction with real parallelism: gather.
  EXPECT_EQ(ChooseSegmentReduce(20000, 24, 700, 4),
            ReduceStrategy::kParallelGather);
}

TEST(TuningSelectorTest, SpmmTransposePins) {
  using tuning::ChooseSpmmTranspose;
  using tuning::ReduceStrategy;
  // Small one-shot multiply: skip building the transposed view entirely.
  EXPECT_EQ(ChooseSpmmTranspose(1000, 8, 500, 8),
            ReduceStrategy::kSerialScatter);
  // Large single-threaded multiply still prefers the cached gather view
  // for write locality.
  EXPECT_EQ(ChooseSpmmTranspose(40000, 64, 2500, 1),
            ReduceStrategy::kParallelGather);
  // Tiny output with a pool: per-row parallelism cannot spread.
  EXPECT_EQ(ChooseSpmmTranspose(40000, 64, 8, 4),
            ReduceStrategy::kSerialScatter);
  EXPECT_EQ(ChooseSpmmTranspose(40000, 64, 2500, 4),
            ReduceStrategy::kParallelGather);
}

TEST(TuningSelectorTest, MatMulGrainPins) {
  // Serial contexts and sub-gate flop counts run as one chunk.
  EXPECT_EQ(tuning::MatMulGrain(100, 10, 10, 1), 100u);
  EXPECT_EQ(tuning::MatMulGrain(100, 10, 10, 4), 100u);
  EXPECT_EQ(tuning::MatMulGrain(0, 5, 5, 1), 1u);
  // Past the gate with a pool: the fixed row grain.
  EXPECT_EQ(tuning::MatMulGrain(512, 256, 256, 4), tuning::kMatMulRowGrain);
}

// ---------------------------------------------------------------------------
// Forced-ISA training smoke: the whole model stack (dense GEMM + sparse
// aggregation + autograd + Adam) trained end to end at each forced ISA.
// ---------------------------------------------------------------------------

std::vector<double> TrainLossesAt(Isa isa) {
  EXPECT_TRUE(SetIsa(isa));
  data::NodeDataset dataset =
      data::MakeNodeDataset(data::NodeDatasetId::kCora, 7, 0.06).ValueOrDie();
  util::Rng split_rng(1);
  data::IndexSplit split =
      data::SplitIndices(dataset.graph.num_nodes(), 0.8, 0.1, &split_rng)
          .ValueOrDie();
  core::AdamGnnConfig config;
  config.in_dim = dataset.graph.feature_dim();
  config.hidden_dim = 8;
  config.num_levels = 2;
  config.num_classes = static_cast<size_t>(dataset.graph.num_classes());
  util::Rng model_rng(9);
  core::AdamGnnNodeModel model(config, &model_rng);
  train::TrainConfig tc;
  tc.max_epochs = 3;
  tc.patience = 100;
  tc.seed = 9;
  return train::TrainNodeClassifier(&model, dataset.graph, split, tc)
      .ValueOrDie()
      .epoch_losses;
}

TEST(IsaTrainingTest, LossTrajectoryMatchesScalarBaseline) {
  IsaGuard guard;
  const std::vector<double> scalar_losses = TrainLossesAt(Isa::kScalar);
  ASSERT_EQ(scalar_losses.size(), 3u);
  for (Isa isa : SupportedIsas()) {
    if (isa == Isa::kScalar) continue;
    const std::vector<double> losses = TrainLossesAt(isa);
    ASSERT_EQ(losses.size(), scalar_losses.size()) << IsaName(isa);
    for (size_t e = 0; e < losses.size(); ++e) {
      // avx2 GEMM differs by ULPs (explicit FMA); a short run stays well
      // within this relative envelope.
      EXPECT_NEAR(losses[e], scalar_losses[e],
                  1e-6 * std::abs(scalar_losses[e]))
          << "epoch " << e << " @ " << IsaName(isa);
    }
  }
}

}  // namespace
}  // namespace adamgnn::tensor
