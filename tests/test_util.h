// Shared test helpers: finite-difference gradient checking, a bitwise
// sparse-matrix comparison with a triplet-built A + I reference, and small
// graph fixtures.

#ifndef ADAMGNN_TESTS_TEST_UTIL_H_
#define ADAMGNN_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "autograd/variable.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "graph/sparse_matrix.h"
#include "gtest/gtest.h"
#include "tensor/matrix.h"
#include "util/random.h"

namespace adamgnn::testing {

/// Verifies the analytic gradient of `loss_fn` (a scalar-valued forward pass
/// that reads `param`'s current value) against central finite differences,
/// entry by entry. `loss_fn` must rebuild its graph on every call.
inline void ExpectGradientsMatch(
    autograd::Variable param,
    const std::function<autograd::Variable()>& loss_fn, double eps = 1e-5,
    double tol = 1e-6) {
  autograd::Variable loss = loss_fn();
  autograd::Backward(loss);
  tensor::Matrix analytic = param.grad();

  tensor::Matrix& value = param.mutable_value();
  for (size_t i = 0; i < value.size(); ++i) {
    const double original = value.data()[i];
    value.data()[i] = original + eps;
    const double up = loss_fn().value()(0, 0);
    value.data()[i] = original - eps;
    const double down = loss_fn().value()(0, 0);
    value.data()[i] = original;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic.data()[i], numeric,
                tol + 1e-4 * std::fabs(numeric))
        << "gradient mismatch at flat index " << i;
  }
}

/// Reference attention weights, entry by entry: the softmax within each
/// segment of LeakyReLU(pre, 0.2). segments[i] < num_segments.
inline std::vector<double> LeakyReluSegmentSoftmax(
    const std::vector<double>& pre, const std::vector<size_t>& segments,
    size_t num_segments) {
  std::vector<double> logit(pre.size()), out(pre.size());
  std::vector<double> seg_max(num_segments, -INFINITY);
  std::vector<double> seg_sum(num_segments, 0.0);
  for (size_t i = 0; i < pre.size(); ++i) {
    logit[i] = pre[i] > 0 ? pre[i] : 0.2 * pre[i];
    seg_max[segments[i]] = std::max(seg_max[segments[i]], logit[i]);
  }
  for (size_t i = 0; i < pre.size(); ++i) {
    seg_sum[segments[i]] += std::exp(logit[i] - seg_max[segments[i]]);
  }
  for (size_t i = 0; i < pre.size(); ++i) {
    out[i] = std::exp(logit[i] - seg_max[segments[i]]) / seg_sum[segments[i]];
  }
  return out;
}

/// Number of negative entries; attention tests use it to show that both
/// LeakyReLU branches were taken.
inline size_t CountNegative(const std::vector<double>& xs) {
  return static_cast<size_t>(
      std::count_if(xs.begin(), xs.end(), [](double x) { return x < 0; }));
}

/// Expects identical shapes and CSR arrays, comparing values bit for bit
/// (so -0.0 differs from +0.0 and no tolerance hides a reordered sum).
inline void ExpectSparseBitwiseEqual(const graph::SparseMatrix& got,
                                     const graph::SparseMatrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_EQ(got.row_offsets(), want.row_offsets());
  EXPECT_EQ(got.col_indices(), want.col_indices());
  ASSERT_EQ(got.values().size(), want.values().size());
  for (size_t k = 0; k < got.values().size(); ++k) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.values()[k]),
              std::bit_cast<uint64_t>(want.values()[k]))
        << "entry " << k << ": " << got.values()[k] << " vs "
        << want.values()[k];
  }
}

/// A + I built from triplets: A's entries plus a (r, r, 1) triplet per row,
/// sorted and coalesced into any stored diagonal by FromTriplets. The
/// reference for SparseMatrix::PlusIdentity and NextAdjacency's Â.
inline graph::SparseMatrix TripletPlusIdentity(const graph::SparseMatrix& a) {
  std::vector<graph::Triplet> t;
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t k = a.row_offsets()[r]; k < a.row_offsets()[r + 1]; ++k) {
      t.push_back({r, a.col_indices()[k], a.values()[k]});
    }
    t.push_back({r, r, 1.0});
  }
  return graph::SparseMatrix::FromTriplets(a.rows(), a.cols(), std::move(t));
}

/// A small fixed graph: two triangles bridged by one edge (6 nodes), with
/// 4-dim features and binary labels by triangle.
inline graph::Graph TwoTriangles() {
  graph::GraphBuilder builder(6);
  const std::pair<int, int> edges[] = {{0, 1}, {1, 2}, {0, 2},
                                       {3, 4}, {4, 5}, {3, 5}, {2, 3}};
  for (auto [u, v] : edges) builder.AddEdge(u, v).CheckOK();
  util::Rng rng(7);
  builder.SetFeatures(tensor::Matrix::Gaussian(6, 4, 1.0, &rng)).CheckOK();
  builder.SetLabels({0, 0, 0, 1, 1, 1}).CheckOK();
  return std::move(builder).Build().ValueOrDie();
}

/// A connected ring of n nodes with f-dim Gaussian features and alternating
/// labels; handy for parameterized sweeps.
inline graph::Graph Ring(size_t n, size_t f, uint64_t seed = 11) {
  graph::GraphBuilder builder(n);
  for (size_t i = 0; i < n; ++i) {
    builder
        .AddEdge(static_cast<graph::NodeId>(i),
                 static_cast<graph::NodeId>((i + 1) % n))
        .CheckOK();
  }
  util::Rng rng(seed);
  builder.SetFeatures(tensor::Matrix::Gaussian(n, f, 1.0, &rng)).CheckOK();
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % 2);
  builder.SetLabels(labels).CheckOK();
  return std::move(builder).Build().ValueOrDie();
}

/// Ring(n, f) plus `chords` random extra edges, so ego-networks differ in
/// size; duplicate chords coalesce.
inline graph::Graph RingWithChords(size_t n, size_t f, size_t chords,
                                   uint64_t seed) {
  graph::GraphBuilder builder(n);
  for (size_t i = 0; i < n; ++i) {
    builder
        .AddEdge(static_cast<graph::NodeId>(i),
                 static_cast<graph::NodeId>((i + 1) % n))
        .CheckOK();
  }
  util::Rng rng(seed);
  for (size_t c = 0; c < chords; ++c) {
    const size_t u = static_cast<size_t>(rng.NextUint64(n));
    const size_t v = (u + 2 + static_cast<size_t>(rng.NextUint64(n - 3))) % n;
    builder
        .AddEdge(static_cast<graph::NodeId>(u), static_cast<graph::NodeId>(v))
        .CheckOK();
  }
  builder.SetFeatures(tensor::Matrix::Gaussian(n, f, 1.0, &rng)).CheckOK();
  return std::move(builder).Build().ValueOrDie();
}

}  // namespace adamgnn::testing

#endif  // ADAMGNN_TESTS_TEST_UTIL_H_
