#ifndef ADAMGNN_TENSOR_TUNING_H_
#define ADAMGNN_TENSOR_TUNING_H_

#include <algorithm>
#include <cstddef>

// Shared kernel tuning constants and the adaptive strategy selector, the
// single source of truth for tensor/, graph/, and autograd/.
//
// The selectors (Choose*, *Grain with an `ep` parameter) pick serial-naive
// vs chunked-parallel vs gathered execution from the problem shape AND
// `util::EffectiveParallelism()`. Consulting the pool size is safe because
// every execution strategy produces bitwise-identical results (each output
// element is a plain ascending-source left fold regardless of
// decomposition; see DESIGN.md "Kernel dispatch & determinism"), so it
// changes speed, never bits.

namespace adamgnn::tensor::tuning {

// ---- Shared gates and caps -------------------------------------------------

// Below this much total work (elements touched, e.g. nnz * dense cols) a
// kernel runs as a single chunk: pool dispatch costs more than the loop.
inline constexpr size_t kMinParallelWork = size_t{1} << 20;

// Elementwise kernels use a smaller gate: they are pure streaming loops.
inline constexpr size_t kMinParallelElems = size_t{1} << 15;

// Gather outputs are invariant to the row decomposition, so this cap only
// bounds dispatch overhead on large matrices.
inline constexpr size_t kMaxGatherChunks = 64;

// Row/entry grain floors keep chunks coarse enough to amortize dispatch.
inline constexpr size_t kRowGrainFloor = 256;
inline constexpr size_t kEntryGrain = size_t{1} << 12;

// ---- Dense GEMM ------------------------------------------------------------

// C rows per parallel chunk, and the flop gate below which the multiply
// stays single-chunk.
inline constexpr size_t kMatMulRowGrain = 32;
inline constexpr size_t kMinParallelFlops = size_t{1} << 20;

// BLIS-style K blocking: A panels of (rows x kGemmKc) are packed into the
// Workspace arena so the microkernel streams contiguous memory. Accumulating
// each K block directly into C continues the ascending-k left fold, so the
// blocking is bit-neutral.
inline constexpr size_t kGemmKc = 256;

// GEMM row grain. `ep` (EffectiveParallelism) only short-circuits pool
// dispatch — GEMM bits never depend on the row decomposition.
inline size_t MatMulGrain(size_t m, size_t k, size_t n, int ep) {
  if (ep <= 1) return m == 0 ? 1 : m;
  if (m * k * n < kMinParallelFlops) return m == 0 ? 1 : m;
  return kMatMulRowGrain;
}

// ---- Adaptive sparse/reduction strategy selection --------------------------

enum class ReduceStrategy {
  kSerialScatter,    // plain ascending-source loop, no grouping, no pool
  kParallelGather,   // group by output row, one pool task per row range
};

// SegmentSum / IndexAddRows. Serial scatter wins when the pool cannot help
// (ep <= 1), when the work is too small to amortize the grouping pass, or
// when the segment count is too skewed/small for row-parallelism to spread
// (fewer than kMinSegmentsPerLane segments per worker).
inline constexpr size_t kSegmentSerialBelow = size_t{1} << 18;
inline constexpr size_t kMinSegmentsPerLane = 4;

inline ReduceStrategy ChooseSegmentReduce(size_t rows, size_t cols,
                                          size_t num_segments, int ep) {
  if (ep <= 1) return ReduceStrategy::kSerialScatter;
  if (rows * cols < kSegmentSerialBelow) return ReduceStrategy::kSerialScatter;
  if (num_segments < kMinSegmentsPerLane * static_cast<size_t>(ep)) {
    return ReduceStrategy::kSerialScatter;
  }
  return ReduceStrategy::kParallelGather;
}

// SpMM^T. Serial scatter additionally skips building the
// transposed view and entry groups — the right call for small one-shot
// multiplies; large single-threaded multiplies still prefer the (cached)
// gather view for its write locality.
inline ReduceStrategy ChooseSpmmTranspose(size_t nnz, size_t d,
                                          size_t out_rows, int ep) {
  const size_t work = nnz * d;
  if (work < kMinParallelWork) return ReduceStrategy::kSerialScatter;
  if (ep > 1 && out_rows < kMinSegmentsPerLane * static_cast<size_t>(ep)) {
    return ReduceStrategy::kSerialScatter;
  }
  return ReduceStrategy::kParallelGather;
}

// ---- Gather grains (adaptive: may consult ep) ------------------------------

inline size_t GatherRowGrain(size_t rows, size_t work, int ep) {
  if (ep <= 1 || work < kMinParallelWork) return rows == 0 ? 1 : rows;
  return std::max(kRowGrainFloor,
                  (rows + kMaxGatherChunks - 1) / kMaxGatherChunks);
}

inline size_t GatherEntryGrain(size_t entries, size_t work, int ep) {
  if (ep <= 1 || work < kMinParallelWork) return entries == 0 ? 1 : entries;
  return kEntryGrain;
}

// Segment-gather grain (over output segments).
inline size_t SegmentGrain(size_t num_segments) {
  return std::max<size_t>(
      kRowGrainFloor, (num_segments + kMaxGatherChunks - 1) / kMaxGatherChunks);
}

}  // namespace adamgnn::tensor::tuning

#endif  // ADAMGNN_TENSOR_TUNING_H_
