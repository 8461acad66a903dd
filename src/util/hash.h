// Word-wise streaming hash for in-process identities: the graph fingerprint
// that keys the serving result cache and training's plan cache
// (core::GraphPlan::Fingerprint) and the frozen-weights version identity
// (core::InferenceSession::WeightsFingerprint).
//
// The stream is a sequence of 64-bit words. Word i feeds lane i mod 4, and
// each lane folds its word in with one 64x64->128-bit multiply whose halves
// are xor-ed back to 64 bits; the four lanes carry no dependency on each
// other, so a long run of words costs about one multiply's throughput per
// word instead of one multiply's latency per byte. The digest mixes the
// lanes in order with the word count. Plain C++ with no intrinsics: a digest
// is the same on every ISA tier and thread count. Not cryptographic, and not
// persisted anywhere; callers that must not act on a collision compare the
// shapes they cached alongside the key.

#ifndef ADAMGNN_UTIL_HASH_H_
#define ADAMGNN_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>

namespace adamgnn::util {

class WordHash {
 public:
  /// Appends one word.
  void Add(uint64_t word) {
    const size_t j = count_++ & 3;
    lane_[j] = Mix(lane_[j] ^ word, kMul[j]);
  }

  /// Appends `n` words read from the 8n bytes at `data` (any alignment),
  /// e.g. the bit patterns of `n` doubles. Same digest as n calls to Add.
  void AddWords(const void* data, size_t n);

  /// Digest of every word appended so far. Does not consume the state.
  uint64_t Digest() const;

 private:
  static uint64_t Mix(uint64_t a, uint64_t b) {
    const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
    return static_cast<uint64_t>(p) ^ static_cast<uint64_t>(p >> 64);
  }

  // Odd 64-bit multipliers, one per lane; they also seed the lanes.
  static constexpr uint64_t kMul[4] = {
      0x9e3779b97f4a7c15ull, 0xc2b2ae3d27d4eb4full, 0x165667b19e3779f9ull,
      0xd6e8feb86659fd93ull};

  uint64_t lane_[4] = {kMul[0], kMul[1], kMul[2], kMul[3]};
  uint64_t count_ = 0;
};

}  // namespace adamgnn::util

#endif  // ADAMGNN_UTIL_HASH_H_
