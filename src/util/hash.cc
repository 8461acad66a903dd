#include "util/hash.h"

#include <cstring>

namespace adamgnn::util {

namespace {
uint64_t LoadWord(const unsigned char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}
}  // namespace

void WordHash::AddWords(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  size_t i = 0;
  // Single words until the next word lands on lane 0, then four lanes per
  // step held in locals so the multiplies overlap, then the tail.
  for (; i < n && (count_ & 3) != 0; ++i) Add(LoadWord(p + 8 * i));
  if (n - i >= 4) {
    uint64_t a = lane_[0], b = lane_[1], c = lane_[2], d = lane_[3];
    const size_t start = i;
    for (; i + 4 <= n; i += 4) {
      const unsigned char* q = p + 8 * i;
      a = Mix(a ^ LoadWord(q), kMul[0]);
      b = Mix(b ^ LoadWord(q + 8), kMul[1]);
      c = Mix(c ^ LoadWord(q + 16), kMul[2]);
      d = Mix(d ^ LoadWord(q + 24), kMul[3]);
    }
    lane_[0] = a;
    lane_[1] = b;
    lane_[2] = c;
    lane_[3] = d;
    count_ += i - start;
  }
  for (; i < n; ++i) Add(LoadWord(p + 8 * i));
}

uint64_t WordHash::Digest() const {
  uint64_t h = Mix(count_ ^ kMul[0], kMul[1]);
  for (int j = 0; j < 4; ++j) h = Mix(h ^ lane_[j], kMul[j]);
  return Mix(h ^ count_, kMul[2]);
}

}  // namespace adamgnn::util
