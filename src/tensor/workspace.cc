#include "tensor/workspace.h"

#include <algorithm>
#include <bit>

#include "util/cancel.h"
#include "util/logging.h"

namespace adamgnn::tensor {

namespace {

thread_local Workspace* t_current = nullptr;

/// Smallest power of two >= n (n >= 1): the class an acquire draws from and
/// the capacity a fresh miss is padded to.
size_t ClassFor(size_t n) { return std::bit_ceil(n); }

/// Largest power of two <= capacity: the class a buffer parks under, chosen
/// so every buffer in class c can serve any acquire of up to c doubles even
/// when the capacity is not itself a power of two (buffers allocated on
/// unbound threads, or grown behind our back by vector internals).
size_t ClassUnder(size_t capacity) { return std::bit_floor(capacity); }

}  // namespace

Workspace::Stats Workspace::stats() const {
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.retained_doubles = retained_doubles_;
  s.retained_buffers = retained_buffers_;
#ifndef NDEBUG
  size_t recount = 0;
  for (const auto& [cls, buffers] : free_) recount += buffers.size();
  ADAMGNN_DCHECK_EQ(recount, retained_buffers_);
#endif
  return s;
}

void Workspace::Clear() {
  free_.clear();
  retained_doubles_ = 0;
  retained_buffers_ = 0;
}

Workspace* Workspace::Current() { return t_current; }

Workspace::Bind::Bind(Workspace* ws) : prev_(t_current) { t_current = ws; }

Workspace::Bind::~Bind() { t_current = prev_; }

std::vector<double> Workspace::TakeBuffer(size_t n) {
  auto it = free_.find(ClassFor(n));
  if (it == free_.end() || it->second.empty()) {
    ++misses_;
    return {};
  }
  ++hits_;
  std::vector<double> buf = std::move(it->second.back().buf);
  it->second.pop_back();
  if (it->second.empty()) free_.erase(it);
  ADAMGNN_DCHECK_GE(retained_doubles_, buf.capacity());
  ADAMGNN_DCHECK_GE(retained_buffers_, size_t{1});
  retained_doubles_ -= buf.capacity();
  --retained_buffers_;
  buf.resize(n);  // capacity >= class >= n, so this never reallocates
  return buf;
}

void Workspace::Park(std::vector<double>&& buf) noexcept {
  retained_doubles_ += buf.capacity();
  ++retained_buffers_;
  free_[ClassUnder(buf.capacity())].push_back(
      Parked{next_seq_++, std::move(buf)});
  // EvictOldest returning false means the freelist is already empty; bail
  // rather than spin (a mis-accounted retained_doubles_ could otherwise make
  // this loop infinite with nothing left to free).
  while (retained_doubles_ > retained_limit_) {
    if (!EvictOldest()) break;
  }
}

bool Workspace::EvictOldest() noexcept {
  auto oldest = free_.end();
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    // Empty buckets violate the freelist invariant (every pop erases the
    // bucket it empties); tolerate them in release builds but flag in debug.
    ADAMGNN_DCHECK(!it->second.empty());
    if (it->second.empty()) continue;
    if (oldest == free_.end() ||
        it->second.front().seq < oldest->second.front().seq) {
      oldest = it;
    }
  }
  if (oldest == free_.end()) return false;
  ADAMGNN_DCHECK_GE(retained_doubles_, oldest->second.front().buf.capacity());
  ADAMGNN_DCHECK_GE(retained_buffers_, size_t{1});
  retained_doubles_ -= oldest->second.front().buf.capacity();
  --retained_buffers_;
  oldest->second.pop_front();
  if (oldest->second.empty()) free_.erase(oldest);
  ++evictions_;
  return true;
}

std::vector<double> Workspace::AcquireFilled(size_t n, double fill) {
  util::AllocCheckpoint();
  Workspace* ws = t_current;
  if (ws == nullptr || n == 0) return std::vector<double>(n, fill);
  std::vector<double> buf = ws->TakeBuffer(n);
  if (buf.empty()) {
    buf.reserve(ClassFor(n));  // pad to the class so reuse stays exact
    buf.resize(n);
  }
  std::fill(buf.begin(), buf.end(), fill);
  return buf;
}

std::vector<double> Workspace::AcquireUninit(size_t n) {
  util::AllocCheckpoint();
  Workspace* ws = t_current;
  if (ws == nullptr || n == 0) return std::vector<double>(n);
  std::vector<double> buf = ws->TakeBuffer(n);
  if (!buf.empty()) return buf;  // recycled: contents left as-is, no fill pass
  buf.reserve(ClassFor(n));
  buf.resize(n);
  return buf;
}

std::vector<double> Workspace::AcquireCopy(const std::vector<double>& src) {
  util::AllocCheckpoint();
  Workspace* ws = t_current;
  if (ws == nullptr || src.empty()) return src;
  std::vector<double> buf = ws->TakeBuffer(src.size());
  if (buf.empty()) {
    buf.reserve(ClassFor(src.size()));
    buf.resize(src.size());
  }
  std::copy(src.begin(), src.end(), buf.begin());
  return buf;
}

void Workspace::Release(std::vector<double>&& buf) noexcept {
  if (buf.capacity() == 0) return;
  Workspace* ws = t_current;
  if (ws == nullptr) return;  // buf frees normally as it goes out of scope
  ws->Park(std::move(buf));
}

}  // namespace adamgnn::tensor
