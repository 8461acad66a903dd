// Scratch-buffer arena for the training hot loop. An epoch allocates and
// frees thousands of similarly shaped matrices (activation values, tape
// gradients, optimizer temporaries); Workspace recycles their storage so
// steady-state epochs stop hitting the allocator.
//
// Model: a Workspace is bound to ONE thread with Workspace::Bind (RAII).
// While bound, every tensor::Matrix the thread constructs draws its buffer
// from the workspace's freelist, and every Matrix it destroys returns its
// buffer there. Threads with no binding — the kernel pool's workers in
// particular — fall back to plain vector allocation, so the freelist needs
// no locks: it is only ever touched by its binding thread. Buffers
// themselves may migrate (a matrix built on a worker and destroyed on the
// bound thread donates its buffer; the reverse frees normally).
//
// The freelist is keyed by power-of-two size class, not exact element count:
// a fresh buffer is allocated with its capacity rounded up to the next power
// of two, parked under floor-pow2 of its capacity, and an acquire for n
// doubles draws from class ceil-pow2(n) — so the hyper-level tensors whose
// shapes drift a little from epoch to epoch still reuse each other's storage
// instead of stacking up dead exact-size entries. Total parked capacity is
// capped (see retained_limit); past the cap the oldest parked buffer is
// evicted (freed) first, which keeps an idle arena from holding the peak
// epoch's footprint forever.
//
// Reuse changes where bytes live, never what they hold: acquired buffers are
// resized and refilled (or copied over) before a Matrix exposes them, so
// results are bitwise-identical on a bound and an unbound thread.

#ifndef ADAMGNN_TENSOR_WORKSPACE_H_
#define ADAMGNN_TENSOR_WORKSPACE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

namespace adamgnn::tensor {

class Workspace {
 public:
  Workspace() = default;
  ~Workspace() = default;

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Reuse counters (per workspace, maintained by its binding thread).
  struct Stats {
    size_t hits = 0;              // acquires served from the freelist
    size_t misses = 0;            // acquires that fell through to malloc
    size_t evictions = 0;         // parked buffers freed by the cap
    size_t retained_buffers = 0;  // buffers currently parked in the freelist
    size_t retained_doubles = 0;  // total capacity across parked buffers
  };
  Stats stats() const;

  /// Frees every parked buffer (the matrices in flight are unaffected).
  void Clear();

  /// Caps the total capacity (in doubles) the freelist may hold; parking
  /// past the cap evicts oldest-first. Applies from the next Release.
  void set_retained_limit(size_t doubles) { retained_limit_ = doubles; }
  size_t retained_limit() const { return retained_limit_; }

  /// The workspace bound to the calling thread, or nullptr.
  static Workspace* Current();

  /// Binds `ws` to the calling thread for the scope's lifetime; nestable
  /// (restores the previous binding on destruction).
  class Bind {
   public:
    explicit Bind(Workspace* ws);
    ~Bind();
    Bind(const Bind&) = delete;
    Bind& operator=(const Bind&) = delete;

   private:
    Workspace* prev_;
  };

  // Storage hooks for tensor::Matrix. Unbound threads get plain
  // vectors; bound threads reuse parked buffers whose size class covers the
  // requested element count.
  static std::vector<double> AcquireFilled(size_t n, double fill);
  static std::vector<double> AcquireCopy(const std::vector<double>& src);
  /// Like AcquireFilled but skips the fill when a recycled buffer is
  /// available: the returned elements then hold whatever the previous owner
  /// left behind. This is the arena-only saving the plain-vector path cannot
  /// match (std::vector always value-initializes), so full-overwrite kernels
  /// acquire through here via Matrix::Uninit. Unbound threads and freelist
  /// misses still return zeroed storage.
  static std::vector<double> AcquireUninit(size_t n);
  static void Release(std::vector<double>&& buf) noexcept;

  /// Default retained-capacity cap: 1 Gi doubles (8 GiB). The cap exists to
  /// stop unbounded idle hoarding, not to bound the training run: it must
  /// sit ABOVE the epoch's tape working set, because a cap below it turns
  /// every release into an eviction (munmap) and every acquire into a miss
  /// (mmap + page faults) — strictly worse than no arena at all. Callers
  /// with tighter memory ceilings lower it per-workspace.
  static constexpr size_t kDefaultRetainedLimit = size_t{1} << 30;

 private:
  struct Parked {
    uint64_t seq;  // global park order, for oldest-first eviction
    std::vector<double> buf;
  };

  /// Pops the most recently parked buffer whose class covers n doubles;
  /// empty vector on miss. A non-empty result has size() == n.
  std::vector<double> TakeBuffer(size_t n);
  void Park(std::vector<double>&& buf) noexcept;
  /// Frees the globally oldest parked buffer. Returns false when nothing is
  /// parked, so Park's drain-to-cap loop terminates even if the retained
  /// accounting were ever to disagree with the freelist contents.
  bool EvictOldest() noexcept;

  // One FIFO deque per power-of-two class: take from the back (warmest),
  // evict from the front (oldest within the class; the globally oldest is
  // found by comparing front seqs across the few dozen live classes).
  // Invariant: no deque in the map is ever empty — every pop erases the
  // bucket when it empties it (debug-asserted in EvictOldest).
  std::unordered_map<size_t, std::deque<Parked>> free_;
  size_t retained_doubles_ = 0;
  size_t retained_buffers_ = 0;  // incremental; == sum of free_ deque sizes
  size_t retained_limit_ = kDefaultRetainedLimit;
  uint64_t next_seq_ = 0;
  size_t hits_ = 0;
  size_t misses_ = 0;
  size_t evictions_ = 0;
};

}  // namespace adamgnn::tensor

#endif  // ADAMGNN_TENSOR_WORKSPACE_H_
