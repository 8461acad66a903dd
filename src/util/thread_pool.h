// Shared threading subsystem: a persistent worker pool plus ParallelFor
// helpers with deterministic static range partitioning.
//
// Determinism contract: the decomposition of an index range into chunks is a
// pure function of (begin, end, grain) — it never depends on the configured
// thread count or on scheduling. Chunk c is executed by participant
// (c % threads), so any kernel whose chunks write disjoint outputs (or whose
// per-chunk partials are merged in chunk order) produces bitwise-identical
// results at every thread count, including the serial threads == 1 path,
// which bypasses the pool entirely and runs the same chunks in order.

#ifndef ADAMGNN_UTIL_THREAD_POOL_H_
#define ADAMGNN_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace adamgnn::util {

/// Number of threads kernels may use. Resolution order: SetNumThreads(n > 0)
/// if called, else the ADAMGNN_NUM_THREADS environment variable, else
/// std::thread::hardware_concurrency(). Always >= 1.
int NumThreads();

/// Fixes the thread count (n >= 1), or restores the environment/hardware
/// default (n == 0). Thread-safe; takes effect on the next ParallelFor.
void SetNumThreads(int n);

/// Parallelism the machine can actually deliver to the pool:
/// min(NumThreads(), hardware_concurrency), always >= 1. The adaptive
/// kernel-strategy selectors (tensor/tuning.h) consult this to skip pool
/// dispatch when extra workers cannot help (e.g. a 4-thread pool pinned to
/// one core). Safe for deterministic kernels ONLY because every strategy of
/// the sparse engine produces identical bits — the choice changes speed,
/// never results.
int EffectiveParallelism();

/// One chunk of an index range: [begin, end).
struct ChunkRange {
  size_t begin = 0;
  size_t end = 0;
};

/// Splits [begin, end) into ceil((end-begin)/grain) chunks of `grain`
/// consecutive indices (the last chunk may be short). grain < 1 is treated
/// as 1. The decomposition depends only on the arguments, never on the
/// thread count.
std::vector<ChunkRange> SplitRange(size_t begin, size_t end, size_t grain);

/// Runs fn(chunk_index) for every chunk in [0, num_chunks) across the global
/// pool, chunk c on participant (c % NumThreads()). Blocks until all chunks
/// have run. With NumThreads() == 1, a single chunk, or when called from
/// inside a pool worker (nested parallelism), runs every chunk inline on the
/// calling thread in ascending order. fn must not throw.
void ParallelForChunks(size_t num_chunks, const std::function<void(size_t)>& fn);

/// Splits [begin, end) with SplitRange and runs fn(chunk_begin, chunk_end)
/// for every chunk via ParallelForChunks. The caller's thread participates.
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn);

/// Persistent worker pool behind ParallelFor. Workers are spawned lazily on
/// first parallel use and live for the process lifetime; an idle pool only
/// holds sleeping threads. Exposed for tests and for callers that need the
/// raw chunk-index form with an explicit participant count.
class ThreadPool {
 public:
  /// The process-wide pool.
  static ThreadPool& Global();

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Executes fn(c) for c in [0, num_chunks), statically assigning chunk c
  /// to participant (c % participants). Participant 0 is the calling thread;
  /// the rest are pool workers. Blocks until every chunk has run. Runs
  /// inline when participants <= 1, num_chunks <= 1, or when invoked from a
  /// pool worker.
  void Run(size_t num_chunks, size_t participants,
           const std::function<void(size_t)>& fn);

  /// Workers currently spawned (grows on demand, never shrinks).
  size_t num_workers();

 private:
  ThreadPool() = default;

  void WorkerLoop(size_t worker_index);
  /// Spawns workers until at least `count` exist. Caller holds mu_.
  void EnsureWorkersLocked(size_t count);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a new job epoch is available
  std::condition_variable done_cv_;  // caller: all participants finished
  std::vector<std::thread> workers_;
  bool shutdown_ = false;

  // Current job, valid while active_ > 0.
  uint64_t epoch_ = 0;
  const std::function<void(size_t)>* job_fn_ = nullptr;
  size_t job_chunks_ = 0;
  size_t job_participants_ = 0;
  size_t active_ = 0;  // participants (caller included) still working
};

}  // namespace adamgnn::util

#endif  // ADAMGNN_UTIL_THREAD_POOL_H_
