#include "tensor/workspace.h"

#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/kernels.h"
#include "tensor/matrix.h"
#include "util/random.h"

namespace adamgnn::tensor {
namespace {

TEST(WorkspaceTest, UnboundThreadHasNoWorkspace) {
  EXPECT_EQ(Workspace::Current(), nullptr);
  // Matrices still work off plain allocation; destruction releases nowhere.
  Matrix m(3, 4, 1.5);
  EXPECT_DOUBLE_EQ(m(2, 3), 1.5);
}

TEST(WorkspaceTest, BindIsScopedAndNestable) {
  Workspace outer, inner;
  EXPECT_EQ(Workspace::Current(), nullptr);
  {
    Workspace::Bind b1(&outer);
    EXPECT_EQ(Workspace::Current(), &outer);
    {
      Workspace::Bind b2(&inner);
      EXPECT_EQ(Workspace::Current(), &inner);
    }
    EXPECT_EQ(Workspace::Current(), &outer);
  }
  EXPECT_EQ(Workspace::Current(), nullptr);
}

TEST(WorkspaceTest, DestroyedMatrixBufferIsReusedAndRefilled) {
  Workspace ws;
  Workspace::Bind bind(&ws);
  { Matrix scratch(8, 8, 3.0); }  // parked on destruction
  Workspace::Stats s = ws.stats();
  EXPECT_EQ(s.retained_buffers, 1u);
  EXPECT_EQ(s.retained_doubles, 64u);
  EXPECT_EQ(s.misses, 1u);

  Matrix reused(8, 8);  // same element count -> freelist hit
  s = ws.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.retained_buffers, 0u);
  // The recycled buffer held 3.0s; the fill must have overwritten them all.
  for (size_t r = 0; r < 8; ++r) {
    for (size_t c = 0; c < 8; ++c) EXPECT_EQ(reused(r, c), 0.0);
  }
}

TEST(WorkspaceTest, UninitAcquireSkipsTheFillOnRecycledBuffers) {
  Workspace ws;
  Workspace::Bind bind(&ws);
  { Matrix scratch(8, 8, 3.0); }  // parked on destruction
  // The recycled buffer's stale 3.0s must still be there: skipping the fill
  // pass is the whole point of the uninitialized acquire.
  Matrix reused = Matrix::Uninit(8, 8);
  Workspace::Stats s = ws.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.retained_buffers, 0u);
  for (size_t r = 0; r < 8; ++r) {
    for (size_t c = 0; c < 8; ++c) EXPECT_EQ(reused(r, c), 3.0);
  }
}

TEST(WorkspaceTest, UninitAcquireIsZeroedOffTheFreelist) {
  // Freelist misses and unbound threads fall back to plain vectors, which
  // value-initialize: Uninit is then just Zeros.
  Workspace ws;
  Workspace::Bind bind(&ws);
  Matrix fresh = Matrix::Uninit(4, 4);  // miss: nothing parked yet
  EXPECT_EQ(ws.stats().misses, 1u);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 4; ++c) EXPECT_EQ(fresh(r, c), 0.0);
  }
}

TEST(WorkspaceTest, ReuseIsKeyedByElementCountNotShape) {
  Workspace ws;
  Workspace::Bind bind(&ws);
  { Matrix scratch(8, 8, 1.0); }
  Matrix reshaped(4, 16, 2.0);  // 64 doubles either way
  EXPECT_EQ(ws.stats().hits, 1u);
  EXPECT_DOUBLE_EQ(reshaped(3, 15), 2.0);
}

TEST(WorkspaceTest, ReuseRoundsUpToTheSizeClass) {
  Workspace ws;
  Workspace::Bind bind(&ws);
  { Matrix scratch(8, 8, 1.0); }  // parked with capacity 64
  // 45 doubles draws from class 64: shapes that drift between epochs still
  // reuse each other's storage instead of stacking dead exact-size entries.
  Matrix smaller(5, 9, 2.0);
  EXPECT_EQ(ws.stats().hits, 1u);
  EXPECT_EQ(ws.stats().retained_buffers, 0u);
  EXPECT_DOUBLE_EQ(smaller(4, 8), 2.0);
}

TEST(WorkspaceTest, RetainedLimitEvictsOldestFirst) {
  Workspace ws;
  Workspace::Bind bind(&ws);
  ws.set_retained_limit(70);
  { Matrix a(8, 8, 1.0); }  // parks capacity 64
  EXPECT_EQ(ws.stats().retained_buffers, 1u);
  { Matrix b(4, 4, 2.0); }  // parks capacity 16: 80 > 70, a's buffer goes
  Workspace::Stats s = ws.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.retained_buffers, 1u);
  EXPECT_EQ(s.retained_doubles, 16u);  // the newest buffer is the survivor
}

TEST(WorkspaceTest, ZeroRetainedLimitParksNothing) {
  Workspace ws;
  Workspace::Bind bind(&ws);
  ws.set_retained_limit(0);
  { Matrix m(5, 5, 1.0); }  // parked, then immediately evicted by the cap
  EXPECT_EQ(ws.stats().retained_buffers, 0u);
  EXPECT_EQ(ws.stats().retained_doubles, 0u);
  EXPECT_EQ(ws.stats().evictions, 1u);
}

TEST(WorkspaceTest, CopyDrawsFromArenaAndPreservesContents) {
  Workspace ws;
  Workspace::Bind bind(&ws);
  { Matrix scratch(40, 30, 7.0); }  // park a same-size victim buffer
  util::Rng rng(17);
  Matrix src = Matrix::Gaussian(40, 30, 1.0, &rng);
  Matrix copy(src);  // served from the freelist, then overwritten
  EXPECT_GE(ws.stats().hits, 1u);
  EXPECT_TRUE(copy == src);
}

TEST(WorkspaceTest, MoveAssignmentParksTheDisplacedBuffer) {
  Workspace ws;
  Workspace::Bind bind(&ws);
  Matrix a(3, 3, 1.0);
  Matrix b(2, 2, 2.0);
  a = std::move(b);
  EXPECT_EQ(a.rows(), 2u);
  EXPECT_DOUBLE_EQ(a(1, 1), 2.0);
  // a's original buffer (9 doubles padded to its 16-double class) must have
  // been parked, not leaked or freed behind the arena's back.
  EXPECT_EQ(ws.stats().retained_doubles, 16u);
}

TEST(WorkspaceTest, CopyAssignmentOfSameSizeReusesOwnBuffer) {
  Workspace ws;
  Workspace::Bind bind(&ws);
  Matrix a(4, 4, 1.0);
  Matrix b(4, 4, 2.0);
  const Workspace::Stats before = ws.stats();
  a = b;  // in-place overwrite: no arena traffic at all
  const Workspace::Stats after = ws.stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.retained_buffers, before.retained_buffers);
  EXPECT_TRUE(a == b);
}

TEST(WorkspaceTest, ClearDropsParkedBuffers) {
  Workspace ws;
  Workspace::Bind bind(&ws);
  { Matrix a(6, 6, 1.0), b(2, 3, 2.0); }
  EXPECT_EQ(ws.stats().retained_buffers, 2u);
  ws.Clear();
  EXPECT_EQ(ws.stats().retained_buffers, 0u);
  EXPECT_EQ(ws.stats().retained_doubles, 0u);
}

TEST(WorkspaceTest, EvictionAccountingStaysConsistentAcrossSizeClasses) {
  Workspace ws;
  Workspace::Bind bind(&ws);
  ws.set_retained_limit(64 + 16 + 4);
  { Matrix a(2, 2, 1.0); }  // class 4
  { Matrix b(4, 4, 2.0); }  // class 16
  { Matrix c(8, 8, 3.0); }  // class 64: exactly at the cap, nothing evicted
  Workspace::Stats s = ws.stats();
  EXPECT_EQ(s.retained_buffers, 3u);
  EXPECT_EQ(s.retained_doubles, 84u);
  EXPECT_EQ(s.evictions, 0u);

  // Class 256 has nothing parked, so this is a miss on acquire; parking it
  // blows through the cap and the drain must walk oldest-first across every
  // size class — including the newcomer itself — without losing count.
  { Matrix d(16, 16, 4.0); }
  s = ws.stats();
  EXPECT_EQ(s.evictions, 4u);
  EXPECT_EQ(s.retained_buffers, 0u);
  EXPECT_EQ(s.retained_doubles, 0u);

  // Refill and Clear: both tallies return to zero together.
  ws.set_retained_limit(1 << 20);
  { Matrix e(6, 6, 5.0); }
  s = ws.stats();
  EXPECT_EQ(s.retained_buffers, 1u);
  EXPECT_EQ(s.retained_doubles, 64u);
  ws.Clear();
  s = ws.stats();
  EXPECT_EQ(s.retained_buffers, 0u);
  EXPECT_EQ(s.retained_doubles, 0u);
}

TEST(WorkspaceTest, BuffersMigrateAcrossThreadsSafely) {
  Workspace ws;
  Workspace::Bind bind(&ws);
  Matrix from_worker;
  std::thread worker([&] {
    // The worker has no binding: plain allocation.
    EXPECT_EQ(Workspace::Current(), nullptr);
    from_worker = Matrix(6, 6, 2.5);
  });
  worker.join();
  EXPECT_DOUBLE_EQ(from_worker(5, 5), 2.5);
  from_worker = Matrix();  // destroyed on the bound thread: buffer donated
  EXPECT_GE(ws.stats().retained_doubles, 36u);
}

TEST(WorkspaceTest, ArenaNeverChangesNumericResults) {
  // The same computation, with enough temporaries to cycle the freelist,
  // must be bitwise-identical on an unbound thread (plain allocation), a
  // bound one, and a bound one reusing parked buffers.
  auto compute = [] {
    util::Rng rng(99);
    Matrix a = Matrix::Gaussian(40, 30, 1.0, &rng);
    Matrix b = Matrix::Gaussian(30, 20, 1.0, &rng);
    Matrix c = MatMul(a, b);
    Matrix d = MatMul(b, c.Transposed());
    return MatMul(d, c);
  };
  ASSERT_EQ(Workspace::Current(), nullptr);
  const Matrix expect = compute();
  Workspace ws;
  Workspace::Bind bind(&ws);
  for (int i = 0; i < 3; ++i) {  // later rounds run on recycled buffers
    EXPECT_TRUE(compute() == expect) << "round " << i;
  }
  EXPECT_GT(ws.stats().hits, 0u);
}

}  // namespace
}  // namespace adamgnn::tensor
