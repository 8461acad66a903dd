// Corruption and crash-safety tests for the v2 training-checkpoint format:
// kill-during-save sweeps (fault injection at every write/fsync/rename),
// truncation at every byte offset, bit-flips caught by CRC, legacy v1
// loading, and hostile-header bounds.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace adamgnn::nn {
namespace {

using tensor::Matrix;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::fseek(f, 0, SEEK_END);
  std::string bytes(static_cast<size_t>(std::ftell(f)), '\0');
  std::rewind(f);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

void AppendU64(std::string* buf, uint64_t v) {
  buf->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

// A module + optimizer with non-trivial, distinguishable state.
struct TrainingFixture {
  util::Rng rng;
  Linear layer;
  Adam adam;

  explicit TrainingFixture(uint64_t seed)
      : rng(seed), layer(4, 3, true, &rng), adam(layer.Parameters(), 0.05) {
    Adam::State moments;
    moments.t = 7;
    for (const auto& p : adam.params()) {
      moments.m.push_back(
          Matrix::Gaussian(p.value().rows(), p.value().cols(), 0.1, &rng));
      Matrix v = Matrix::Gaussian(p.value().rows(), p.value().cols(), 0.1, &rng);
      v.Apply([](double x) { return x * x; });
      moments.v.push_back(v);
    }
    adam.SetState(moments).CheckOK();
  }
};

TrainingState MakeState(int marker) {
  TrainingState s;
  s.next_epoch = marker;
  s.best_epoch = marker / 2;
  s.stale_epochs = 2;
  s.lr_retries = 1;
  s.best_val = 0.75;
  s.best_train_metric = 0.9;
  s.best_val_metric = 0.75;
  s.best_test_metric = 0.7;
  s.learning_rate = 0.025;
  s.total_epoch_seconds = 1.5;
  s.rng_state = util::Rng(123).SaveState();
  RecoveryEvent e;
  e.epoch = 3;
  e.kind = RecoveryEvent::Kind::kNonFiniteGrad;
  e.lr_before = 0.05;
  e.lr_after = 0.025;
  s.recovery_events = {e};
  return s;
}

TEST(TrainingCheckpointTest, RoundTripRestoresEverything) {
  TrainingFixture saved(1);
  const std::string path = TempPath("full_roundtrip.ckpt");
  ASSERT_TRUE(SaveTrainingCheckpoint(saved.layer.Parameters(), saved.adam,
                                     MakeState(11), path)
                  .ok());

  TrainingFixture restored(99);  // different init everywhere
  auto params = restored.layer.Parameters();
  auto loaded = LoadTrainingCheckpoint(path, &params, &restored.adam);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const TrainingState& st = loaded.ValueOrDie();

  auto expect_params = saved.layer.Parameters();
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(params[i].value() == expect_params[i].value()) << i;
  }
  Adam::State a = saved.adam.GetState();
  Adam::State b = restored.adam.GetState();
  EXPECT_EQ(a.t, b.t);
  for (size_t i = 0; i < a.m.size(); ++i) {
    EXPECT_TRUE(a.m[i] == b.m[i]) << i;
    EXPECT_TRUE(a.v[i] == b.v[i]) << i;
  }
  EXPECT_EQ(st.next_epoch, 11);
  EXPECT_EQ(st.best_epoch, 5);
  EXPECT_EQ(st.stale_epochs, 2);
  EXPECT_EQ(st.lr_retries, 1);
  EXPECT_DOUBLE_EQ(st.best_val, 0.75);
  EXPECT_DOUBLE_EQ(st.learning_rate, 0.025);
  EXPECT_EQ(st.rng_state, util::Rng(123).SaveState());
  ASSERT_EQ(st.recovery_events.size(), 1u);
  EXPECT_EQ(st.recovery_events[0].epoch, 3);
  EXPECT_EQ(st.recovery_events[0].kind, RecoveryEvent::Kind::kNonFiniteGrad);
  EXPECT_DOUBLE_EQ(st.recovery_events[0].lr_after, 0.025);
}

TEST(TrainingCheckpointTest, ParamsOnlyFileIsRejected) {
  TrainingFixture f(2);
  const std::string path = TempPath("params_only.ckpt");
  ASSERT_TRUE(SaveParameters(f.layer.Parameters(), path).ok());
  auto params = f.layer.Parameters();
  auto loaded = LoadTrainingCheckpoint(path, &params, &f.adam);
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kFailedPrecondition);
}

// ---- kill-during-save: every write/fsync/rename step ------------------

TEST(TrainingCheckpointTest, KillDuringSaveAtEveryStepPreservesPrevious) {
  TrainingFixture good(3);
  const std::string path = TempPath("kill_sweep.ckpt");
  ASSERT_TRUE(SaveTrainingCheckpoint(good.layer.Parameters(), good.adam,
                                     MakeState(11), path)
                  .ok());
  const std::string good_bytes = ReadFileBytes(path);

  // A run that has progressed further and now tries to checkpoint over the
  // good file.
  TrainingFixture next(4);

  // Dry run against a scratch path with an armed-but-harmless plan to
  // count how many fallible steps one save performs.
  util::FaultInjector& fi = util::FaultInjector::Instance();
  fi.Arm(util::FaultPlan{});
  ASSERT_TRUE(SaveTrainingCheckpoint(next.layer.Parameters(), next.adam,
                                     MakeState(22), TempPath("scratch.ckpt"))
                  .ok());
  const int writes = fi.OpCount(util::FaultOp::kWrite);
  const int fsyncs = fi.OpCount(util::FaultOp::kFsync);
  const int renames = fi.OpCount(util::FaultOp::kRename);
  fi.Disarm();
  ASSERT_GE(writes, 4);  // header + three sections
  ASSERT_GE(fsyncs, 1);
  ASSERT_GE(renames, 1);

  auto sweep = [&](util::FaultOp op, int steps) {
    for (int n = 1; n <= steps; ++n) {
      util::FaultPlan plan;
      switch (op) {
        case util::FaultOp::kWrite: plan.fail_write_at = n; break;
        case util::FaultOp::kFsync: plan.fail_fsync_at = n; break;
        case util::FaultOp::kRename: plan.fail_rename_at = n; break;
        // Checkpoint writes never allocate through the fault hooks or poll
        // a deadline; the sweep does not visit these ops.
        case util::FaultOp::kAlloc: break;
        case util::FaultOp::kDeadlineCheck: break;
      }
      util::ScopedFaultPlan scoped(plan);
      util::Status st = SaveTrainingCheckpoint(
          next.layer.Parameters(), next.adam, MakeState(22), path);
      ASSERT_FALSE(st.ok()) << "op " << static_cast<int>(op) << " step " << n;
      EXPECT_NE(st.message().find("injected"), std::string::npos);
      // The previous checkpoint is byte-identical — not just loadable.
      EXPECT_EQ(ReadFileBytes(path), good_bytes)
          << "op " << static_cast<int>(op) << " step " << n;
      // No temp-file debris.
      EXPECT_FALSE(FileExists(path + ".tmp"));
      // And it still parses with valid CRCs into the original state.
      TrainingFixture target(5);
      auto params = target.layer.Parameters();
      auto loaded = LoadTrainingCheckpoint(path, &params, &target.adam);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_EQ(loaded.ValueOrDie().next_epoch, 11);
    }
  };
  sweep(util::FaultOp::kWrite, writes);
  sweep(util::FaultOp::kFsync, fsyncs);
  sweep(util::FaultOp::kRename, renames);

  // With the injector disarmed the same save goes through atomically.
  ASSERT_TRUE(SaveTrainingCheckpoint(next.layer.Parameters(), next.adam,
                                     MakeState(22), path)
                  .ok());
  TrainingFixture target(6);
  auto params = target.layer.Parameters();
  auto loaded = LoadTrainingCheckpoint(path, &params, &target.adam);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.ValueOrDie().next_epoch, 22);
}

// ---- corruption: truncation and bit flips -----------------------------

TEST(TrainingCheckpointTest, TruncationAtEveryByteIsRejected) {
  TrainingFixture f(7);
  const std::string path = TempPath("trunc_sweep.ckpt");
  ASSERT_TRUE(SaveTrainingCheckpoint(f.layer.Parameters(), f.adam,
                                     MakeState(11), path)
                  .ok());
  const std::string bytes = ReadFileBytes(path);
  const std::string cut_path = TempPath("trunc_cut.ckpt");
  TrainingFixture target(8);
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(cut_path, bytes.substr(0, len));
    auto params = target.layer.Parameters();
    auto loaded = LoadTrainingCheckpoint(cut_path, &params, &target.adam);
    EXPECT_FALSE(loaded.ok()) << "accepted a checkpoint truncated to " << len
                              << " of " << bytes.size() << " bytes";
  }
}

TEST(TrainingCheckpointTest, EveryByteFlipIsRejected) {
  TrainingFixture f(9);
  const std::string path = TempPath("flip_sweep.ckpt");
  ASSERT_TRUE(SaveTrainingCheckpoint(f.layer.Parameters(), f.adam,
                                     MakeState(11), path)
                  .ok());
  const std::string bytes = ReadFileBytes(path);
  const std::string flip_path = TempPath("flip_cut.ckpt");
  TrainingFixture target(10);
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupted = bytes;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x20);
    WriteFileBytes(flip_path, corrupted);
    auto params = target.layer.Parameters();
    auto loaded = LoadTrainingCheckpoint(flip_path, &params, &target.adam);
    EXPECT_FALSE(loaded.ok())
        << "accepted a checkpoint with byte " << i << " flipped";
  }
}

TEST(TrainingCheckpointTest, PayloadBitFlipReportsChecksumMismatch) {
  TrainingFixture f(11);
  const std::string path = TempPath("crc_msg.ckpt");
  ASSERT_TRUE(SaveTrainingCheckpoint(f.layer.Parameters(), f.adam,
                                     MakeState(11), path)
                  .ok());
  std::string bytes = ReadFileBytes(path);
  // Flip a byte well inside the first section's tensor data: after the
  // 8-byte file header, the 12-byte section header, and the 8-byte count.
  const size_t offset = 8 + 12 + 8 + 16 + 4;
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0xFF);
  WriteFileBytes(path, bytes);
  auto params = f.layer.Parameters();
  util::Status st = LoadParameters(path, &params);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("checksum mismatch"), std::string::npos)
      << st.ToString();
}

// ---- legacy v1 and hostile headers ------------------------------------

// Hand-writes a v1 file: magic, version 1, count, then rows/cols/doubles.
std::string BuildV1File(const std::vector<Matrix>& tensors) {
  std::string buf;
  const uint32_t magic = 0x41444d47, version = 1;
  buf.append(reinterpret_cast<const char*>(&magic), 4);
  buf.append(reinterpret_cast<const char*>(&version), 4);
  AppendU64(&buf, tensors.size());
  for (const Matrix& m : tensors) {
    AppendU64(&buf, m.rows());
    AppendU64(&buf, m.cols());
    buf.append(reinterpret_cast<const char*>(m.data()),
               m.size() * sizeof(double));
  }
  return buf;
}

TEST(LegacyV1Test, V1FileStillLoads) {
  util::Rng rng(12);
  Linear saved(4, 3, true, &rng);
  std::vector<Matrix> tensors;
  for (const auto& p : saved.Parameters()) tensors.push_back(p.value());
  const std::string path = TempPath("legacy.ckpt");
  WriteFileBytes(path, BuildV1File(tensors));

  util::Rng rng2(13);
  Linear target(4, 3, true, &rng2);
  auto params = target.Parameters();
  util::Status st = LoadParameters(path, &params);
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(params[i].value() == tensors[i]) << i;
  }
  // But a v1 file can never be a *training* checkpoint.
  Adam adam(target.Parameters(), 0.01);
  auto loaded = LoadTrainingCheckpoint(path, &params, &adam);
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(LegacyV1Test, TrailingBytesAfterLastTensorRejected) {
  util::Rng rng(14);
  Linear saved(2, 2, false, &rng);
  std::string bytes = BuildV1File({saved.Parameters()[0].value()});
  bytes += "junk";
  const std::string path = TempPath("legacy_trailing.ckpt");
  WriteFileBytes(path, bytes);
  auto params = saved.Parameters();
  util::Status st = LoadParameters(path, &params);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("trailing bytes"), std::string::npos)
      << st.ToString();
}

TEST(HostileHeaderTest, ImplausibleShapeRejectedBeforeAllocation) {
  // Declares one tensor of 2^26 x 2^26 doubles (2^52 elements, ~32 PiB):
  // each dimension passes a naive per-dimension check, so only an
  // overflow-aware product bound catches it.
  std::string buf;
  const uint32_t magic = 0x41444d47, version = 1;
  buf.append(reinterpret_cast<const char*>(&magic), 4);
  buf.append(reinterpret_cast<const char*>(&version), 4);
  AppendU64(&buf, 1);
  AppendU64(&buf, uint64_t{1} << 26);
  AppendU64(&buf, uint64_t{1} << 26);
  const std::string path = TempPath("hostile_shape.ckpt");
  WriteFileBytes(path, buf);

  util::Rng rng(15);
  Linear target(2, 2, false, &rng);
  auto params = target.Parameters();
  util::Status st = LoadParameters(path, &params);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("implausible tensor shape"), std::string::npos)
      << st.ToString();
}

TEST(HostileHeaderTest, DeclaredSizeBeyondFileRejected) {
  // A plausible shape (8x8) but the file ends after the header: the loader
  // must notice the declared data exceeds the remaining bytes.
  std::string buf;
  const uint32_t magic = 0x41444d47, version = 1;
  buf.append(reinterpret_cast<const char*>(&magic), 4);
  buf.append(reinterpret_cast<const char*>(&version), 4);
  AppendU64(&buf, 1);
  AppendU64(&buf, 8);
  AppendU64(&buf, 8);
  buf.append(16, '\0');  // far less than 8*8*8 bytes
  const std::string path = TempPath("hostile_size.ckpt");
  WriteFileBytes(path, buf);

  util::Rng rng(16);
  Linear target(8, 8, false, &rng);
  auto params = target.Parameters();
  EXPECT_FALSE(LoadParameters(path, &params).ok());
}

TEST(HostileHeaderTest, V2SectionLengthBeyondFileRejected) {
  TrainingFixture f(17);
  const std::string path = TempPath("hostile_len.ckpt");
  ASSERT_TRUE(SaveParameters(f.layer.Parameters(), path).ok());
  std::string bytes = ReadFileBytes(path);
  // Inflate the first section's declared length (u64 at offset 12).
  uint64_t huge = uint64_t{1} << 60;
  std::memcpy(bytes.data() + 12, &huge, sizeof(huge));
  WriteFileBytes(path, bytes);
  auto params = f.layer.Parameters();
  EXPECT_FALSE(LoadParameters(path, &params).ok());
}

// ---- container geometry + section-boundary truncation ------------------

TEST(InspectCheckpointTest, ReportsSectionGeometry) {
  TrainingFixture f(21);
  const std::string full_path = TempPath("inspect_full.ckpt");
  ASSERT_TRUE(SaveTrainingCheckpoint(f.layer.Parameters(), f.adam,
                                     MakeState(11), full_path)
                  .ok());
  auto info = InspectCheckpoint(full_path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.ValueOrDie().version, 2u);
  // params + optimizer + training state.
  EXPECT_EQ(info.ValueOrDie().section_tags,
            (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(info.ValueOrDie().num_param_tensors,
            f.layer.Parameters().size());
  // The declared payloads plus header and per-section framing must account
  // for the whole file — no hidden or trailing bytes.
  size_t expected = 8;
  for (uint64_t len : info.ValueOrDie().section_payload_sizes) {
    expected += 4 + 8 + static_cast<size_t>(len) + 4;
  }
  EXPECT_EQ(ReadFileBytes(full_path).size(), expected);

  const std::string params_path = TempPath("inspect_params.ckpt");
  ASSERT_TRUE(SaveParameters(f.layer.Parameters(), params_path).ok());
  auto params_info = InspectCheckpoint(params_path);
  ASSERT_TRUE(params_info.ok());
  EXPECT_EQ(params_info.ValueOrDie().section_tags,
            (std::vector<uint32_t>{1}));

  // Corruption surfaces through Inspect with the loader's taxonomy.
  std::string bytes = ReadFileBytes(params_path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
  WriteFileBytes(params_path, bytes);
  EXPECT_EQ(InspectCheckpoint(params_path).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(TrainingCheckpointTest, TruncationAtEverySectionBoundaryIsRejected) {
  TrainingFixture f(22);
  const std::string path = TempPath("section_boundaries.ckpt");
  ASSERT_TRUE(SaveTrainingCheckpoint(f.layer.Parameters(), f.adam,
                                     MakeState(11), path)
                  .ok());
  const std::string bytes = ReadFileBytes(path);
  auto info = InspectCheckpoint(path);
  ASSERT_TRUE(info.ok());

  // Every structural boundary in the v2 container: mid-header, post-header,
  // then for each section after the tag, after the length, after the
  // payload, and after the CRC (the last one being the next section's
  // start; the final section's CRC boundary is the full file, skipped).
  std::vector<size_t> boundaries = {0, 4, 8};
  size_t offset = 8;
  for (uint64_t len : info.ValueOrDie().section_payload_sizes) {
    boundaries.push_back(offset + 4);
    boundaries.push_back(offset + 4 + 8);
    boundaries.push_back(offset + 4 + 8 + static_cast<size_t>(len));
    offset += 4 + 8 + static_cast<size_t>(len) + 4;
    if (offset < bytes.size()) boundaries.push_back(offset);
  }
  const std::string cut_path = TempPath("section_boundary_cut.ckpt");
  for (size_t cut : boundaries) {
    ASSERT_LT(cut, bytes.size());
    WriteFileBytes(cut_path, bytes.substr(0, cut));
    TrainingFixture g(23);
    auto params = g.layer.Parameters();
    auto loaded = LoadTrainingCheckpoint(cut_path, &params, &g.adam);
    EXPECT_FALSE(loaded.ok()) << "cut at " << cut << " loaded";
    // Always the loader's taxonomy — never a crash, never Internal.
    EXPECT_TRUE(loaded.status().code() == util::StatusCode::kInvalidArgument ||
                loaded.status().code() ==
                    util::StatusCode::kFailedPrecondition)
        << "cut at " << cut << ": " << loaded.status().ToString();
  }
}

// ---- snapshot/restore around a failed load -----------------------------

TEST(ParameterSnapshotTest, RestoreAfterFailedLoadIsBitwiseUntouched) {
  TrainingFixture f(24);
  std::vector<autograd::Variable> params = f.layer.Parameters();
  ParameterSnapshot snapshot(params);

  std::vector<Matrix> original;
  for (const auto& p : params) original.push_back(p.value());

  // A checkpoint with valid framing and CRCs whose FIRST tensor matches our
  // module (different values) but whose SECOND has the wrong shape: the
  // loader overwrites tensor 0 in place, then fails on tensor 1 — the
  // worst case for a caller without a snapshot.
  util::Rng rng(25);
  std::vector<autograd::Variable> half_matching = {
      autograd::Variable::Parameter(
          Matrix::Gaussian(params[0].rows(), params[0].cols(), 1.0, &rng)),
      autograd::Variable::Parameter(Matrix::Gaussian(7, 7, 1.0, &rng)),
  };
  ASSERT_EQ(params.size(), half_matching.size());
  const std::string path = TempPath("snapshot_failed_load.ckpt");
  ASSERT_TRUE(SaveParameters(half_matching, path).ok());
  ASSERT_FALSE(LoadParameters(path, &params).ok());
  // The failed load really did clobber tensor 0 (this is what makes the
  // snapshot necessary, not just nice).
  EXPECT_NE(std::memcmp(params[0].value().data(), original[0].data(),
                        original[0].rows() * original[0].cols() *
                            sizeof(double)),
            0);

  // Whatever the failed load touched, Restore must put every byte back.
  snapshot.Restore();
  for (size_t i = 0; i < params.size(); ++i) {
    const Matrix& now = params[i].value();
    ASSERT_EQ(now.rows(), original[i].rows());
    ASSERT_EQ(now.cols(), original[i].cols());
    EXPECT_EQ(std::memcmp(now.data(), original[i].data(),
                          now.rows() * now.cols() * sizeof(double)),
              0)
        << "tensor " << i << " not restored bitwise";
  }
}

TEST(TrainingCheckpointTest, ShapeAndCountMismatchMessages) {
  TrainingFixture f(18);
  const std::string path = TempPath("mismatch.ckpt");
  ASSERT_TRUE(SaveTrainingCheckpoint(f.layer.Parameters(), f.adam,
                                     MakeState(11), path)
                  .ok());

  util::Rng rng(19);
  Linear other_shape(3, 4, true, &rng);  // transposed layout
  Adam other_adam(other_shape.Parameters(), 0.01);
  auto params = other_shape.Parameters();
  auto loaded = LoadTrainingCheckpoint(path, &params, &other_adam);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("shape mismatch"),
            std::string::npos);

  Linear fewer(4, 3, false, &rng);  // 1 tensor instead of 2
  Adam fewer_adam(fewer.Parameters(), 0.01);
  auto fewer_params = fewer.Parameters();
  auto loaded2 = LoadTrainingCheckpoint(path, &fewer_params, &fewer_adam);
  ASSERT_FALSE(loaded2.ok());
  EXPECT_NE(loaded2.status().message().find("tensors, module has"),
            std::string::npos);
}

}  // namespace
}  // namespace adamgnn::nn
