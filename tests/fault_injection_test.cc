#include "util/fault_injection.h"

#include <string>

#include "gtest/gtest.h"
#include "util/fallible_io.h"

namespace adamgnn::util {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(FaultInjectorTest, DisarmedNeverFails) {
  FaultInjector& fi = FaultInjector::Instance();
  fi.Disarm();
  EXPECT_FALSE(fi.armed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(fi.ShouldFail(FaultOp::kWrite));
    EXPECT_FALSE(fi.ShouldFail(FaultOp::kFsync));
    EXPECT_FALSE(fi.ShouldFail(FaultOp::kRename));
    EXPECT_FALSE(fi.ShouldPoisonLoss(i));
  }
}

TEST(FaultInjectorTest, FailsExactlyTheNthOperation) {
  FaultPlan plan;
  plan.fail_write_at = 3;
  ScopedFaultPlan scoped(plan);
  FaultInjector& fi = FaultInjector::Instance();
  EXPECT_FALSE(fi.ShouldFail(FaultOp::kWrite));  // 1st
  EXPECT_FALSE(fi.ShouldFail(FaultOp::kWrite));  // 2nd
  EXPECT_TRUE(fi.ShouldFail(FaultOp::kWrite));   // 3rd: boom
  EXPECT_FALSE(fi.ShouldFail(FaultOp::kWrite));  // 4th: only the Nth fails
  // Other op classes are counted independently and unaffected.
  EXPECT_FALSE(fi.ShouldFail(FaultOp::kFsync));
  EXPECT_FALSE(fi.ShouldFail(FaultOp::kRename));
  EXPECT_EQ(fi.OpCount(FaultOp::kWrite), 4);
  EXPECT_EQ(fi.OpCount(FaultOp::kFsync), 1);
  EXPECT_EQ(fi.OpCount(FaultOp::kRename), 1);
}

TEST(FaultInjectorTest, ArmResetsCounters) {
  FaultPlan plan;
  plan.fail_fsync_at = 1;
  FaultInjector& fi = FaultInjector::Instance();
  fi.Arm(plan);
  EXPECT_TRUE(fi.ShouldFail(FaultOp::kFsync));
  fi.Arm(plan);  // re-arm: the next fsync is the 1st again
  EXPECT_EQ(fi.OpCount(FaultOp::kFsync), 0);
  EXPECT_TRUE(fi.ShouldFail(FaultOp::kFsync));
  fi.Disarm();
}

TEST(FaultInjectorTest, LossPoisonFiresOncePerArming) {
  FaultPlan plan;
  plan.poison_loss_epoch = 5;
  ScopedFaultPlan scoped(plan);
  FaultInjector& fi = FaultInjector::Instance();
  EXPECT_FALSE(fi.ShouldPoisonLoss(4));
  EXPECT_TRUE(fi.ShouldPoisonLoss(5));
  // One-shot: a rolled-back retry of epoch 5 is not re-poisoned.
  EXPECT_FALSE(fi.ShouldPoisonLoss(5));
  EXPECT_FALSE(fi.ShouldPoisonLoss(6));
}

TEST(FaultInjectorTest, DeterministicAcrossReruns) {
  FaultPlan plan;
  plan.fail_rename_at = 2;
  for (int run = 0; run < 3; ++run) {
    ScopedFaultPlan scoped(plan);
    FaultInjector& fi = FaultInjector::Instance();
    std::vector<bool> observed;
    for (int i = 0; i < 4; ++i) observed.push_back(fi.ShouldFail(FaultOp::kRename));
    EXPECT_EQ(observed, (std::vector<bool>{false, true, false, false}))
        << "run " << run;
  }
}

TEST(FallibleIoTest, InjectedWriteFailureSurfacesAsStatus) {
  const std::string path = TempPath("fallible_write.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  FaultPlan plan;
  plan.fail_write_at = 1;
  {
    ScopedFaultPlan scoped(plan);
    const char data[] = "abc";
    Status st = FallibleWrite(f, data, sizeof(data), path);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("injected"), std::string::npos);
    // The very next write succeeds — only the planned occurrence fails.
    EXPECT_TRUE(FallibleWrite(f, data, sizeof(data), path).ok());
  }
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(FallibleIoTest, RenameReplacesAtomically) {
  const std::string from = TempPath("rename_from.bin");
  const std::string to = TempPath("rename_to.bin");
  for (const char* contents : {"old", "new"}) {
    std::FILE* f = std::fopen((contents[0] == 'o' ? to : from).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(contents, f);
    std::fclose(f);
  }
  ASSERT_TRUE(FallibleRename(from, to).ok());
  std::FILE* f = std::fopen(to.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[8] = {};
  ASSERT_EQ(std::fread(buf, 1, 3, f), 3u);
  std::fclose(f);
  EXPECT_EQ(std::string(buf), "new");
  std::remove(to.c_str());
}

}  // namespace
}  // namespace adamgnn::util
