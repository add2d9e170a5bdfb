// Tests for the runtime DAP violation detector (src/common/dap_check.h):
// planted cross-core accesses must be reported, sanctioned patterns
// (own-partition access, unbound inspection, suspended maintenance) must not.

#include "src/common/dap_check.h"

#include <thread>

#include <gtest/gtest.h>

#include "src/store/trecord.h"

namespace meerkat {
namespace {

#if MEERKAT_DAP_CHECK

class DapCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DapAudit::SetMode(DapMode::kCount);
    DapAudit::ResetViolations();
  }
  void TearDown() override {
    DapAudit::SetMode(DapMode::kCount);
    DapAudit::ResetViolations();
  }
};

TxnId Tid(uint64_t seq) { return TxnId{7, seq}; }

TEST_F(DapCheckTest, OwnPartitionAccessUnderScopeIsClean) {
  TRecord trecord(4);
  for (uint32_t core = 0; core < 4; core++) {
    DapCoreScope scope(core);
    trecord.Partition(core).GetOrCreate(Tid(core));
    trecord.Partition(core).Find(Tid(core));
  }
  EXPECT_EQ(DapAudit::violations(), 0u);
}

TEST_F(DapCheckTest, CrossPartitionAccessUnderScopeIsReported) {
  TRecord trecord(4);
  DapCoreScope scope(0);
  trecord.Partition(1).GetOrCreate(Tid(1));
  EXPECT_EQ(DapAudit::violations(), 1u);
  trecord.Partition(2).Find(Tid(2));
  trecord.Partition(3).TrimBelow(Timestamp{1, 0});
  EXPECT_EQ(DapAudit::violations(), 3u);
}

TEST_F(DapCheckTest, ScopeMapsCoresModuloPartitionCount) {
  // Partition() wraps core ids; the detector must use the same modulo, so
  // core 5 of a 4-partition trecord legally touches partition 1.
  TRecord trecord(4);
  DapCoreScope scope(5);
  trecord.Partition(5).GetOrCreate(Tid(5));
  EXPECT_EQ(DapAudit::violations(), 0u);
}

TEST_F(DapCheckTest, ScopesNestAndRestore) {
  TRecord trecord(2);
  DapCoreScope outer(0);
  {
    DapCoreScope inner(1);
    EXPECT_EQ(DapCoreScope::CurrentCore(), 1);
    trecord.Partition(1).GetOrCreate(Tid(1));
  }
  EXPECT_EQ(DapCoreScope::CurrentCore(), 0);
  trecord.Partition(0).GetOrCreate(Tid(0));
  EXPECT_EQ(DapAudit::violations(), 0u);
}

TEST_F(DapCheckTest, UnscopedUnboundAccessIsExempt) {
  // Quiesced inspection from a test main thread: neither scoped nor bound,
  // so touching every partition is not a violation.
  TRecord trecord(4);
  for (uint32_t core = 0; core < 4; core++) {
    trecord.Partition(core).GetOrCreate(Tid(core));
  }
  EXPECT_EQ(DapAudit::violations(), 0u);
}

TEST_F(DapCheckTest, SuspendSilencesChecks) {
  TRecord trecord(4);
  DapCoreScope scope(0);
  {
    DapAuditSuspend suspend;
    trecord.Partition(3).GetOrCreate(Tid(3));  // Would violate unsuspended.
  }
  EXPECT_EQ(DapAudit::violations(), 0u);
  trecord.Partition(3).Find(Tid(3));
  EXPECT_EQ(DapAudit::violations(), 1u);
}

TEST_F(DapCheckTest, OffModeDisablesChecks) {
  DapAudit::SetMode(DapMode::kOff);
  TRecord trecord(4);
  DapCoreScope scope(0);
  trecord.Partition(1).GetOrCreate(Tid(1));
  EXPECT_EQ(DapAudit::violations(), 0u);
}

TEST_F(DapCheckTest, TwoBoundThreadsOnSamePartitionIsReported) {
  TRecord trecord(2);
  // First bound thread stamps partition 0.
  std::thread t1([&] {
    DapAudit::BindCurrentThread();
    trecord.Partition(0).GetOrCreate(Tid(1));
  });
  t1.join();
  EXPECT_EQ(DapAudit::violations(), 0u);
  // A different bound thread touching the same partition is the violation.
  std::thread t2([&] {
    DapAudit::BindCurrentThread();
    trecord.Partition(0).Find(Tid(1));
  });
  t2.join();
  EXPECT_EQ(DapAudit::violations(), 1u);
}

TEST_F(DapCheckTest, BoundThreadsOnDistinctPartitionsAreClean) {
  TRecord trecord(2);
  std::thread t1([&] {
    DapAudit::BindCurrentThread();
    trecord.Partition(0).GetOrCreate(Tid(1));
  });
  std::thread t2([&] {
    DapAudit::BindCurrentThread();
    trecord.Partition(1).GetOrCreate(Tid(2));
  });
  t1.join();
  t2.join();
  EXPECT_EQ(DapAudit::violations(), 0u);
}

TEST_F(DapCheckTest, ClearResetsOwnerStamp) {
  TRecord trecord(1);
  std::thread t1([&] {
    DapAudit::BindCurrentThread();
    trecord.Partition(0).GetOrCreate(Tid(1));
  });
  t1.join();
  // Recovery wipes the partition; the next bound thread becomes the owner.
  trecord.Partition(0).Clear();
  std::thread t2([&] {
    DapAudit::BindCurrentThread();
    trecord.Partition(0).GetOrCreate(Tid(2));
  });
  t2.join();
  EXPECT_EQ(DapAudit::violations(), 0u);
}

TEST_F(DapCheckTest, BulkMaintenanceEntryPointsAreSuspended) {
  // ReplaceAll walks every partition from one thread; it must not trip the
  // detector even inside a foreign core scope. Trimming has no bulk form:
  // each core trims its own partition with TrimBelow, inside its own scope.
  TRecord trecord(4);
  for (uint32_t core = 0; core < 4; core++) {
    DapCoreScope scope(core);
    TxnRecord& rec = trecord.Partition(core).GetOrCreate(Tid(core));
    rec.status = TxnStatus::kCommitted;
    trecord.Partition(core).SetTs(rec, Timestamp{100, 1});
  }
  for (uint32_t core = 0; core < 4; core++) {
    DapCoreScope scope(core);
    EXPECT_EQ(trecord.Partition(core).TrimBelow(Timestamp{200, 1}).trimmed, 1u);
  }
  DapCoreScope scope(0);
  trecord.ReplaceAll({});
  EXPECT_EQ(DapAudit::violations(), 0u);
}

#if defined(GTEST_HAS_DEATH_TEST) && GTEST_HAS_DEATH_TEST
TEST_F(DapCheckTest, AbortModeAborts) {
  TRecord trecord(2);
  EXPECT_DEATH(
      {
        DapAudit::SetMode(DapMode::kAbort);
        DapCoreScope scope(0);
        trecord.Partition(1).GetOrCreate(Tid(1));
      },
      "DAP violation");
}
#endif

#else  // !MEERKAT_DAP_CHECK

TEST(DapCheckTest, CompiledOutStubsAreInert) {
  TRecord trecord(2);
  DapCoreScope scope(0);
  trecord.Partition(1).GetOrCreate(TxnId{7, 1});
  EXPECT_EQ(DapAudit::violations(), 0u);
}

#endif  // MEERKAT_DAP_CHECK

}  // namespace
}  // namespace meerkat
