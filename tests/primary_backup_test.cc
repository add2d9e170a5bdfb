// Unit tests for PrimaryBackupReplica's backup-liveness mask, driven directly
// (no cluster): the mask is indexed by replica id and must stay defined for
// every id a CreateSystem-accepted group can hold.

#include <gtest/gtest.h>

#include "src/baselines/primary_backup.h"
#include "tests/test_util.h"

namespace meerkat {
namespace {

TEST(PrimaryBackupReplicaTest, DownMaskKeepsHighReplicaIdsApart) {
  CapturingTransport transport;
  PrimaryBackupReplica primary(/*id=*/0, PbMode::kMeerkatPb, QuorumConfig::ForReplicas(35),
                               /*num_cores=*/1, &transport, PbCosts{});
  primary.MarkBackupDown(33);
  EXPECT_TRUE(primary.BackupDown(33));
  // A 32-bit mask would shift by 33 mod 32 and mark replica 1 instead.
  EXPECT_FALSE(primary.BackupDown(1));
  primary.MarkBackupDown(kMaxGroupReplicas - 1);
  EXPECT_TRUE(primary.BackupDown(kMaxGroupReplicas - 1));
  primary.MarkBackupUp(33);
  EXPECT_FALSE(primary.BackupDown(33));
  EXPECT_TRUE(primary.BackupDown(kMaxGroupReplicas - 1));
}

}  // namespace
}  // namespace meerkat
