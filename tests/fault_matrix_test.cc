// Fault matrix: scripted drop/delay/duplicate faults at protocol-step
// granularity, crossed with every system kind — plus seed-stability runs that
// prove the whole fault schedule is deterministic (the property that makes
// crash drills assertable; see docs/FAILURES.md).
//
// Every cell asserts three things:
//   1. the scripted rule actually fired (the step exists in that kind's
//      message flow — guards against a vacuous matrix);
//   2. the workload still commits everything (the retry policy absorbs the
//      fault);
//   3. an identical second run produces a bit-identical outcome signature.

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>

#include "src/common/metrics.h"
#include "src/transport/fault_injector.h"
#include "tests/test_util.h"
#include "tests/zcp_conformance.h"

namespace meerkat {
namespace {

RetryPolicy TestRetry() { return RetryPolicy::WithTimeout(200'000); }

// Runs `n` single-key RMW transactions on distinct preloaded keys (each one
// exercises the full read + commit message flow) and returns a compact
// signature of everything the client observed: result, path, per-txn
// retransmits, and the session's aggregate retry counters. Two runs of the
// same configuration must produce the same signature.
//
// By default each transaction runs to quiescence before the next starts.
// With `overlap_gap_ns` set the workload is a closed loop instead: each
// transaction starts that long after the previous one decided, while delayed
// messages and write phases are still in flight, so replica cores keep
// dispatching (and running GC steps) while a late original is on its way.
std::string RunWorkload(SimHarness& h, int n, uint64_t overlap_gap_ns = 0) {
  for (int i = 0; i < n; i++) {
    h.system().Load("key-" + std::to_string(i), "init");
  }
  auto session = h.MakeSession(1, /*seed=*/7);
  std::ostringstream sig;
  auto plan_for = [](int i) {
    TxnPlan plan;
    plan.ops.push_back(Op::Rmw("key-" + std::to_string(i), "v" + std::to_string(i)));
    return plan;
  };
  auto record = [&sig](int i, const TxnOutcome& outcome) {
    sig << i << ":" << ToString(outcome.result) << "/" << ToString(outcome.path) << "/r"
        << outcome.retransmits << ";";
  };
  if (overlap_gap_ns == 0) {
    for (int i = 0; i < n; i++) {
      record(i, h.RunTxnOutcome(*session, plan_for(i)));
    }
  } else {
    SimActor* actor = h.transport().ActorFor(Address::Client(1), 0);
    std::function<void(int)> launch = [&](int i) {
      session->ExecuteAsync(plan_for(i), [&, i](const TxnOutcome& outcome) {
        record(i, outcome);
        if (i + 1 < n) {
          h.sim().ScheduleAfter(overlap_gap_ns, actor,
                                [&launch, i](SimContext&) { launch(i + 1); });
        }
      });
    };
    h.sim().Schedule(h.sim().now() + 1, actor, [&launch](SimContext&) { launch(0); });
    h.sim().Run();
  }
  sig << "stats:" << session->stats().committed << "," << session->stats().aborted << ","
      << session->stats().failed << "," << session->stats().retransmits << ","
      << session->stats().timeouts;
  return sig.str();
}

struct MatrixCase {
  SystemKind kind;
  FaultAction action;
  MsgKind step;
};

std::string StepName(MsgKind step) {
  switch (step) {
    case MsgKind::kGetRequest:
      return "GetRequest";
    case MsgKind::kGetReply:
      return "GetReply";
    case MsgKind::kValidateRequest:
      return "ValidateRequest";
    case MsgKind::kValidateReply:
      return "ValidateReply";
    case MsgKind::kCommitRequest:
      return "CommitRequest";
    case MsgKind::kPrimaryCommitRequest:
      return "PrimaryCommitRequest";
    case MsgKind::kReplicateRequest:
      return "ReplicateRequest";
    case MsgKind::kReplicateReply:
      return "ReplicateReply";
    case MsgKind::kPrimaryCommitReply:
      return "PrimaryCommitReply";
    default:
      return "Step" + std::to_string(static_cast<int>(step));
  }
}

std::string ActionName(FaultAction action) {
  switch (action) {
    case FaultAction::kDrop:
      return "Drop";
    case FaultAction::kDelay:
      return "Delay";
    case FaultAction::kDuplicate:
      return "Duplicate";
    default:
      return "Action";
  }
}

std::vector<MatrixCase> BuildMatrix() {
  // The protocol steps each kind's failure-free path actually exercises.
  const std::vector<MsgKind> quorum_steps = {MsgKind::kGetRequest, MsgKind::kGetReply,
                                             MsgKind::kValidateRequest, MsgKind::kValidateReply,
                                             MsgKind::kCommitRequest};
  const std::vector<MsgKind> pb_steps = {MsgKind::kGetRequest, MsgKind::kGetReply,
                                         MsgKind::kPrimaryCommitRequest,
                                         MsgKind::kReplicateRequest, MsgKind::kReplicateReply,
                                         MsgKind::kPrimaryCommitReply};
  const std::vector<FaultAction> actions = {FaultAction::kDrop, FaultAction::kDelay,
                                            FaultAction::kDuplicate};
  std::vector<MatrixCase> cases;
  for (SystemKind kind : {SystemKind::kMeerkat, SystemKind::kTapir}) {
    for (FaultAction action : actions) {
      for (MsgKind step : quorum_steps) {
        cases.push_back({kind, action, step});
      }
    }
  }
  for (SystemKind kind : {SystemKind::kMeerkatPb, SystemKind::kKuaFu}) {
    for (FaultAction action : actions) {
      for (MsgKind step : pb_steps) {
        cases.push_back({kind, action, step});
      }
    }
  }
  return cases;
}

class FaultMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(FaultMatrixTest, ScriptedFaultIsAbsorbedAndDeterministic) {
  MatrixCase param = GetParam();

  FaultPlan plan;
  plan.WithSeed(11);
  // Fire on the 2nd and 3rd matching messages: past the very first exchange
  // (so some state exists) but early enough to sit inside the workload.
  switch (param.action) {
    case FaultAction::kDrop:
      plan.DropNth(param.step, 2, /*count=*/2);
      break;
    case FaultAction::kDelay:
      // Longer than the retry timeout: forces a retransmission race with the
      // late original (duplicate-suppression territory).
      plan.DelayNth(param.step, 2, /*delay_ns=*/500'000, /*count=*/2);
      break;
    default:
      plan.DuplicateNth(param.step, 2, /*count=*/2);
      break;
  }

  SystemOptions options = DefaultOptions(param.kind).WithRetry(TestRetry()).WithFaultPlan(plan);
  SimHarness h(options);
  std::string sig = RunWorkload(h, /*n=*/8);

  // (1) The rule fired: the step really occurs in this kind's message flow.
  ASSERT_NE(h.transport().fault_injector(), nullptr);
  EXPECT_GE(h.transport().fault_injector()->rule_matches(0), 2u)
      << "scripted step never matched — vacuous matrix cell";

  // (2) Every transaction still commits: distinct keys mean no OCC conflicts,
  // and the retry policy recovers whatever the fault took.
  EXPECT_NE(sig.find("stats:8,0,0"), std::string::npos) << sig;

  // (3) Replaying the identical configuration reproduces the identical
  // client-visible schedule.
  SimHarness replay(options);
  EXPECT_EQ(RunWorkload(replay, /*n=*/8), sig);
}

INSTANTIATE_TEST_SUITE_P(AllCells, FaultMatrixTest, ::testing::ValuesIn(BuildMatrix()),
                         [](const ::testing::TestParamInfo<MatrixCase>& info) {
                           std::string name = ToString(info.param.kind);
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name + "_" + ActionName(info.param.action) + "_" +
                                  StepName(info.param.step);
                         });

// Trim-vs-retransmit races: the same scripted faults with the watermark GC
// trimming on every dispatch, behind a horizon that sits between the 200 us
// retry timeout and the 1 ms injected delay. A retransmission always lands
// inside the horizon; a duplicated or long-delayed VALIDATE/COMMIT can land
// after the record it targets has been finalized *and trimmed*. The
// watermark answer rules (stale VALIDATE → abort vote without re-creating a
// record, stale COMMIT → dropped as tolerated loss) must keep the workload
// fully committed and the schedule bit-identical on replay. The workload is
// a closed loop with 100 us between transactions, so GC steps keep running
// while a delayed original is in flight.
class GcTrimRetransmitTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(GcTrimRetransmitTest, TrimRaceIsAbsorbedAndDeterministic) {
  MatrixCase param = GetParam();
  constexpr uint64_t kHorizonNs = 300'000;
  constexpr uint64_t kDelayNs = 1'000'000;
  constexpr uint64_t kGapNs = 100'000;

  FaultPlan plan;
  plan.WithSeed(13);
  switch (param.action) {
    case FaultAction::kDrop:
      plan.DropNth(param.step, 2, /*count=*/2);
      break;
    case FaultAction::kDelay:
      // Well past the retry timeout and the horizon: the retransmission
      // commits and the GC trims the record before the late original lands.
      plan.DelayNth(param.step, 2, kDelayNs, /*count=*/2);
      break;
    default:
      plan.DuplicateNth(param.step, 2, /*count=*/2);
      break;
  }

  SystemOptions options =
      DefaultOptions(param.kind)
          .WithRetry(TestRetry())
          .WithFaultPlan(plan)
          .WithGc(GcOptions().WithHorizon(kHorizonNs));
  const uint64_t stale_before = SnapshotMetrics().CounterValue("gc.stale_validates_answered");
  SimHarness h(options);
  std::string sig = RunWorkload(h, /*n=*/8, kGapNs);
  const uint64_t stale =
      SnapshotMetrics().CounterValue("gc.stale_validates_answered") - stale_before;

  ASSERT_NE(h.transport().fault_injector(), nullptr);
  EXPECT_GE(h.transport().fault_injector()->rule_matches(0), 2u)
      << "scripted step never matched — vacuous matrix cell";
  EXPECT_NE(sig.find("stats:8,0,0"), std::string::npos) << sig;
  if (param.action == FaultAction::kDelay && param.step == MsgKind::kValidateRequest) {
    // The late originals met trimmed records and were answered from W.
    EXPECT_GT(stale, 0u) << "no delayed VALIDATE raced a trim — the cell does not bite";
  }

  SimHarness replay(options);
  EXPECT_EQ(RunWorkload(replay, /*n=*/8, kGapNs), sig);
}

INSTANTIATE_TEST_SUITE_P(
    TrimRaces, GcTrimRetransmitTest,
    ::testing::Values(
        MatrixCase{SystemKind::kMeerkat, FaultAction::kDrop, MsgKind::kValidateRequest},
        MatrixCase{SystemKind::kMeerkat, FaultAction::kDelay, MsgKind::kValidateRequest},
        MatrixCase{SystemKind::kMeerkat, FaultAction::kDuplicate, MsgKind::kValidateRequest},
        MatrixCase{SystemKind::kMeerkat, FaultAction::kDrop, MsgKind::kCommitRequest},
        MatrixCase{SystemKind::kMeerkat, FaultAction::kDelay, MsgKind::kCommitRequest},
        MatrixCase{SystemKind::kMeerkat, FaultAction::kDuplicate, MsgKind::kCommitRequest},
        MatrixCase{SystemKind::kMeerkat, FaultAction::kDelay, MsgKind::kValidateReply},
        MatrixCase{SystemKind::kMeerkat, FaultAction::kDuplicate, MsgKind::kValidateReply}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      return ActionName(info.param.action) + "_" + StepName(info.param.step);
    });

// Seed stability: background chaos (drop + duplicate + reordering delay) is
// fully determined by the plan seed. Two runs agree bit-for-bit, and nearby
// seeds still make progress.
class SeedStabilityTest : public ::testing::TestWithParam<std::tuple<SystemKind, uint64_t>> {};

TEST_P(SeedStabilityTest, ChaosScheduleIsReproducible) {
  auto [kind, seed] = GetParam();

  FaultPlan plan;
  plan.WithSeed(seed).DropEvery(0.03).DuplicateEvery(0.02).DelayUpTo(2'000);

  SystemOptions options = DefaultOptions(kind).WithRetry(TestRetry()).WithFaultPlan(plan);

  SimHarness first(options);
  std::string sig = RunWorkload(first, /*n=*/6);

  SimHarness second(options);
  EXPECT_EQ(RunWorkload(second, /*n=*/6), sig) << "seed " << seed;

  // Chaos at these rates never defeats the retry policy.
  EXPECT_NE(sig.find("stats:6,0,0"), std::string::npos) << "seed " << seed << ": " << sig;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SeedStabilityTest,
    ::testing::Combine(::testing::Values(SystemKind::kMeerkat, SystemKind::kMeerkatPb,
                                         SystemKind::kTapir, SystemKind::kKuaFu),
                       ::testing::Range<uint64_t>(1, 21)),
    [](const ::testing::TestParamInfo<std::tuple<SystemKind, uint64_t>>& info) {
      std::string name = ToString(std::get<0>(info.param));
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace meerkat
