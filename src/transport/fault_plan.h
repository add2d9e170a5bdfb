// Seeded, scriptable fault plans for deterministic recovery drills.
//
// A FaultPlan describes what the network does to a run: background
// probabilistic faults (drop/duplicate/extra delay, as before) plus an
// ordered list of scripted rules that fire at protocol-step granularity —
// "drop the 3rd ValidateRequest", "crash the destination replica when the
// 5th ReplicateRequest is sent". Rules are matched against every sent
// message by the FaultInjector; the same plan replayed against the same
// workload under the simulator yields the same schedule, which is what makes
// crash drills assertable (see tests/fault_drill_test.cc and docs/FAILURES.md).

#ifndef MEERKAT_SRC_TRANSPORT_FAULT_PLAN_H_
#define MEERKAT_SRC_TRANSPORT_FAULT_PLAN_H_

#include <cstdint>
#include <variant>
#include <vector>

#include "src/transport/message.h"

namespace meerkat {

// Message-kind selector, mirroring the Payload variant. kAny matches all.
enum class MsgKind : uint8_t {
  kAny = 0,
  kGetRequest,
  kGetReply,
  kValidateRequest,
  kValidateReply,
  kAcceptRequest,
  kAcceptReply,
  kCommitRequest,
  kEpochChangeRequest,
  kEpochChangeAck,
  kEpochChangeComplete,
  kEpochChangeCompleteAck,
  kCoordChangeRequest,
  kCoordChangeAck,
  kPrimaryCommitRequest,
  kReplicateRequest,
  kReplicateReply,
  kPrimaryCommitReply,
  kPutRequest,
  kPutReply,
  kTimerFire,
};

inline MsgKind KindOf(const Payload& p) {
  struct Visitor {
    MsgKind operator()(const GetRequest&) { return MsgKind::kGetRequest; }
    MsgKind operator()(const GetReply&) { return MsgKind::kGetReply; }
    MsgKind operator()(const ValidateRequest&) { return MsgKind::kValidateRequest; }
    MsgKind operator()(const ValidateReply&) { return MsgKind::kValidateReply; }
    MsgKind operator()(const AcceptRequest&) { return MsgKind::kAcceptRequest; }
    MsgKind operator()(const AcceptReply&) { return MsgKind::kAcceptReply; }
    MsgKind operator()(const CommitRequest&) { return MsgKind::kCommitRequest; }
    MsgKind operator()(const EpochChangeRequest&) { return MsgKind::kEpochChangeRequest; }
    MsgKind operator()(const EpochChangeAck&) { return MsgKind::kEpochChangeAck; }
    MsgKind operator()(const EpochChangeComplete&) { return MsgKind::kEpochChangeComplete; }
    MsgKind operator()(const EpochChangeCompleteAck&) {
      return MsgKind::kEpochChangeCompleteAck;
    }
    MsgKind operator()(const CoordChangeRequest&) { return MsgKind::kCoordChangeRequest; }
    MsgKind operator()(const CoordChangeAck&) { return MsgKind::kCoordChangeAck; }
    MsgKind operator()(const PrimaryCommitRequest&) { return MsgKind::kPrimaryCommitRequest; }
    MsgKind operator()(const ReplicateRequest&) { return MsgKind::kReplicateRequest; }
    MsgKind operator()(const ReplicateReply&) { return MsgKind::kReplicateReply; }
    MsgKind operator()(const PrimaryCommitReply&) { return MsgKind::kPrimaryCommitReply; }
    MsgKind operator()(const PutRequest&) { return MsgKind::kPutRequest; }
    MsgKind operator()(const PutReply&) { return MsgKind::kPutReply; }
    MsgKind operator()(const TimerFire&) { return MsgKind::kTimerFire; }
  };
  return std::visit(Visitor{}, p);
}

enum class FaultAction : uint8_t {
  kDrop,
  kDelay,      // Add delay_ns on top of the base latency (reorders).
  kDuplicate,  // Deliver twice.
  kCrashDst,   // Crash the destination endpoint; the message is lost with it.
  kCrashSrc,   // Crash the sender mid-send; the message never leaves it.
};

// One scripted fault: fires on matching messages by match ordinal.
struct FaultRule {
  FaultAction action = FaultAction::kDrop;
  MsgKind kind = MsgKind::kAny;
  // Endpoint filters (-1 = any). A replica filter only matches replica-kind
  // addresses; a client filter only client-kind addresses.
  int src_replica = -1;
  int dst_replica = -1;
  int src_client = -1;
  int dst_client = -1;
  // Skip the first `after` matching messages, then fire on the next `count`
  // (count == 0: every subsequent match).
  uint64_t after = 0;
  uint32_t count = 1;
  uint64_t delay_ns = 0;  // kDelay only.
};

// A complete fault schedule for one run. Value type: copy it into
// SystemOptions; CreateSystem installs it into the transport's injector.
struct FaultPlan {
  // Seeds the injector's RNG (probabilistic faults and delay draws); the same
  // seed over the same message sequence reproduces the same verdicts.
  uint64_t seed = 42;
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  uint64_t max_extra_delay_ns = 0;
  std::vector<FaultRule> rules;

  bool Empty() const {
    return drop_probability == 0.0 && duplicate_probability == 0.0 &&
           max_extra_delay_ns == 0 && rules.empty();
  }

  // --- Fluent scripting helpers ---

  FaultPlan& WithSeed(uint64_t s) {
    seed = s;
    return *this;
  }
  FaultPlan& DropEvery(double p) {
    drop_probability = p;
    return *this;
  }
  FaultPlan& DuplicateEvery(double p) {
    duplicate_probability = p;
    return *this;
  }
  FaultPlan& DelayUpTo(uint64_t max_ns) {
    max_extra_delay_ns = max_ns;
    return *this;
  }
  FaultPlan& AddRule(FaultRule rule) {
    rules.push_back(rule);
    return *this;
  }
  // nth is 1-based: "the nth matching message".
  FaultPlan& DropNth(MsgKind kind, uint64_t nth, uint32_t count = 1) {
    FaultRule r;
    r.action = FaultAction::kDrop;
    r.kind = kind;
    r.after = nth - 1;
    r.count = count;
    return AddRule(r);
  }
  FaultPlan& DelayNth(MsgKind kind, uint64_t nth, uint64_t delay_ns, uint32_t count = 1) {
    FaultRule r;
    r.action = FaultAction::kDelay;
    r.kind = kind;
    r.after = nth - 1;
    r.count = count;
    r.delay_ns = delay_ns;
    return AddRule(r);
  }
  FaultPlan& DuplicateNth(MsgKind kind, uint64_t nth, uint32_t count = 1) {
    FaultRule r;
    r.action = FaultAction::kDuplicate;
    r.kind = kind;
    r.after = nth - 1;
    r.count = count;
    return AddRule(r);
  }
  // Crash the destination when the nth matching message is sent (e.g. "kill
  // the replica receiving the 3rd VALIDATE"). dst_replica narrows the target.
  FaultPlan& CrashDstAtNth(MsgKind kind, uint64_t nth, int dst_replica = -1) {
    FaultRule r;
    r.action = FaultAction::kCrashDst;
    r.kind = kind;
    r.after = nth - 1;
    r.dst_replica = dst_replica;
    return AddRule(r);
  }
  // Crash the sender when it sends its nth matching message (e.g. "kill the
  // client as it sends its 2nd VALIDATE": a client crash mid-commit).
  FaultPlan& CrashSrcAtNth(MsgKind kind, uint64_t nth, int src_client = -1) {
    FaultRule r;
    r.action = FaultAction::kCrashSrc;
    r.kind = kind;
    r.after = nth - 1;
    r.src_client = src_client;
    return AddRule(r);
  }
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_TRANSPORT_FAULT_PLAN_H_
