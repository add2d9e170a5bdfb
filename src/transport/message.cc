#include "src/transport/message.h"

namespace meerkat {

const char* PayloadName(const Payload& p) {
  struct Namer {
    const char* operator()(const GetRequest&) { return "GetRequest"; }
    const char* operator()(const GetReply&) { return "GetReply"; }
    const char* operator()(const ValidateRequest&) { return "ValidateRequest"; }
    const char* operator()(const ValidateReply&) { return "ValidateReply"; }
    const char* operator()(const AcceptRequest&) { return "AcceptRequest"; }
    const char* operator()(const AcceptReply&) { return "AcceptReply"; }
    const char* operator()(const CommitRequest&) { return "CommitRequest"; }
    const char* operator()(const EpochChangeRequest&) { return "EpochChangeRequest"; }
    const char* operator()(const EpochChangeAck&) { return "EpochChangeAck"; }
    const char* operator()(const EpochChangeComplete&) { return "EpochChangeComplete"; }
    const char* operator()(const EpochChangeCompleteAck&) { return "EpochChangeCompleteAck"; }
    const char* operator()(const CoordChangeRequest&) { return "CoordChangeRequest"; }
    const char* operator()(const CoordChangeAck&) { return "CoordChangeAck"; }
    const char* operator()(const PrimaryCommitRequest&) { return "PrimaryCommitRequest"; }
    const char* operator()(const ReplicateRequest&) { return "ReplicateRequest"; }
    const char* operator()(const ReplicateReply&) { return "ReplicateReply"; }
    const char* operator()(const PrimaryCommitReply&) { return "PrimaryCommitReply"; }
    const char* operator()(const PutRequest&) { return "PutRequest"; }
    const char* operator()(const PutReply&) { return "PutReply"; }
    const char* operator()(const TimerFire&) { return "TimerFire"; }
  };
  return std::visit(Namer{}, p);
}

}  // namespace meerkat
