// Wire-codec tests: every wire payload type encodes to pinned bytes and
// round-trips bit-exactly; truncated and corrupt frames are rejected cleanly.

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <variant>

#include "src/common/rng.h"
#include "src/transport/serialization.h"

namespace meerkat {
namespace {

Message Wrap(Payload payload) {
  Message msg;
  msg.src = Address::Client(7);
  msg.dst = Address::Replica(2);
  msg.core = 3;
  msg.payload = std::move(payload);
  return msg;
}

// Round-trips and returns the decoded message; fails the test on error.
Message RoundTrip(const Message& msg) {
  std::vector<uint8_t> bytes = EncodeMessage(msg);
  Message out;
  EXPECT_TRUE(DecodeMessage(bytes, &out)) << PayloadName(msg.payload);
  EXPECT_EQ(out.src, msg.src);
  EXPECT_EQ(out.dst, msg.dst);
  EXPECT_EQ(out.core, msg.core);
  EXPECT_EQ(out.payload.index(), msg.payload.index());
  return out;
}

TxnRecordSnapshot SampleSnapshot() {
  TxnRecordSnapshot s;
  s.tid = {9, 42};
  s.ts = {1234, 9};
  s.status = TxnStatus::kAcceptCommit;
  s.view = 5;
  s.accept_view = 4;
  s.accepted = true;
  s.core = 2;
  s.read_set = {{"rkey", {11, 3}}};
  s.write_set = {{"wkey", "wvalue"}};
  return s;
}

TEST(SerializationTest, GetRequestRoundTrip) {
  Message out = RoundTrip(Wrap(GetRequest{{1, 2}, 77, "some-key"}));
  const auto& p = std::get<GetRequest>(out.payload);
  EXPECT_EQ(p.tid, (TxnId{1, 2}));
  EXPECT_EQ(p.req_seq, 77u);
  EXPECT_EQ(p.key, "some-key");
}

TEST(SerializationTest, GetReplyRoundTrip) {
  GetReply reply;
  reply.tid = {1, 2};
  reply.req_seq = 9;
  reply.key = "k";
  reply.value = std::string("binary\0data", 11);
  reply.wts = {55, 1};
  reply.found = true;
  Message out = RoundTrip(Wrap(reply));
  const auto& p = std::get<GetReply>(out.payload);
  EXPECT_EQ(p.value.size(), 11u);  // Embedded NUL survives.
  EXPECT_EQ(p.wts, (Timestamp{55, 1}));
  EXPECT_TRUE(p.found);
}

TEST(SerializationTest, ValidateRequestRoundTrip) {
  ValidateRequest req{{3, 4}, {999, 3}, {{"a", {1, 0}}, {"b", {}}}, {{"c", "v1"}, {"d", ""}}};
  req.priority = 1;  // Overload-control priority (aged retry) rides the wire.
  Message out = RoundTrip(Wrap(req));
  const auto& p = std::get<ValidateRequest>(out.payload);
  ASSERT_EQ(p.read_set().size(), 2u);
  EXPECT_EQ(p.read_set()[0].key, "a");
  EXPECT_FALSE(p.read_set()[1].read_wts.Valid());
  ASSERT_EQ(p.write_set().size(), 2u);
  EXPECT_EQ(p.write_set()[1].value, "");
  EXPECT_EQ(p.priority, 1u);
}

TEST(SerializationTest, ValidateReplyRoundTrip) {
  Message out = RoundTrip(Wrap(ValidateReply{{3, 4}, TxnStatus::kValidatedAbort, 2, 7}));
  const auto& p = std::get<ValidateReply>(out.payload);
  EXPECT_EQ(p.status, TxnStatus::kValidatedAbort);
  EXPECT_EQ(p.epoch, 7u);
  EXPECT_EQ(p.conflict_hash, 0u);
  EXPECT_TRUE(p.hints.empty());
}

TEST(SerializationTest, ValidateReplyConflictHashAndHintsRoundTrip) {
  // Abort-reason fidelity (conflict_hash) and the cache-invalidation hint
  // list both ride the validation reply.
  ValidateReply reply{{3, 4}, TxnStatus::kValidatedAbort, 2, 7};
  reply.conflict_hash = 0xfeedfacecafebeefULL;
  reply.hints = {{0x1111, {100, 1}}, {0x2222, {101, 2}}};
  Message out = RoundTrip(Wrap(reply));
  const auto& p = std::get<ValidateReply>(out.payload);
  EXPECT_EQ(p.conflict_hash, 0xfeedfacecafebeefULL);
  ASSERT_EQ(p.hints.size(), 2u);
  EXPECT_EQ(p.hints[0], (WriteHint{0x1111, {100, 1}}));
  EXPECT_EQ(p.hints[1], (WriteHint{0x2222, {101, 2}}));
}

TEST(SerializationTest, HostileHintCountIsRejected) {
  // A ValidateReply whose hint count claims more than kMaxWriteHints (64)
  // must be rejected before any allocation is attempted.
  ValidateReply reply{{3, 4}, TxnStatus::kValidatedOk, 0, 1};
  std::vector<uint8_t> bytes = EncodeMessage(Wrap(reply));
  // The hint count is the final u32 of the encoding (after conflict_hash).
  ASSERT_GE(bytes.size(), 4u);
  bytes[bytes.size() - 4] = 0xff;
  bytes[bytes.size() - 3] = 0xff;
  bytes[bytes.size() - 2] = 0xff;
  bytes[bytes.size() - 1] = 0xff;
  Message out;
  EXPECT_FALSE(DecodeMessage(bytes, &out));
}

TEST(SerializationTest, ShedValidateReplyRoundTrip) {
  // kRetryLater sheds carry the server-suggested backoff hint.
  Message out =
      RoundTrip(Wrap(ValidateReply{{3, 4}, TxnStatus::kRetryLater, 2, 7, 250'000}));
  const auto& p = std::get<ValidateReply>(out.payload);
  EXPECT_EQ(p.status, TxnStatus::kRetryLater);
  EXPECT_EQ(p.backoff_hint_ns, 250'000u);
}

TEST(SerializationTest, AcceptRoundTrip) {
  AcceptRequest req{{1, 1}, /*view=*/3, /*commit=*/true, {500, 1}, {}, {{"k", "v"}}};
  Message out = RoundTrip(Wrap(req));
  EXPECT_TRUE(std::get<AcceptRequest>(out.payload).commit);
  RoundTrip(Wrap(AcceptReply{{1, 1}, 3, true, 0, 2}));
}

TEST(SerializationTest, CommitAndTimerRoundTrip) {
  // Commit ts (trimmed-duplicate detection) rides the wire; a
  // default-constructed request keeps it zero.
  Message out = RoundTrip(Wrap(CommitRequest{{1, 1}, true, {500, 1}}));
  const auto& p = std::get<CommitRequest>(out.payload);
  EXPECT_TRUE(p.commit);
  EXPECT_EQ(p.ts, (Timestamp{500, 1}));
  Message zero = RoundTrip(Wrap(CommitRequest{{1, 1}, false}));
  EXPECT_FALSE(std::get<CommitRequest>(zero.payload).ts.Valid());
  // Timers never cross the wire: a TimerFire frame does not decode, with or
  // without the timer id it once carried.
  std::vector<uint8_t> timer = EncodeMessage(Wrap(TimerFire{0xdeadbeef}));
  Message decoded;
  EXPECT_FALSE(DecodeMessage(timer, &decoded));
  WireWriter id(&timer);
  id.U64(0xdeadbeef);
  EXPECT_FALSE(DecodeMessage(timer, &decoded));
}

TEST(SerializationTest, EpochChangeRoundTrip) {
  RoundTrip(Wrap(EpochChangeRequest{4}));
  EpochChangeAck ack;
  ack.epoch = 4;
  ack.from = 1;
  ack.recovering = true;
  ack.records = {SampleSnapshot()};
  ack.store_state = {{"k", "v"}};
  ack.store_versions = {{7, 1}};
  Message out = RoundTrip(Wrap(ack));
  const auto& p = std::get<EpochChangeAck>(out.payload);
  EXPECT_TRUE(p.recovering);
  ASSERT_EQ(p.records.size(), 1u);
  EXPECT_EQ(p.records[0].status, TxnStatus::kAcceptCommit);
  EXPECT_TRUE(p.records[0].accepted);
  EXPECT_EQ(p.records[0].write_set[0].value, "wvalue");
  ASSERT_EQ(p.store_versions.size(), 1u);
  EXPECT_EQ(p.store_versions[0], (Timestamp{7, 1}));

  EpochChangeComplete complete;
  complete.epoch = 4;
  complete.records = {SampleSnapshot()};
  RoundTrip(Wrap(complete));
  RoundTrip(Wrap(EpochChangeCompleteAck{4, 2}));
}

TEST(SerializationTest, CoordChangeRoundTrip) {
  RoundTrip(Wrap(CoordChangeRequest{{1, 1}, 9}));
  CoordChangeAck ack;
  ack.tid = {1, 1};
  ack.view = 9;
  ack.ok = true;
  ack.has_record = true;
  ack.record = SampleSnapshot();
  ack.from = 0;
  Message out = RoundTrip(Wrap(ack));
  EXPECT_EQ(std::get<CoordChangeAck>(out.payload).record.view, 5u);
}

TEST(SerializationTest, PrimaryBackupRoundTrip) {
  PrimaryCommitRequest req;
  req.tid = {2, 3};
  req.ts = {100, 2};
  req.read_set = {{"r", {1, 0}}};
  req.write_set = {{"w", "v"}};
  RoundTrip(Wrap(req));
  ReplicateRequest repl;
  repl.tid = {2, 3};
  repl.ts = {100, 2};
  repl.log_index = 42;
  repl.write_set = {{"w", "v"}};
  Message out = RoundTrip(Wrap(repl));
  EXPECT_EQ(std::get<ReplicateRequest>(out.payload).log_index, 42u);
  RoundTrip(Wrap(ReplicateReply{{2, 3}, 1}));
  RoundTrip(Wrap(PrimaryCommitReply{{2, 3}, true, {100, 2}}));
  RoundTrip(Wrap(PutRequest{5, "k", "v"}));
  RoundTrip(Wrap(PutReply{5}));
}

TEST(SerializationTest, EveryTruncationIsRejected) {
  ValidateRequest req{{3, 4}, {999, 3}, {{"alpha", {1, 0}}}, {{"beta", "value"}}};
  std::vector<uint8_t> bytes = EncodeMessage(Wrap(req));
  for (size_t len = 0; len < bytes.size(); len++) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + static_cast<long>(len));
    Message out;
    EXPECT_FALSE(DecodeMessage(truncated, &out)) << "accepted truncation at " << len;
  }
}

TEST(SerializationTest, TrailingGarbageIsRejected) {
  std::vector<uint8_t> bytes = EncodeMessage(Wrap(CommitRequest{{1, 1}, true}));
  bytes.push_back(0x00);
  Message out;
  EXPECT_FALSE(DecodeMessage(bytes, &out));
}

TEST(SerializationTest, BadTagIsRejected) {
  std::vector<uint8_t> bytes = EncodeMessage(Wrap(CommitRequest{{1, 1}, true}));
  // The tag byte sits right after src(5) + dst(5) + core(4). The first index
  // past the variant's end is as bad as any other.
  for (size_t tag : {size_t{200}, std::variant_size_v<Payload>}) {
    bytes[14] = static_cast<uint8_t>(tag);
    Message out;
    EXPECT_FALSE(DecodeMessage(bytes, &out)) << "tag " << tag;
  }
}

TEST(SerializationTest, HostileLengthPrefixIsRejected) {
  // A GetRequest whose key length claims 4 GiB.
  WireWriter w;
  w.U8(0);
  w.U32(7);  // src
  w.U8(1);
  w.U32(2);  // dst
  w.U32(0);  // core
  w.U8(0);   // tag = GetRequest
  w.U32(1);  // tid.client_id
  w.U64(1);  // tid.seq
  w.U64(9);  // req_seq
  w.U32(0xffffffff);  // hostile key length
  std::vector<uint8_t> bytes = w.Take();
  Message out;
  EXPECT_FALSE(DecodeMessage(bytes, &out));
}

// One representative message per payload alternative, with non-empty strings
// and vectors so every field path in the codec is exercised. Kept in variant
// index order; the static_assert below fails the build when a new payload
// type is added without a corpus entry.
std::vector<Message> SampleCorpus() {
  std::vector<Message> corpus;
  corpus.push_back(Wrap(GetRequest{{1, 2}, 77, "some-key"}));
  corpus.push_back(Wrap(GetReply{{1, 2}, 9, "k", std::string("binary\0data", 11), {55, 1}, true}));
  corpus.push_back(Wrap(
      ValidateRequest{{3, 4}, {999, 3}, {{"a", {1, 0}}, {"b", {}}}, {{"c", "v1"}, {"d", ""}}}));
  {
    ValidateReply reply{{3, 4}, TxnStatus::kValidatedAbort, 2, 7};
    reply.conflict_hash = 0xabcdef01;  // Non-zero abort-reason hash.
    reply.hints = {{0x1111, {100, 1}}, {0x2222, {101, 2}}};  // Non-empty hint list.
    corpus.push_back(Wrap(reply));
  }
  corpus.push_back(Wrap(AcceptRequest{{1, 1}, 3, true, {500, 1}, {{"r", {2, 1}}}, {{"k", "v"}}}));
  corpus.push_back(Wrap(AcceptReply{{1, 1}, 3, true, 0, 2}));
  corpus.push_back(Wrap(CommitRequest{{1, 1}, true, {500, 1}}));
  corpus.push_back(Wrap(EpochChangeRequest{4}));
  {
    EpochChangeAck ack;
    ack.epoch = 4;
    ack.from = 1;
    ack.recovering = true;
    ack.records = {SampleSnapshot()};
    ack.store_state = {{"k", "v"}};
    ack.store_versions = {{7, 1}};
    corpus.push_back(Wrap(ack));
  }
  {
    EpochChangeComplete complete;
    complete.epoch = 4;
    complete.records = {SampleSnapshot()};
    complete.store_state = {{"k", "v"}};
    complete.store_versions = {{7, 1}};
    corpus.push_back(Wrap(complete));
  }
  corpus.push_back(Wrap(EpochChangeCompleteAck{4, 2}));
  corpus.push_back(Wrap(CoordChangeRequest{{1, 1}, 9}));
  {
    CoordChangeAck ack;
    ack.tid = {1, 1};
    ack.view = 9;
    ack.ok = true;
    ack.has_record = true;
    ack.record = SampleSnapshot();
    ack.from = 0;
    corpus.push_back(Wrap(ack));
  }
  {
    PrimaryCommitRequest req;
    req.tid = {2, 3};
    req.ts = {100, 2};
    req.read_set = {{"r", {1, 0}}};
    req.write_set = {{"w", "v"}};
    corpus.push_back(Wrap(req));
  }
  {
    ReplicateRequest repl;
    repl.tid = {2, 3};
    repl.ts = {100, 2};
    repl.log_index = 42;
    repl.write_set = {{"w", "v"}};
    corpus.push_back(Wrap(repl));
  }
  corpus.push_back(Wrap(ReplicateReply{{2, 3}, 1}));
  corpus.push_back(Wrap(PrimaryCommitReply{{2, 3}, true, {100, 2}}));
  corpus.push_back(Wrap(PutRequest{5, "k", "v"}));
  corpus.push_back(Wrap(PutReply{5}));
  corpus.push_back(Wrap(TimerFire{0xdeadbeef}));
  static_assert(std::variant_size_v<Payload> == 20,
                "new payload type: add a SampleCorpus entry for it");
  return corpus;
}

// EncodedMessageSize must agree exactly with the bytes EncodeMessage emits
// for every payload type — the UDP send path relies on it for reservation,
// and the templated sizer/encoder pair is only safe if they cannot drift.
TEST(SerializationTest, EncodedSizeIsExactForEveryPayloadType) {
  size_t index = 0;
  for (const Message& msg : SampleCorpus()) {
    SCOPED_TRACE(PayloadName(msg.payload));
    EXPECT_EQ(msg.payload.index(), index++);
    EXPECT_EQ(EncodedMessageSize(msg), EncodeMessage(msg).size());
  }
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

// The wire format, pinned byte for byte: round trips cannot catch a layout
// change made on both sides of the codec, this can. Each entry is a corpus
// payload's tag byte (its variant index) and body; every corpus message
// shares the 14-byte header (client 7 -> replica 2, core 3). TimerFire never
// crosses the wire and encodes no body.
TEST(SerializationTest, EncodingMatchesGoldenBytes) {
  const std::string kHeader = "00" "07000000" "01" "02000000" "03000000";
  const char* const kGolden[] = {
      // GetRequest
      "00" "0100000002000000000000004d0000000000000008000000736f6d652d6b6579",
      // GetReply
      "01" "0100000002000000000000000900000000000000010000006b0b00000062696e6172790064617461"
      "37000000000000000100000001",
      // ValidateRequest
      "02" "030000000400000000000000e7030000000000000300000002000000010000006101000000000000"
      "00000000000100000062000000000000000000000000020000000100000063020000007631010000006400"
      "00000000",
      // ValidateReply
      "03" "03000000040000000000000002020000000700000000000000000000000000000001efcdab000000"
      "00020000001111000000000000640000000000000001000000222200000000000065000000000000000200"
      "0000",
      // AcceptRequest
      "04" "010000000100000000000000030000000000000001f4010000000000000100000001000000010000"
      "007202000000000000000100000001000000010000006b0100000076",
      // AcceptReply
      "05" "010000000100000000000000030000000000000001000000000200000000000000",
      // CommitRequest
      "06" "01000000010000000000000001f40100000000000001000000",
      // EpochChangeRequest
      "07" "0400000000000000",
      // EpochChangeAck
      "08" "0400000000000000010000000101000000090000002a00000000000000d204000000000000090000"
      "00030500000000000000040000000000000001020000000100000004000000726b65790b00000000000000"
      "030000000100000004000000776b6579060000007776616c756501000000010000006b0100000076010000"
      "00070000000000000001000000",
      // EpochChangeComplete
      "09" "040000000000000001000000090000002a00000000000000d2040000000000000900000003050000"
      "0000000000040000000000000001020000000100000004000000726b65790b000000000000000300000001"
      "00000004000000776b6579060000007776616c756501000000010000006b01000000760100000007000000"
      "0000000001000000",
      // EpochChangeCompleteAck
      "0a" "040000000000000002000000",
      // CoordChangeRequest
      "0b" "0100000001000000000000000900000000000000",
      // CoordChangeAck
      "0c" "01000000010000000000000009000000000000000101090000002a00000000000000d20400000000"
      "000009000000030500000000000000040000000000000001020000000100000004000000726b65790b0000"
      "0000000000030000000100000004000000776b6579060000007776616c756500000000",
      // PrimaryCommitRequest
      "0d" "02000000030000000000000064000000000000000200000001000000010000007201000000000000"
      "00000000000100000001000000770100000076",
      // ReplicateRequest
      "0e" "0200000003000000000000006400000000000000020000002a000000000000000100000001000000"
      "770100000076",
      // ReplicateReply
      "0f" "02000000030000000000000001000000",
      // PrimaryCommitReply
      "10" "02000000030000000000000001640000000000000002000000",
      // PutRequest
      "11" "0500000000000000010000006b0100000076",
      // PutReply
      "12" "0500000000000000",
      // TimerFire
      "13",
  };
  std::vector<Message> corpus = SampleCorpus();
  ASSERT_EQ(corpus.size(), std::size(kGolden));
  for (size_t i = 0; i < corpus.size(); i++) {
    SCOPED_TRACE(PayloadName(corpus[i].payload));
    EXPECT_EQ(Hex(EncodeMessage(corpus[i])), kHeader + kGolden[i]);
  }
}

// Satellite corpus: every payload type x every truncation length must be
// rejected cleanly — no crash, no overread (this test runs under ASan in CI).
TEST(SerializationTest, EveryPayloadTypeRejectsEveryTruncation) {
  for (const Message& msg : SampleCorpus()) {
    SCOPED_TRACE(PayloadName(msg.payload));
    std::vector<uint8_t> bytes = EncodeMessage(msg);
    for (size_t len = 0; len < bytes.size(); len++) {
      Message out;
      EXPECT_FALSE(DecodeMessage(bytes.data(), len, &out))
          << PayloadName(msg.payload) << " accepted truncation at " << len;
    }
  }
}

// Seeded single-byte flips over every payload type: decoding must either fail
// or yield a message that re-encodes without crashing. A flip may legitimately
// decode (e.g. it hit a value byte), but it must never corrupt the decoder's
// bounds.
TEST(SerializationTest, SingleByteFlipsOverEveryPayloadTypeNeverCrash) {
  Rng rng(99);
  for (const Message& msg : SampleCorpus()) {
    SCOPED_TRACE(PayloadName(msg.payload));
    std::vector<uint8_t> bytes = EncodeMessage(msg);
    for (size_t pos = 0; pos < bytes.size(); pos++) {
      std::vector<uint8_t> corrupt = bytes;
      corrupt[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
      Message out;
      if (DecodeMessage(corrupt.data(), corrupt.size(), &out)) {
        EXPECT_EQ(EncodedMessageSize(out), EncodeMessage(out).size());
      }
    }
  }
}

// --- WireWriter reuse (the UDP transport's per-thread encode buffers) ------

TEST(WireWriterTest, ResetPreservesCapacity) {
  WireWriter w;
  for (int i = 0; i < 100; i++) {
    w.U64(static_cast<uint64_t>(i));
  }
  std::vector<uint8_t> first = w.Take();
  EXPECT_EQ(first.size(), 800u);

  std::vector<uint8_t> buf;
  WireWriter reuser(&buf);
  reuser.U64(1);
  reuser.Str("warm-up-payload");
  size_t cap = buf.capacity();
  const uint8_t* data = buf.data();
  reuser.Reset();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.capacity(), cap);
  reuser.U64(2);
  reuser.Str("second-payload!");
  // Same backing storage: clear()+refill under capacity never reallocates.
  EXPECT_EQ(buf.data(), data);
}

TEST(WireWriterTest, ExternalBufferAppendsAfterExistingBytes) {
  // The UDP transport writes a 4-byte steering word, then appends the frame
  // with EncodeMessageInto; the codec must not disturb the prefix.
  std::vector<uint8_t> buf = {0xAA, 0xBB, 0xCC, 0xDD};
  Message msg = Wrap(CommitRequest{{1, 1}, true});
  EncodeMessageInto(msg, &buf);
  EXPECT_EQ(buf[0], 0xAA);
  EXPECT_EQ(buf[3], 0xDD);
  ASSERT_EQ(buf.size(), 4 + EncodedMessageSize(msg));
  Message out;
  EXPECT_TRUE(DecodeMessage(buf.data() + 4, buf.size() - 4, &out));
  EXPECT_TRUE(std::get<CommitRequest>(out.payload).commit);
}

TEST(WireWriterTest, EncodeIntoReservesExactlyOnce) {
  // Size-hint reservation: encoding a large message into an empty buffer
  // reserves the exact frame size up front, so capacity equals size (one
  // allocation, no growth doubling).
  ValidateRequest req{{3, 4}, {999, 3}, {}, {}};
  std::vector<ReadSetEntry> reads;
  std::vector<WriteSetEntry> writes;
  for (int i = 0; i < 50; i++) {
    reads.push_back({"read-key-" + std::to_string(i), {static_cast<uint64_t>(i + 1), 1}});
    writes.push_back({"write-key-" + std::to_string(i), "value-" + std::to_string(i)});
  }
  Message msg = Wrap(ValidateRequest{{3, 4}, {999, 3}, std::move(reads), std::move(writes)});
  std::vector<uint8_t> buf;
  EncodeMessageInto(msg, &buf);
  EXPECT_EQ(buf.size(), EncodedMessageSize(msg));
  EXPECT_EQ(buf.capacity(), buf.size());
}

TEST(SerializationTest, RandomCorruptionNeverCrashes) {
  EpochChangeAck ack;
  ack.epoch = 4;
  ack.from = 1;
  ack.records = {SampleSnapshot(), SampleSnapshot()};
  ack.store_state = {{"k1", "v1"}, {"k2", "v2"}};
  ack.store_versions = {{7, 1}, {8, 1}};
  std::vector<uint8_t> bytes = EncodeMessage(Wrap(ack));

  Rng rng(1234);
  for (int trial = 0; trial < 2000; trial++) {
    std::vector<uint8_t> corrupt = bytes;
    size_t flips = 1 + rng.NextBounded(4);
    for (size_t i = 0; i < flips; i++) {
      corrupt[rng.NextBounded(corrupt.size())] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    }
    Message out;
    DecodeMessage(corrupt, &out);  // Must not crash or overread (ASan-checked).
  }
}

// --- MsgBatch frames (coalesced wire datagrams) ----------------------------

std::vector<uint8_t> EncodeBatchOf(const std::vector<Message>& msgs) {
  std::vector<const Message*> ptrs;
  for (const Message& m : msgs) {
    ptrs.push_back(&m);
  }
  std::vector<uint8_t> bytes;
  EncodeBatchInto(ptrs.data(), ptrs.size(), &bytes);
  return bytes;
}

TEST(MsgBatchTest, RoundTripsMultipleMessages) {
  std::vector<Message> msgs;
  msgs.push_back(Wrap(ValidateReply{{3, 4}, TxnStatus::kValidatedOk, 0, 1}));
  msgs.push_back(Wrap(ValidateReply{{3, 5}, TxnStatus::kValidatedAbort, 0, 1}));
  msgs.push_back(Wrap(GetReply{{1, 2}, 9, "k", std::string("binary\0data", 11), {55, 1}, true}));
  std::vector<uint8_t> bytes = EncodeBatchOf(msgs);

  ASSERT_TRUE(IsBatchFrame(bytes.data(), bytes.size()));
  const Message* ptrs[] = {&msgs[0], &msgs[1], &msgs[2]};
  EXPECT_EQ(bytes.size(), EncodedBatchSize(ptrs, 3));
  // One reservation for the whole frame: no sub-frame grows the buffer.
  EXPECT_EQ(bytes.capacity(), bytes.size());
  std::vector<Message> out;
  ASSERT_TRUE(DecodeBatch(bytes.data(), bytes.size(), &out));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(std::get<ValidateReply>(out[0].payload).status, TxnStatus::kValidatedOk);
  EXPECT_EQ(std::get<ValidateReply>(out[1].payload).status, TxnStatus::kValidatedAbort);
  EXPECT_EQ(std::get<GetReply>(out[2].payload).value.size(), 11u);
  EXPECT_EQ(out[2].src, msgs[2].src);
  EXPECT_EQ(out[2].dst, msgs[2].dst);
  EXPECT_EQ(out[2].core, msgs[2].core);
}

TEST(MsgBatchTest, RoundTripsSingleSubMessage) {
  std::vector<Message> msgs = {Wrap(CommitRequest{{1, 1}, true})};
  std::vector<uint8_t> bytes = EncodeBatchOf(msgs);
  std::vector<Message> out;
  ASSERT_TRUE(DecodeBatch(bytes.data(), bytes.size(), &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(std::get<CommitRequest>(out[0].payload).commit);
}

TEST(MsgBatchTest, AppendsAfterSteeringPrefix) {
  // The UDP transport writes the 4-byte steering word first; the batch
  // encoder must preserve the prefix just like EncodeMessageInto.
  std::vector<Message> msgs = {Wrap(CommitRequest{{1, 1}, true}),
                               Wrap(CommitRequest{{1, 2}, false})};
  std::vector<const Message*> ptrs = {&msgs[0], &msgs[1]};
  std::vector<uint8_t> buf = {0xAA, 0xBB, 0xCC, 0xDD};
  EncodeBatchInto(ptrs.data(), ptrs.size(), &buf);
  EXPECT_EQ(buf[0], 0xAA);
  ASSERT_EQ(buf.size(), 4 + EncodedBatchSize(ptrs.data(), ptrs.size()));
  std::vector<Message> out;
  ASSERT_TRUE(DecodeBatch(buf.data() + 4, buf.size() - 4, &out));
  EXPECT_EQ(out.size(), 2u);
}

TEST(MsgBatchTest, DecodeAppendsAndRestoresOnFailure) {
  std::vector<Message> msgs = {Wrap(CommitRequest{{1, 1}, true})};
  std::vector<uint8_t> bytes = EncodeBatchOf(msgs);
  std::vector<Message> out;
  out.push_back(Wrap(TimerFire{7}));  // Pre-existing content must survive.
  ASSERT_TRUE(DecodeBatch(bytes.data(), bytes.size(), &out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(std::get<TimerFire>(out[0].payload).timer_id, 7u);

  std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 1);
  EXPECT_FALSE(DecodeBatch(truncated.data(), truncated.size(), &out));
  EXPECT_EQ(out.size(), 2u) << "failed decode must restore the output vector";
}

TEST(MsgBatchTest, ZeroCountFrameIsRejected) {
  WireWriter w;
  w.U8(kMsgBatchMarker);
  w.U32(0);
  std::vector<uint8_t> bytes = w.Take();
  std::vector<Message> out;
  EXPECT_FALSE(DecodeBatch(bytes.data(), bytes.size(), &out));
}

TEST(MsgBatchTest, HostileCountIsRejected) {
  WireWriter w;
  w.U8(kMsgBatchMarker);
  w.U32(static_cast<uint32_t>(kMaxBatchMessages + 1));
  std::vector<uint8_t> bytes = w.Take();
  std::vector<Message> out;
  EXPECT_FALSE(DecodeBatch(bytes.data(), bytes.size(), &out));
}

TEST(MsgBatchTest, MaxWidthFrameRoundTrips) {
  std::vector<Message> msgs;
  for (size_t i = 0; i < kMaxBatchMessages; i++) {
    msgs.push_back(Wrap(CommitRequest{{1, i}, (i % 2) == 0}));
  }
  std::vector<uint8_t> bytes = EncodeBatchOf(msgs);
  std::vector<Message> out;
  ASSERT_TRUE(DecodeBatch(bytes.data(), bytes.size(), &out));
  ASSERT_EQ(out.size(), kMaxBatchMessages);
  EXPECT_EQ(std::get<CommitRequest>(out.back().payload).tid.seq, kMaxBatchMessages - 1);
}

TEST(MsgBatchTest, NestedBatchIsRejected) {
  // A batch frame smuggled in as a sub-message must fail sub-decode: the
  // marker byte is not a legal address kind, so the single-message decoder
  // rejects it (the format firewall the marker was chosen for).
  std::vector<Message> inner_msgs = {Wrap(CommitRequest{{1, 1}, true})};
  std::vector<uint8_t> inner = EncodeBatchOf(inner_msgs);
  WireWriter w;
  w.U8(kMsgBatchMarker);
  w.U32(1);
  w.U32(static_cast<uint32_t>(inner.size()));
  std::vector<uint8_t> bytes = w.Take();
  bytes.insert(bytes.end(), inner.begin(), inner.end());
  std::vector<Message> out;
  EXPECT_FALSE(DecodeBatch(bytes.data(), bytes.size(), &out));
}

TEST(MsgBatchTest, SingleMessageDecoderRejectsBatchFrames) {
  std::vector<Message> msgs = {Wrap(CommitRequest{{1, 1}, true}),
                               Wrap(CommitRequest{{1, 2}, true})};
  std::vector<uint8_t> bytes = EncodeBatchOf(msgs);
  Message out;
  EXPECT_FALSE(DecodeMessage(bytes.data(), bytes.size(), &out));
}

TEST(MsgBatchTest, NormalFramesAreNeverBatchFrames) {
  // Single-message frames start with the src address kind (0 or 1), so the
  // marker peek can never confuse the two formats.
  for (const Message& msg : SampleCorpus()) {
    std::vector<uint8_t> bytes = EncodeMessage(msg);
    EXPECT_FALSE(IsBatchFrame(bytes.data(), bytes.size())) << PayloadName(msg.payload);
  }
}

TEST(MsgBatchTest, EveryTruncationIsRejected) {
  std::vector<Message> msgs;
  msgs.push_back(
      Wrap(ValidateRequest{{3, 4}, {999, 3}, {{"alpha", {1, 0}}}, {{"beta", "value"}}}));
  msgs.push_back(Wrap(ValidateReply{{3, 4}, TxnStatus::kValidatedOk, 0, 1}));
  msgs.push_back(Wrap(CommitRequest{{1, 1}, true}));
  std::vector<uint8_t> bytes = EncodeBatchOf(msgs);
  for (size_t len = 0; len < bytes.size(); len++) {
    std::vector<Message> out;
    EXPECT_FALSE(DecodeBatch(bytes.data(), len, &out)) << "accepted truncation at " << len;
    EXPECT_TRUE(out.empty());
  }
}

TEST(MsgBatchTest, TrailingGarbageIsRejected) {
  std::vector<Message> msgs = {Wrap(CommitRequest{{1, 1}, true})};
  std::vector<uint8_t> bytes = EncodeBatchOf(msgs);
  bytes.push_back(0x00);
  std::vector<Message> out;
  EXPECT_FALSE(DecodeBatch(bytes.data(), bytes.size(), &out));
}

TEST(MsgBatchTest, SingleByteFlipsNeverCrash) {
  std::vector<Message> msgs;
  msgs.push_back(
      Wrap(ValidateRequest{{3, 4}, {999, 3}, {{"alpha", {1, 0}}}, {{"beta", "value"}}}));
  msgs.push_back(Wrap(GetReply{{1, 2}, 9, "k", "v", {55, 1}, true}));
  msgs.push_back(Wrap(CommitRequest{{1, 1}, true}));
  std::vector<uint8_t> bytes = EncodeBatchOf(msgs);
  Rng rng(4242);
  for (size_t pos = 0; pos < bytes.size(); pos++) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    std::vector<Message> out;
    if (DecodeBatch(corrupt.data(), corrupt.size(), &out)) {
      // A flip that hit a value byte may still decode; re-encoding the result
      // must be internally consistent (ASan-checked for overreads).
      for (const Message& m : out) {
        EXPECT_EQ(EncodedMessageSize(m), EncodeMessage(m).size());
      }
    }
  }
}

TEST(MsgBatchTest, RandomMultiByteCorruptionNeverCrashes) {
  std::vector<Message> msgs;
  for (int i = 0; i < 8; i++) {
    msgs.push_back(Wrap(ValidateReply{{3, static_cast<uint64_t>(i)},
                                      TxnStatus::kValidatedOk, 0, 1}));
  }
  std::vector<uint8_t> bytes = EncodeBatchOf(msgs);
  Rng rng(777);
  for (int trial = 0; trial < 2000; trial++) {
    std::vector<uint8_t> corrupt = bytes;
    size_t flips = 1 + rng.NextBounded(4);
    for (size_t i = 0; i < flips; i++) {
      corrupt[rng.NextBounded(corrupt.size())] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    }
    std::vector<Message> out;
    DecodeBatch(corrupt.data(), corrupt.size(), &out);  // Must not crash or overread.
  }
}

}  // namespace
}  // namespace meerkat
