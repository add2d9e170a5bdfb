#include "src/transport/serialization.h"

#include <algorithm>
#include <type_traits>
#include <utility>
#include <variant>

#include "src/common/annotations.h"

namespace meerkat {
namespace {

// Guards against hostile length prefixes: no legitimate message in this
// system carries a single string or vector anywhere near this large.
constexpr uint32_t kMaxLength = 64u << 20;

// Hint lists are tiny by construction (kHintsPerReply, 8); a length prefix
// beyond this is hostile or corrupt.
constexpr uint32_t kMaxWriteHints = 64;

// Trecord snapshots and store versions, exchanged in epoch and coordinator
// change.
constexpr uint32_t kMaxRecords = 1u << 24;

// Decode bounds per list element: the largest count accepted, and the most
// elements reserved before any has been read, which caps what a hostile
// count can make the decoder reserve.
template <typename T>
struct ListBounds;
template <>
struct ListBounds<ReadSetEntry> {
  static constexpr uint32_t kMax = kMaxLength, kReserve = 1024;
};
template <>
struct ListBounds<WriteSetEntry> : ListBounds<ReadSetEntry> {};
template <>
struct ListBounds<WriteHint> {
  static constexpr uint32_t kMax = kMaxWriteHints, kReserve = kMaxWriteHints;
};
template <>
struct ListBounds<TxnRecordSnapshot> {
  static constexpr uint32_t kMax = kMaxRecords, kReserve = 0;
};
template <>
struct ListBounds<Timestamp> : ListBounds<TxnRecordSnapshot> {};

class Reader;

// What a Layout walks: const when encoding or sizing, filled in place when
// decoding.
template <typename V, typename T>
using Ref = std::conditional_t<std::is_same_v<V, Reader>, T&, const T&>;

// --- Layouts: each record's and each payload's fields, in wire order -------
//
// The one definition of the format. Encoder (writing or sizing) and Reader
// both walk these; a payload without a Layout fails the build.

template <typename V>
bool Layout(V& v, Ref<V, Timestamp> ts) {
  return v(ts.time) && v(ts.client_id);
}
template <typename V>
bool Layout(V& v, Ref<V, TxnId> tid) {
  return v(tid.client_id) && v(tid.seq);
}
template <typename V>
bool Layout(V& v, Ref<V, Address> a) {
  return v.Enum(a.kind, Address::Kind::kReplica) && v(a.id);
}
template <typename V>
bool Layout(V& v, Ref<V, ReadSetEntry> r) {
  return v(r.key) && v(r.read_wts);
}
template <typename V>
bool Layout(V& v, Ref<V, WriteSetEntry> w) {
  return v(w.key) && v(w.value);
}
template <typename V>
bool Layout(V& v, Ref<V, WriteHint> h) {
  return v(h.key_hash) && v(h.wts);
}
template <typename V>
bool Layout(V& v, Ref<V, TxnRecordSnapshot> s) {
  return v(s.tid) && v(s.ts) && v.Enum(s.status, TxnStatus::kAborted) && v(s.view) &&
         v(s.accept_view) && v(s.accepted) && v(s.core) && v(s.read_set) && v(s.write_set);
}

template <typename V>
bool Layout(V& v, Ref<V, GetRequest> p) {
  return v(p.tid) && v(p.req_seq) && v(p.key);
}
template <typename V>
bool Layout(V& v, Ref<V, GetReply> p) {
  return v(p.tid) && v(p.req_seq) && v(p.key) && v(p.value) && v(p.wts) && v(p.found);
}
template <typename V>
bool Layout(V& v, Ref<V, ValidateRequest> p) {
  return v(p.tid) && v(p.ts) && v(p.sets) && v(p.priority);
}
// The one status that may carry the wire-only kRetryLater shed; record
// snapshots never do.
template <typename V>
bool Layout(V& v, Ref<V, ValidateReply> p) {
  return v(p.tid) && v.Enum(p.status, TxnStatus::kRetryLater) && v(p.from) && v(p.epoch) &&
         v(p.backoff_hint_ns) && v(p.conflict_hash) && v(p.hints);
}
template <typename V>
bool Layout(V& v, Ref<V, AcceptRequest> p) {
  return v(p.tid) && v(p.view) && v(p.commit) && v(p.ts) && v(p.sets);
}
template <typename V>
bool Layout(V& v, Ref<V, AcceptReply> p) {
  return v(p.tid) && v(p.view) && v(p.ok) && v(p.from) && v(p.epoch);
}
template <typename V>
bool Layout(V& v, Ref<V, CommitRequest> p) {
  return v(p.tid) && v(p.commit) && v(p.ts);
}
template <typename V>
bool Layout(V& v, Ref<V, EpochChangeRequest> p) {
  return v(p.epoch);
}
template <typename V>
bool Layout(V& v, Ref<V, EpochChangeAck> p) {
  return v(p.epoch) && v(p.from) && v(p.recovering) && v(p.records) && v(p.store_state) &&
         v(p.store_versions);
}
template <typename V>
bool Layout(V& v, Ref<V, EpochChangeComplete> p) {
  return v(p.epoch) && v(p.records) && v(p.store_state) && v(p.store_versions);
}
template <typename V>
bool Layout(V& v, Ref<V, EpochChangeCompleteAck> p) {
  return v(p.epoch) && v(p.from);
}
template <typename V>
bool Layout(V& v, Ref<V, CoordChangeRequest> p) {
  return v(p.tid) && v(p.view);
}
template <typename V>
bool Layout(V& v, Ref<V, CoordChangeAck> p) {
  return v(p.tid) && v(p.view) && v(p.ok) && v(p.has_record) && v(p.record) && v(p.from);
}
template <typename V>
bool Layout(V& v, Ref<V, PrimaryCommitRequest> p) {
  return v(p.tid) && v(p.ts) && v(p.read_set) && v(p.write_set);
}
template <typename V>
bool Layout(V& v, Ref<V, ReplicateRequest> p) {
  return v(p.tid) && v(p.ts) && v(p.log_index) && v(p.write_set);
}
template <typename V>
bool Layout(V& v, Ref<V, ReplicateReply> p) {
  return v(p.tid) && v(p.from);
}
template <typename V>
bool Layout(V& v, Ref<V, PrimaryCommitReply> p) {
  return v(p.tid) && v(p.committed) && v(p.commit_ts);
}
template <typename V>
bool Layout(V& v, Ref<V, PutRequest> p) {
  return v(p.req_seq) && v(p.key) && v(p.value);
}
template <typename V>
bool Layout(V& v, Ref<V, PutReply> p) {
  return v(p.req_seq);
}
// Timers stay on their endpoint: a datagram carrying this tag is rejected.
template <typename V>
bool Layout(V& v, Ref<V, TimerFire>) {
  return v.Reject();
}

// The frame: header, then the payload's variant index as its tag, then the
// payload.
template <typename V>
bool Layout(V& v, Ref<V, Message> m) {
  return v(m.src) && v(m.dst) && v(m.core) && v.Tagged(m.payload);
}

// --- Visitors ---------------------------------------------------------------

// Counts the bytes a WireWriter would append.
struct WireSizer {
  size_t n = 0;

  void U8(uint8_t) { n += 1; }
  void U32(uint32_t) { n += 4; }
  void U64(uint64_t) { n += 8; }
  void Str(const std::string& s) { n += 4 + s.size(); }
};

// Walks a const value into a WireWriter, or into a WireSizer to measure it,
// so EncodedMessageSize cannot drift from the encoding. Only Reject() returns
// false, and encoding ignores it.
template <typename Sink>
class Encoder {
 public:
  explicit Encoder(Sink& sink) : w_(sink) {}

  bool operator()(uint8_t v) { w_.U8(v); return true; }
  bool operator()(uint32_t v) { w_.U32(v); return true; }
  bool operator()(uint64_t v) { w_.U64(v); return true; }
  bool operator()(bool v) { return Enum(v, true); }
  bool operator()(const std::string& s) { w_.Str(s); return true; }
  template <typename E>
  bool Enum(E e, E /*max*/) {
    return (*this)(static_cast<uint8_t>(e));
  }
  template <typename T>
  bool operator()(const std::vector<T>& xs) {
    w_.U32(static_cast<uint32_t>(xs.size()));
    for (const T& x : xs) {
      (*this)(x);
    }
    return true;
  }
  // The read set, then the write set; a null pointer encodes as empty sets.
  bool operator()(const TxnSetsPtr& sets) {
    return (*this)(sets ? sets->read_set : EmptyReadSet()) &&
           (*this)(sets ? sets->write_set : EmptyWriteSet());
  }
  bool Tagged(const Payload& p) {
    (*this)(static_cast<uint8_t>(p.index()));
    return std::visit([this](const auto& alt) { return Layout(*this, alt); }, p);
  }
  bool Reject() { return false; }
  template <typename R>
  bool operator()(const R& record) {
    return Layout(*this, record);
  }

 private:
  Sink& w_;
};

// Walks a value being decoded, checking every field against the bytes left
// and its bounds. Fails on the first short or out-of-range field.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool operator()(uint8_t& v) { return Int(v); }
  bool operator()(uint32_t& v) { return Int(v); }
  bool operator()(uint64_t& v) { return Int(v); }
  bool operator()(bool& b) { return Enum(b, true); }
  bool operator()(std::string& s) {
    uint32_t len = 0;
    const uint8_t* at = nullptr;
    if (!Int(len) || len > kMaxLength || !Skip(len, &at)) {
      return false;
    }
    s.assign(reinterpret_cast<const char*>(at), len);
    return true;
  }
  template <typename E>
  bool Enum(E& e, E max) {
    uint8_t v = 0;
    if (!Int(v) || v > static_cast<uint8_t>(max)) {
      return false;
    }
    e = static_cast<E>(v);
    return true;
  }
  template <typename T>
  bool operator()(std::vector<T>& xs) {
    uint32_t n = 0;
    if (!Int(n) || n > ListBounds<T>::kMax) {
      return false;
    }
    xs.clear();
    xs.reserve(std::min(n, ListBounds<T>::kReserve));
    for (uint32_t i = 0; i < n; i++) {
      if (!(*this)(xs.emplace_back())) {
        return false;
      }
    }
    return true;
  }
  bool operator()(TxnSetsPtr& sets) {
    std::vector<ReadSetEntry> reads;
    std::vector<WriteSetEntry> writes;
    if (!(*this)(reads) || !(*this)(writes)) {
      return false;
    }
    sets = MakeTxnSets(std::move(reads), std::move(writes));
    return true;
  }
  bool Tagged(Payload& p) {
    uint8_t tag = 0;
    return Int(tag) &&
           Alternative(tag, p, std::make_index_sequence<std::variant_size_v<Payload>>{});
  }
  bool Reject() { return false; }
  template <typename R>
  bool operator()(R& record) {
    return Layout(*this, record);
  }

  // Hands out the next n bytes and steps past them.
  bool Skip(size_t n, const uint8_t** at) {
    if (size_ - pos_ < n) {
      return false;
    }
    *at = data_ + pos_;
    pos_ += n;
    return true;
  }
  bool AtEnd() const { return pos_ == size_; }

 private:
  template <typename T>
  bool Int(T& v) {
    const uint8_t* at = nullptr;
    if (!Skip(sizeof(T), &at)) {
      return false;
    }
    v = 0;
    for (size_t i = 0; i < sizeof(T); i++) {
      v = static_cast<T>(v | (static_cast<T>(at[i]) << (8 * i)));
    }
    return true;
  }
  // Decodes the payload alternative whose variant index is `tag`.
  template <size_t... I>
  bool Alternative(uint8_t tag, Payload& p, std::index_sequence<I...>) {
    return ((tag == I && Layout(*this, p.emplace<I>())) || ...);
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

static_assert(std::variant_size_v<Payload> <= 256, "the payload tag is one byte");

template <typename Sink>
void Encode(Sink& sink, const Message& msg) {
  Encoder<Sink> e(sink);
  Layout(e, msg);
}

}  // namespace

void WireWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; i++) {
    out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; i++) {
    out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  out_->insert(out_->end(), s.begin(), s.end());
}

std::vector<uint8_t> EncodeMessage(const Message& msg) {
  std::vector<uint8_t> out;
  EncodeMessageInto(msg, &out);
  return out;
}

void EncodeMessageInto(const Message& msg, std::vector<uint8_t>* out) {
  // Exact reservation: once the buffer's capacity has seen the workload's
  // largest message, appending never allocates again.
  out->reserve(out->size() + EncodedMessageSize(msg));
  WireWriter w(out);
  Encode(w, msg);
}

size_t EncodedMessageSize(const Message& msg) {
  WireSizer s;
  Encode(s, msg);
  return s.n;
}

bool DecodeMessage(const std::vector<uint8_t>& bytes, Message* out) {
  return DecodeMessage(bytes.data(), bytes.size(), out);
}

bool DecodeMessage(const uint8_t* data, size_t size, Message* out) {
  // Trailing garbage means the frame length disagrees with the contents.
  Reader r(data, size);
  return Layout(r, *out) && r.AtEnd();
}

size_t EncodedBatchSize(const Message* const* msgs, size_t n) {
  size_t total = 1 + 4;  // marker + count
  for (size_t i = 0; i < n; i++) {
    total += 4 + EncodedMessageSize(*msgs[i]);
  }
  return total;
}

ZCP_FAST_PATH void EncodeBatchInto(const Message* const* msgs, size_t n,
                                   std::vector<uint8_t>* out) {
  // One size pass per sub-frame: the reservation. Each length prefix is
  // written as a placeholder and patched once its sub-frame is in place.
  out->reserve(out->size() + EncodedBatchSize(msgs, n));
  WireWriter w(out);
  w.U8(kMsgBatchMarker);
  w.U32(static_cast<uint32_t>(n));
  for (size_t i = 0; i < n; i++) {
    const size_t len_at = out->size();
    w.U32(0);
    Encode(w, *msgs[i]);
    const size_t len = out->size() - len_at - 4;
    for (size_t b = 0; b < 4; b++) {
      (*out)[len_at + b] = static_cast<uint8_t>(len >> (8 * b));
    }
  }
}

ZCP_FAST_PATH bool DecodeBatch(const uint8_t* data, size_t size, std::vector<Message>* out) {
  const size_t restore = out->size();
  Reader r(data, size);
  uint8_t marker = 0;
  uint32_t count = 0;
  bool ok = r(marker) && marker == kMsgBatchMarker && r(count) && count != 0 &&
            count <= kMaxBatchMessages;
  for (uint32_t i = 0; ok && i < count; i++) {
    // Length-prefixed sub-frame; the strict single-message decoder enforces
    // exact consumption, so a length that disagrees with the contents — or a
    // nested batch, whose marker byte is not a legal address kind — fails
    // here instead of shifting every later sub-frame.
    uint32_t len = 0;
    const uint8_t* frame = nullptr;
    ok = r(len) && len != 0 && len <= kMaxLength && r.Skip(len, &frame) &&
         DecodeMessage(frame, len, &out->emplace_back());
  }
  if (!ok || !r.AtEnd()) {  // AtEnd: no trailing garbage after the last sub-frame.
    out->resize(restore);
    return false;
  }
  return true;
}

}  // namespace meerkat
