// Binary wire codec for protocol messages.
//
// The simulated and threaded runtimes pass messages in-process and never
// touch this codec on their hot paths; the UDP runtime
// (src/transport/udp_transport.h) puts every message through it, once per
// datagram, on the encode/send and recv/decode fast paths. That makes two
// properties load-bearing:
//
//  - Encoding must be allocation-free at steady state: WireWriter can append
//    into a caller-owned buffer (EncodeMessageInto), Reset() preserves
//    capacity across messages, and EncodedMessageSize gives an exact
//    reservation hint derived from the txn set sizes so a warm buffer never
//    regrows.
//  - Decode is hardened against truncated and corrupt inputs: it must fail
//    cleanly, never read past the buffer, and reject trailing garbage. Every
//    wire payload type is pinned byte for byte and round-trips in the test
//    suite, and every payload type survives a truncation/bit-flip corruption
//    corpus under ASan and UBSan.
//
// Format: little-endian fixed-width integers; strings and vectors are
// u32-length-prefixed; a Message is [src][dst][core][payload tag:u8][payload].
// The tag is the payload's index in the Payload variant, and the payload's
// fields follow in the order its Layout in serialization.cc lists them; the
// encoder, the sizer and the decoder all walk that one list. TimerFire never
// crosses the wire: it encodes no fields and the decoder rejects its tag.

#ifndef MEERKAT_SRC_TRANSPORT_SERIALIZATION_H_
#define MEERKAT_SRC_TRANSPORT_SERIALIZATION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/transport/message.h"

namespace meerkat {

// Appends wire-format fields to a byte buffer. Two modes:
//  - owning (default ctor): writes into an internal vector handed out by
//    Take().
//  - external (vector* ctor): appends to a caller-owned buffer, which the
//    caller typically clears and reuses across messages so its capacity is
//    paid once (the UDP send path does exactly this via EncodeMessageInto).
class WireWriter {
 public:
  WireWriter() : out_(&own_) {}
  explicit WireWriter(std::vector<uint8_t>* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void Str(const std::string& s);

  // Drops the bytes written so far but keeps the buffer's capacity, so a
  // writer (or the external buffer behind it) can encode a stream of
  // messages with zero steady-state allocations.
  void Reset() { out_->clear(); }

  // Owning mode only: moves the encoded bytes out.
  std::vector<uint8_t> Take() { return std::move(*out_); }
  size_t size() const { return out_->size(); }

 private:
  std::vector<uint8_t> own_;
  std::vector<uint8_t>* out_;
};

// Serializes a complete message (addresses, core, payload tag, payload) into
// a fresh buffer. Convenience form; the hot path uses EncodeMessageInto.
std::vector<uint8_t> EncodeMessage(const Message& msg);

// Appends the encoding of `msg` to `*out` (existing contents are preserved,
// so a transport can place a header in front of the frame). Reserves exactly
// EncodedMessageSize(msg) additional bytes up front — on a reused buffer
// whose capacity has reached the workload's high-water mark this performs no
// allocation at all.
void EncodeMessageInto(const Message& msg, std::vector<uint8_t>* out);

// Exact number of bytes EncodeMessage would produce, computed from the field
// widths and txn set sizes without writing anything.
size_t EncodedMessageSize(const Message& msg);

// Returns false on truncated/corrupt input; `out` is unspecified on failure.
bool DecodeMessage(const std::vector<uint8_t>& bytes, Message* out);

// Raw-buffer overload: decodes straight out of a receive slab without an
// intermediate vector copy.
bool DecodeMessage(const uint8_t* data, size_t size, Message* out);

// --- MsgBatch frame --------------------------------------------------------
//
// Coalesces multiple logical messages for the *same endpoint* (same steering
// word, same destination socket) into one datagram:
//
//   [marker: u8 = kMsgBatchMarker][count: u32][(len: u32)(Message frame)]*
//
// The marker doubles as a format firewall: a single-message frame starts with
// the src address kind byte, which the decoder rejects unless it is 0 or 1,
// so a batch frame can never be misparsed as a single message — and a batch
// nested inside a batch fails sub-message decode for the same reason.
inline constexpr uint8_t kMsgBatchMarker = 0xB7;

// Hard cap on sub-messages per frame; far above what fits one datagram, it
// only bounds hostile count prefixes.
inline constexpr size_t kMaxBatchMessages = 4096;

// True when `data` begins a MsgBatch frame (cheap marker peek; does not
// validate the rest of the frame).
inline bool IsBatchFrame(const uint8_t* data, size_t size) {
  return size > 0 && data[0] == kMsgBatchMarker;
}

// Exact number of bytes EncodeBatchInto appends for msgs[0..n).
size_t EncodedBatchSize(const Message* const* msgs, size_t n);

// Appends the batch frame for msgs[0..n) to `*out` (existing contents — a
// transport's steering word — are preserved). Reserves exactly
// EncodedBatchSize up front, so a warm reused buffer never allocates.
void EncodeBatchInto(const Message* const* msgs, size_t n, std::vector<uint8_t>* out);

// Fans a batch frame back out, appending each decoded sub-message to `*out`.
// On failure `*out` is restored to its length at entry. Rejects zero-count
// frames, hostile counts/lengths, nested batches, sub-frames that do not
// consume exactly their declared length, and trailing garbage.
bool DecodeBatch(const uint8_t* data, size_t size, std::vector<Message>* out);

}  // namespace meerkat

#endif  // MEERKAT_SRC_TRANSPORT_SERIALIZATION_H_
