// Online trecord garbage collection: the zero-coordination watermark GC
// configuration (SystemOptions::gc).
//
// The trecord grows by one record per transaction and, without GC, is never
// trimmed at steady state — an O(total-txns-ever) footprint (paper §5.4
// prescribes the fix: "replicas bring themselves up-to-date and safely trim
// the trecord"). The GC follows the zero-coordination principle end to end:
//
//   * Each replica core derives its watermark from its own clock:
//     W = now − horizon_ns, read from the System's TimeSource at every GC
//     step. No client state, no wire bytes, no cross-replica agreement.
//   * The core trims only finalized records of its OWN trecord partition
//     strictly below W and publishes W through a single-writer relaxed
//     atomic (the CoreLoad discipline). Clocks serve performance, never
//     safety (paper §3): a message older than the horizon is answered from W
//     with an abort vote or dropped, both of which the protocol tolerates.
//   * Trimming runs from the DispatchBatch maintenance slot after every
//     batch. Each partition queues its records in timestamp order, so a step
//     pops only the records that crossed W and never walks the table.
//
// Duplicate messages for an already-trimmed transaction are answered
// idempotently from the watermark (see replica.cc and DESIGN.md §12).

#ifndef MEERKAT_SRC_COMMON_GC_H_
#define MEERKAT_SRC_COMMON_GC_H_

#include <cstdint>

namespace meerkat {

struct GcOptions {
  // Online GC is on by default: unbounded trecord growth is a bug, not a
  // configuration choice. Disable only for tests that inspect finalized
  // records after the fact.
  bool enabled = true;
  // How far (timestamp-time units, ns in every runtime) the watermark trails
  // the replica's clock: W = now − horizon_ns. A transaction's messages stay
  // answerable from its record for at least this long after its timestamp;
  // an older message for an absent record gets an abort vote (VALIDATE) or
  // is dropped (COMMIT). CreateSystem raises it to at least the retry
  // policy's attempt deadline plus the clocks' maximum skew and jitter, so no
  // message of a transaction inside its deadline is ever answered from W.
  uint64_t horizon_ns = 10'000'000;
  // A non-final record this far below the core watermark is orphaned — its
  // coordinator stopped driving it long ago — and the GC step starts
  // cooperative termination (paper §5.3.2) for it, which also releases the
  // transaction's pending vstore reader/writer registrations. A swept
  // transaction is not swept again for another orphan_grace_ns.
  uint64_t orphan_grace_ns = 500'000'000;

  GcOptions& WithEnabled(bool on) {
    enabled = on;
    return *this;
  }
  GcOptions& WithHorizon(uint64_t ns) {
    horizon_ns = ns;
    return *this;
  }
  GcOptions& WithOrphanGrace(uint64_t ns) {
    orphan_grace_ns = ns;
    return *this;
  }
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_COMMON_GC_H_
