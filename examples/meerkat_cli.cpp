// Interactive CLI over an in-process Meerkat cluster: a tiny redis-cli-style
// REPL for poking at the store, watching the protocol, and staging multi-op
// transactions by hand.
//
//   $ ./meerkat_cli
//   meerkat> put name ada
//   COMMIT
//   meerkat> get name
//   "ada"  (version 4102342.1)
//   meerkat> begin
//   meerkat(txn)> get name
//   meerkat(txn)> put name lovelace
//   meerkat(txn)> commit
//   COMMIT (fast path)
//   meerkat> crash 2          # crash replica 2; commits continue (slow path)
//   meerkat> recover 2        # restart + epoch change
//   meerkat> stats
//
// Commands: get k | put k v | del-demo | begin | commit | abort |
//           crash R | recover R | replicas | stats | help | quit

#include <condition_variable>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>

#include "src/api/system.h"
#include "src/protocol/replica.h"
#include "src/protocol/session.h"
#include "src/transport/threaded_transport.h"

using namespace meerkat;

namespace {

class Cli {
 public:
  Cli() : quorum_(QuorumConfig::ForReplicas(3)) {
    for (ReplicaId r = 0; r < quorum_.n; r++) {
      replicas_.push_back(
          std::make_unique<MeerkatReplica>(r, quorum_, 2, &transport_, &time_source_));
    }
    SessionOptions options;
    options.quorum = quorum_;
    options.cores_per_replica = 2;
    options.retry = RetryPolicy::WithTimeout(5'000'000);
    session_ = std::make_unique<MeerkatSession>(1, &transport_, &time_source_, options, 42);
  }

  ~Cli() { transport_.Stop(); }

  void Run() {
    printf("meerkat: 3-replica in-process cluster (f=1, 2 cores/replica)\n");
    printf("type 'help' for commands\n");
    std::string line;
    while (true) {
      printf(in_txn_ ? "meerkat(txn)> " : "meerkat> ");
      fflush(stdout);
      if (!std::getline(std::cin, line)) {
        break;
      }
      std::istringstream in(line);
      std::string cmd;
      in >> cmd;
      if (cmd.empty()) {
        continue;
      }
      if (cmd == "quit" || cmd == "exit") {
        break;
      }
      Handle(cmd, in);
    }
  }

 private:
  void Handle(const std::string& cmd, std::istringstream& in) {
    std::string key;
    std::string value;
    if (cmd == "help") {
      printf("  get K         transactional read\n"
             "  put K V       transactional write\n"
             "  begin         stage a multi-op transaction\n"
             "  commit        run the staged transaction\n"
             "  abort         discard the staged transaction\n"
             "  crash R       crash replica R (0-2)\n"
             "  recover R     restart replica R and run the epoch change\n"
             "  replicas      show per-replica state for a key: replicas K\n"
             "  stats         client-side protocol statistics\n"
             "  quit\n");
      return;
    }
    if (cmd == "begin") {
      if (in_txn_) {
        printf("already in a transaction\n");
        return;
      }
      in_txn_ = true;
      staged_ = TxnPlan{};
      return;
    }
    if (cmd == "abort") {
      in_txn_ = false;
      staged_ = TxnPlan{};
      printf("discarded\n");
      return;
    }
    if (cmd == "commit") {
      if (!in_txn_) {
        printf("no staged transaction; use begin\n");
        return;
      }
      in_txn_ = false;
      RunTxn(std::move(staged_), /*print_reads=*/true);
      staged_ = TxnPlan{};
      return;
    }
    if (cmd == "get") {
      in >> key;
      if (in_txn_) {
        staged_.ops.push_back(Op::Get(key));
        printf("staged get %s\n", key.c_str());
        return;
      }
      RunTxn(Txn().Get(key).Build(), /*print_reads=*/true);
      return;
    }
    if (cmd == "put") {
      in >> key;
      std::getline(in, value);
      if (!value.empty() && value[0] == ' ') {
        value.erase(0, 1);
      }
      if (in_txn_) {
        staged_.ops.push_back(Op::Put(key, value));
        printf("staged put %s\n", key.c_str());
        return;
      }
      RunTxn(Txn().Put(key, value).Build(), /*print_reads=*/false);
      return;
    }
    if (cmd == "crash") {
      ReplicaId r = 0;
      in >> r;
      if (r >= quorum_.n) {
        printf("no such replica\n");
        return;
      }
      transport_.faults().CrashReplica(r);
      printf("replica %u crashed (commits continue on the slow path)\n", r);
      return;
    }
    if (cmd == "recover") {
      ReplicaId r = 0;
      in >> r;
      if (r >= quorum_.n) {
        printf("no such replica\n");
        return;
      }
      replicas_[r]->CrashAndRestart();
      transport_.faults().RecoverReplica(r);
      replicas_[(r + 1) % quorum_.n]->InitiateEpochChange();
      transport_.DrainForTesting();
      printf("replica %u rebuilt via epoch change (epoch now %llu)\n", r,
             static_cast<unsigned long long>(replicas_[r]->epoch()));
      return;
    }
    if (cmd == "replicas") {
      in >> key;
      for (ReplicaId r = 0; r < quorum_.n; r++) {
        ReadResult read = replicas_[r]->store().Read(key);
        if (read.found) {
          printf("  replica %u: \"%s\" @ %s (epoch %llu)\n", r, read.value.c_str(),
                 read.wts.ToString().c_str(),
                 static_cast<unsigned long long>(replicas_[r]->epoch()));
        } else {
          printf("  replica %u: <absent> (epoch %llu)\n", r,
                 static_cast<unsigned long long>(replicas_[r]->epoch()));
        }
      }
      return;
    }
    if (cmd == "stats") {
      const RunStats& stats = session_->stats();
      printf("  committed=%llu aborted=%llu failed=%llu fast=%llu slow=%llu\n",
             static_cast<unsigned long long>(stats.committed),
             static_cast<unsigned long long>(stats.aborted),
             static_cast<unsigned long long>(stats.failed),
             static_cast<unsigned long long>(stats.fast_path_commits),
             static_cast<unsigned long long>(stats.slow_path_commits));
      printf("  latency: %s\n", stats.commit_latency.Summary().c_str());
      return;
    }
    printf("unknown command '%s'; try help\n", cmd.c_str());
  }

  void RunTxn(TxnPlan plan, bool print_reads) {
    std::unique_lock<std::mutex> lock(mu_);
    bool done = false;
    TxnOutcome outcome;
    TxnPlan copy = plan;  // Keys for read printing.
    session_->ExecuteAsync(std::move(plan), [&](const TxnOutcome& o) {
      std::lock_guard<std::mutex> inner(mu_);
      outcome = o;
      done = true;
      cv_.notify_one();
    });
    cv_.wait(lock, [&] { return done; });
    if (outcome.committed()) {
      printf("COMMIT (%s path)\n", outcome.fast_path() ? "fast" : "slow");
      if (print_reads) {
        for (const Op& op : copy.ops) {
          if (op.kind == Op::Kind::kGet) {
            auto value = session_->last_read_value(op.key);
            bool absent = true;
            for (const ReadSetEntry& read : session_->last_read_set()) {
              if (read.key == op.key && read.read_wts.Valid()) {
                absent = false;
              }
            }
            if (absent && (!value.has_value() || value->empty())) {
              printf("  %s = <absent>\n", op.key.c_str());
            } else {
              printf("  %s = \"%s\"\n", op.key.c_str(), value.value_or("").c_str());
            }
          }
        }
      }
    } else {
      printf("%s (%s)\n", ToString(outcome.result), ToString(outcome.reason));
    }
  }

  ThreadedTransport transport_;
  SystemTimeSource time_source_;
  QuorumConfig quorum_;
  std::vector<std::unique_ptr<MeerkatReplica>> replicas_;
  std::unique_ptr<MeerkatSession> session_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool in_txn_ = false;
  TxnPlan staged_;
};

}  // namespace

int main() {
  Cli cli;
  cli.Run();
  return 0;
}
