// ledger: the CPU-bound POS-tree rewrite of a large Map on every block
// commit, with no rpc and no fsync. ForkBaseLedger embedded, one client
// (commits are serial), 262,144 keys of 100 B, blocks of 50 txns with
// r = w = 0.5 over uniform keys, and one StateScan of at most 8
// versions per block.
//
// Oracle: a shadow of the contract state (key -> version; a version's
// bytes are a function of seed, key and version) and of each key's
// committed version history. Every read is checked against the shadow,
// every scan against the history.
#include <memory>
#include <unordered_map>

#include "blockchain/forkbase_ledger.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr const char* kContract = "kvstore";
constexpr uint32_t kBlockTxns = 50;
constexpr uint64_t kScanVersions = 8;

struct Sizes {
  uint32_t keys;
  size_t value_bytes;
  int warmup_blocks;
};

std::string KeyName(uint32_t k) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "key%07u", k);
  return buf;
}

class Ledger {
 public:
  explicit Ledger(const Config& cfg)
      : cfg_(cfg),
        sizes_(cfg.tiny ? Sizes{2048, 100, 5} : Sizes{262144, 100, 50}) {}

  std::string Value(uint32_t key, uint32_t version) const {
    return FillBytes(cfg_.seed, key, version, 3, sizes_.value_bytes);
  }

  fb::Status Setup(int round) {
    ledger_ = std::make_unique<fb::ForkBaseLedger>(fb::DBOptions{});
    current_.assign(sizes_.keys, 0);
    history_.clear();
    block_ = 0;
    // Genesis load: every key at version 0, 16k writes per block.
    for (uint32_t lo = 0; lo < sizes_.keys; lo += 16384) {
      for (uint32_t k = lo; k < std::min(sizes_.keys, lo + 16384); ++k) {
        FB_RETURN_NOT_OK(ledger_->Write(kContract, KeyName(k), Value(k, 0)));
      }
      FB_RETURN_NOT_OK(ledger_->Commit(++block_, {}));
    }
    rng_ = fb::Rng(cfg_.seed * 7919 + round);
    ClientStats warm;
    for (int b = 0; b < sizes_.warmup_blocks; ++b) Block(&warm, false);
    if (warm.failed != 0) {
      return fb::Status::Corruption("warm-up: " + warm.first_error);
    }
    return fb::Status::OK();
  }

  RunResult Measure() {
    RunResult r;
    Phases phases(cfg_.seconds, cfg_.trace);
    rng_ = fb::Rng(cfg_.seed * 104729);
    fb::ForkBase* db = ledger_->db();
    const EngineSnapshot before = Snap(db, nullptr, nullptr);
    SpanRecorder& rec = SpanRecorder::Get();
    uint64_t txns = 0;
    uint64_t txns_untraced = 0;
    phases.Start();
    r.stats.origin = Clock::now();
    while (!phases.Done()) {
      const bool traced = phases.TracedNow();
      rec.set_enabled(traced);
      Block(&r.stats, traced);
      txns += kBlockTxns;
      if (!traced) txns_untraced += kBlockTxns;
    }
    phases.Finish();
    rec.set_enabled(false);
    const EngineSnapshot after = Snap(db, nullptr, nullptr);
    r.measured_s = phases.elapsed();
    // An op is one transaction here: throughput counts txns, each
    // done when its block's commit returns.
    r.stats.ops_untraced = txns_untraced;
    r.stats.ops_traced = txns - txns_untraced;
    r.stats.done_s.clear();
    for (size_t i = 0; i < r.stats.lat_ms[kPut].size(); ++i) {
      const double done =
          r.stats.start_s[kPut][i] + r.stats.lat_ms[kPut][i] / 1e3;
      r.stats.done_s.insert(r.stats.done_s.end(), kBlockTxns, done);
    }
    // ForkBaseLedger owns its in-memory store, so there is no decorator
    // and no server: the layers come from the engine's own counters.
    if (cfg_.trace) EngineLayers(before, after, r.stats, phases, &r);
    r.space_amp = SpaceAmp(before.store, after.store, r.stats.user_bytes);
    return r;
  }

  void Teardown() { ledger_.reset(); }

 private:
  // One block: 50 txns, the commit, and one state scan.
  void Block(ClientStats* st, bool traced) {
    std::vector<fb::Transaction> txns;
    std::vector<uint32_t> written;
    for (uint32_t i = 0; i < kBlockTxns; ++i) {
      const uint32_t key = static_cast<uint32_t>(rng_.Uniform(sizes_.keys));
      fb::Transaction txn;
      txn.contract = kContract;
      txn.key = KeyName(key);
      ++st->attempted;
      if (rng_.Bernoulli(0.5)) {
        txn.op = fb::Transaction::Op::kGet;
        std::string value;
        const auto t0 = Clock::now();
        fb::Status s;
        {
          ScopedSpan span("ledger.read");
          s = ledger_->Read(kContract, txn.key, &value);
        }
        RecordOp(st, kGet, traced, false, t0);
        if (!s.ok()) {
          st->Fail("read: " + s.ToString());
        } else if (value != Value(key, current_[key])) {
          st->Fail("read " + txn.key + ": wrong value");
        }
      } else {
        txn.op = fb::Transaction::Op::kPut;
        txn.value = Value(key, ++current_[key]);
        const fb::Status s = ledger_->Write(kContract, txn.key, txn.value);
        if (!s.ok()) st->Fail("write: " + s.ToString());
        written.push_back(key);
      }
      txns.push_back(std::move(txn));
    }
    ++st->attempted;
    const auto t0 = Clock::now();
    fb::Status s;
    {
      ScopedSpan span("ledger.commit");
      s = ledger_->Commit(++block_, txns);
    }
    RecordOp(st, kPut, traced, false, t0);
    if (!s.ok()) return st->Fail("commit: " + s.ToString());
    for (uint32_t key : written) {
      auto& h = history_[key];
      if (h.empty()) h.push_back(0);
      if (h.back() != current_[key]) h.push_back(current_[key]);
      ++st->writes;
      st->user_bytes += sizes_.value_bytes;
    }
    // Scan a key this block wrote (else any key).
    const uint32_t key = written.empty()
                             ? static_cast<uint32_t>(rng_.Uniform(sizes_.keys))
                             : written[rng_.Uniform(written.size())];
    ++st->attempted;
    const auto t1 = Clock::now();
    fb::Result<std::vector<fb::StateVersion>> scan = fb::Status::OK();
    {
      ScopedSpan span("ledger.state_scan");
      scan = ledger_->StateScan(kContract, KeyName(key), kScanVersions);
    }
    RecordOp(st, kVersionRead, traced, false, t1);
    if (!scan.ok()) return st->Fail("state_scan: " + scan.status().ToString());
    auto hit = history_.find(key);
    const std::vector<uint32_t> base{0};
    const std::vector<uint32_t>& h = hit == history_.end() ? base : hit->second;
    const size_t want = std::min<size_t>(h.size(), kScanVersions);
    bool ok = scan->size() == want;
    for (size_t i = 0; ok && i < want; ++i) {
      ok = (*scan)[i].value == Value(key, h[h.size() - 1 - i]);
    }
    if (!ok) st->Fail("state_scan " + KeyName(key) + ": wrong history");
  }

  const Config& cfg_;
  const Sizes sizes_;
  std::unique_ptr<fb::ForkBaseLedger> ledger_;
  std::vector<uint32_t> current_;  // key -> version (buffered writes too)
  std::unordered_map<uint32_t, std::vector<uint32_t>> history_;  // committed
  uint64_t block_ = 0;
  fb::Rng rng_{1};
};

}  // namespace

RunResult RunLedger(const Config& cfg) { return RunWorkload<Ledger>(cfg); }

}  // namespace perfbench
