// kv_serve: small durable ops over the wire. Four synchronous clients,
// 50% Put / 40% GetValue / 10% GetByUid of a version the client acked,
// Zipf(0.99) over 50k keys of 256 B, against a ForkBaseServer over
// ForkBase::OpenPersistent with DBOptions{} defaults. The oracle is
// KvOracle's; after the run the store is closed cleanly, reopened, and
// every key checked against its last acked version.
#include <memory>

#include "kv_ops.h"
#include "rpc/remote_service.h"

namespace perfbench {

namespace {

constexpr KvMix kMix{50, 40};

class KvServe {
 public:
  explicit KvServe(const Config& cfg)
      : cfg_(cfg), oracle_(cfg.tiny ? 2000 : 50000, 256, cfg.seed) {}

  fb::Status Setup(int round) {
    dir_ = cfg_.work_dir + "/kv_serve-" + std::to_string(round);
    RemoveTree(dir_);
    oracle_.Reset();
    auto opened = fb::ForkBase::OpenPersistent(dir_, fb::DBOptions{},
                                               TimingWrapper(&timing_));
    if (!opened.ok()) return opened.status();
    db_ = std::move(*opened);
    auto server = fb::rpc::ForkBaseServer::Start(db_.get(), {});
    if (!server.ok()) return server.status();
    server_ = std::move(*server);
    FB_RETURN_NOT_OK(oracle_.Load(db_.get()));
    for (int c = 0; c < kClients; ++c) {
      fb::rpc::RemoteServiceOptions ro;
      ro.pool_size = 1;
      auto conn = fb::rpc::RemoteService::Connect(server_->endpoint(), ro);
      if (!conn.ok()) return conn.status();
      remotes_[c] = std::move(*conn);
      embedded_[c] = std::make_unique<fb::EmbeddedService>(db_.get());
    }
    auto clients = Clients(cfg_.seed * 7919 + round * 131);
    return WarmUp(cfg_.tiny ? 50 : 500, [&](int c, ClientStats* st) {
      clients[c].Op(st, false, false);
    });
  }

  RunResult Measure() {
    RunResult r;
    Phases phases(cfg_.seconds, cfg_.trace);
    auto clients = Clients(cfg_.seed * 104729);
    if (cfg_.corrupt) clients[0].PlantCorruption(timing_);
    const EngineSnapshot before = Snap(db_.get(), timing_, server_.get());
    r.stats = RunClients(&phases, [&](int c, ClientStats* st, bool traced,
                                      bool sampled) {
      clients[c].Op(st, traced, sampled);
    });
    const EngineSnapshot after = Snap(db_.get(), timing_, server_.get());
    r.measured_s = phases.elapsed();
    if (cfg_.trace) EngineLayers(before, after, r.stats, phases, &r);
    r.space_amp = SpaceAmp(before.store, after.store, r.stats.user_bytes);
    Reopen(&r);
    return r;
  }

  void Teardown() {
    Close();
    if (!dir_.empty()) RemoveTree(dir_);
  }

 private:
  std::vector<KvClient> Clients(uint64_t seed) {
    std::vector<KvClient> out;
    for (int c = 0; c < kClients; ++c) {
      out.emplace_back(&oracle_, c, seed + c, kMix, remotes_[c].get(),
                       embedded_[c].get());
    }
    return out;
  }

  void Close() {
    for (auto& e : embedded_) e.reset();
    for (auto& c : remotes_) c.reset();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    db_.reset();
    timing_ = nullptr;
  }

  // Clean close, reopen, and a check of every key's last acked version.
  void Reopen(RunResult* r) {
    Close();
    auto opened = fb::ForkBase::OpenPersistent(dir_, fb::DBOptions{});
    if (!opened.ok()) {
      r->stats.Fail("reopen: " + opened.status().ToString());
      return;
    }
    uint64_t bad = 0;
    for (uint32_t k = 0; k < oracle_.keys(); ++k) {
      ++r->stats.attempted;
      auto got = (*opened)->GetValue(KvKey(k));
      if (!got.ok() || !got->has_value ||
          !oracle_.Matches(k, oracle_.acked(k), oracle_.started(k),
                           fb::BytesToString(got->value))) {
        ++bad;
        r->stats.Fail("reopen: " + KvKey(k) + " lost its acked value");
      }
    }
    r->notes.push_back("reopen check: " + std::to_string(oracle_.keys()) +
                       " keys, " + std::to_string(bad) + " mismatches");
  }

  const Config& cfg_;
  KvOracle oracle_;
  std::string dir_;
  std::unique_ptr<fb::ForkBase> db_;
  TimingChunkStore* timing_ = nullptr;
  std::unique_ptr<fb::rpc::ForkBaseServer> server_;
  std::unique_ptr<fb::rpc::RemoteService> remotes_[kClients];
  std::unique_ptr<fb::EmbeddedService> embedded_[kClients];
};

}  // namespace

RunResult RunKvServe(const Config& cfg) { return RunWorkload<KvServe>(cfg); }

}  // namespace perfbench
