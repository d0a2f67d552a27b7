// quorum: a 3-member kQuorum replica group in-process, wired like
// `forkbased --group` (each member on its own OpenPersistent store with
// a peer-resolving ServletChunkStore and a ReplicatingChunkStore on
// top; members double as chunk peers; ReplicaGroupOptions defaults).
// Four clients share one ClusterClient with read_replicas. 20k keys of
// 256 B, Zipf(0.99). Mix: 60% Put (quorum), 20% GetValue (head read at
// the leader), 20% GetByUid of an earlier acked write (routed across
// the group's replicas).
//
// The oracle is KvOracle's, as on kv_serve.
#include <memory>
#include <thread>

#include "chunk/peer_resolver.h"
#include "cluster/client.h"
#include "cluster/cluster.h"
#include "kv_ops.h"
#include "replication/group.h"
#include "replication/replicated_store.h"

namespace perfbench {

namespace {

constexpr int kMembers = 3;

constexpr KvMix kMix{60, 20};

// One group member: the stack `forkbased --dir d --group ...` builds.
struct Member {
  std::string dir;
  std::unique_ptr<fb::PeerChunkResolver> resolver;
  TimingChunkStore* timing = nullptr;  // over the physical store
  fb::repl::ReplicatingChunkStore* rstore = nullptr;
  std::unique_ptr<fb::ForkBase> engine;
  std::unique_ptr<fb::rpc::ForkBaseServer> server;
  std::unique_ptr<fb::repl::ReplicaGroup> group;

  fb::Status Open(const std::string& d) {
    dir = d;
    RemoveTree(dir);
    resolver = std::make_unique<fb::PeerChunkResolver>();
    fb::DBOptions dbo;
    dbo.durability = fb::DurabilityPolicy::kQuorum;
    auto wrap = [this](std::unique_ptr<fb::ChunkStore> base)
        -> std::unique_ptr<fb::ChunkStore> {
      auto t = std::make_unique<TimingChunkStore>(std::move(base));
      timing = t.get();
      auto servlet = std::make_unique<fb::ServletChunkStore>(std::move(t),
                                                             resolver.get());
      auto r = std::make_unique<fb::repl::ReplicatingChunkStore>(
          std::move(servlet));
      rstore = r.get();
      return r;
    };
    auto opened = fb::ForkBase::OpenPersistent(dir, dbo, wrap);
    if (!opened.ok()) return opened.status();
    engine = std::move(*opened);
    fb::rpc::ServerOptions so;
    so.local_chunk_store = timing;
    so.peer_count = kMembers - 1;
    auto started = fb::rpc::ForkBaseServer::Start(engine.get(), so);
    if (!started.ok()) return started.status();
    server = std::move(*started);
    return fb::Status::OK();
  }

  // The server dispatches into the group, so it stops first.
  void Close() {
    if (server != nullptr) server->Stop();
    if (group != nullptr) group->Stop();
    server.reset();
    group.reset();
    engine.reset();
    resolver.reset();
    timing = nullptr;
    rstore = nullptr;
    if (!dir.empty()) RemoveTree(dir);
  }
};

class Quorum {
 public:
  explicit Quorum(const Config& cfg)
      : cfg_(cfg), oracle_(cfg.tiny ? 1000 : 20000, 256, cfg.seed) {}

  fb::Status Setup(int round) {
    oracle_.Reset();
    std::vector<std::string> endpoints;
    for (int m = 0; m < kMembers; ++m) {
      FB_RETURN_NOT_OK(members_[m].Open(cfg_.work_dir + "/quorum-" +
                                        std::to_string(round) + "-" +
                                        std::to_string(m)));
      endpoints.push_back(members_[m].server->endpoint());
    }
    for (int m = 0; m < kMembers; ++m) {
      std::vector<std::string> peers;
      for (int o = 0; o < kMembers; ++o) {
        if (o != m) peers.push_back(endpoints[o]);
      }
      members_[m].resolver->SetPeers(peers);
      fb::repl::ReplicaGroupOptions ro;
      ro.members = endpoints;
      ro.self = endpoints[m];
      members_[m].group = std::make_unique<fb::repl::ReplicaGroup>(
          members_[m].engine.get(), members_[m].rstore, ro);
      FB_RETURN_NOT_OK(members_[m].group->Start());
      members_[m].server->set_replication(members_[m].group.get());
    }
    Member& leader = members_[0];
    // Quorum writes block until a majority is registered.
    const auto t0 = Clock::now();
    while (leader.group->Snapshot().follower_count < kMembers - 1) {
      if (SecondsSince(t0) > 30) {
        return fb::Status::Unavailable("followers never registered");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    hook_ = std::make_unique<TimingCommitHook>(leader.group.get());
    leader.engine->AttachReplication(leader.group.get(), hook_.get());
    FB_RETURN_NOT_OK(oracle_.Load(leader.engine.get()));
    fb::ClusterClientOptions co;
    co.endpoints = {endpoints[0]};
    co.remote_pool_size = kClients;
    co.read_replicas = {{endpoints[1], endpoints[2]}};
    auto client = fb::ClusterClient::Connect(nullptr, co);
    if (!client.ok()) return client.status();
    client_ = std::move(*client);
    embedded_ = std::make_unique<fb::EmbeddedService>(leader.engine.get());
    auto clients = Clients(cfg_.seed * 7919 + round * 131);
    return WarmUp(cfg_.tiny ? 20 : 200, [&](int c, ClientStats* st) {
      clients[c].Op(st, false, false);
    });
  }

  RunResult Measure() {
    RunResult r;
    r.notes.push_back(
        "members run DBOptions{} with durability=kQuorum, as forkbased "
        "--group sets it");
    Phases phases(cfg_.seconds, cfg_.trace);
    Member& leader = members_[0];
    // Version reads land on followers too: their peer fetches count.
    EngineSnapshot before =
        Snap(leader.engine.get(), leader.timing, leader.server.get());
    before.store.peer_fetches += FollowerPeerFetches();
    const fb::repl::ReplicaGroupStats g0 = leader.group->stats();
    const auto rs0 = client_->replica_stats();
    const uint64_t waits0 = hook_->waits();
    const int64_t wait_ns0 = hook_->wait_ns();
    auto clients = Clients(cfg_.seed * 104729);
    r.stats = RunClients(&phases, [&](int c, ClientStats* st, bool traced,
                                      bool sampled) {
      clients[c].Op(st, traced, sampled);
    });
    EngineSnapshot after =
        Snap(leader.engine.get(), leader.timing, leader.server.get());
    after.store.peer_fetches += FollowerPeerFetches();
    const fb::repl::ReplicaGroupStats g1 = leader.group->stats();
    const auto rs1 = client_->replica_stats();
    r.measured_s = phases.elapsed();
    if (cfg_.trace) {
      EngineLayers(before, after, r.stats, phases, &r);
      auto& L = r.layer;
      const uint64_t waits = hook_->waits() - waits0;
      L["replication.quorum_wait_us"] =
          waits > 0 ? (hook_->wait_ns() - wait_ns0) / 1e3 / waits : 0;
      const double commits =
          static_cast<double>(g1.quorum_commits - g0.quorum_commits);
      const double shipments =
          static_cast<double>(g1.shipments_sent - g0.shipments_sent);
      L["replication.shipments_per_commit"] =
          commits > 0 ? shipments / commits : 0;
      L["replication.records_per_shipment"] =
          shipments > 0 ? (g1.records_shipped - g0.records_shipped) / shipments
                        : 0;
      L["replication.quorum_timeouts"] =
          static_cast<double>(g1.quorum_timeouts - g0.quorum_timeouts);
      const double version_reads = static_cast<double>(
          r.stats.lat_ms[kVersionRead].size() +
          r.stats.traced_wire_us[kVersionRead].size());
      L["cluster.replica_read_share"] =
          version_reads > 0
              ? (rs1.replica_reads - rs0.replica_reads) / version_reads
              : 0;
    }
    r.space_amp = SpaceAmp(before.store, after.store, r.stats.user_bytes);
    return r;
  }

  void Teardown() {
    embedded_.reset();
    client_.reset();
    // Stop every server before any group: followers' servers dispatch
    // into their groups, the leader's group ships to followers' servers.
    for (auto& m : members_) {
      if (m.server != nullptr) m.server->Stop();
    }
    for (auto& m : members_) m.Close();
    hook_.reset();
  }

 private:
  uint64_t FollowerPeerFetches() const {
    uint64_t sum = 0;
    for (int m = 1; m < kMembers; ++m) {
      sum += members_[m].engine->store()->stats().peer_fetches;
    }
    return sum;
  }

  std::vector<KvClient> Clients(uint64_t seed) {
    std::vector<KvClient> out;
    for (int c = 0; c < kClients; ++c) {
      out.emplace_back(&oracle_, c, seed + c, kMix, client_.get(),
                       embedded_.get());
    }
    return out;
  }

  const Config& cfg_;
  KvOracle oracle_;
  Member members_[kMembers];
  std::unique_ptr<TimingCommitHook> hook_;
  std::unique_ptr<fb::ClusterClient> client_;
  std::unique_ptr<fb::EmbeddedService> embedded_;
};

}  // namespace

RunResult RunQuorum(const Config& cfg) { return RunWorkload<Quorum>(cfg); }

}  // namespace perfbench
