#include <malloc.h>

#include <fstream>
#include <thread>

#include "workloads.h"

namespace perfbench {

ClientStats RunClients(Phases* phases, const ClientOp& op) {
  std::vector<ClientStats> stats(kClients);
  SpanRecorder& rec = SpanRecorder::Get();
  rec.set_enabled(false);
  phases->Start();
  for (auto& st : stats) st.origin = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientStats* st = &stats[c];
      while (!phases->Done()) {
        const bool traced = phases->TracedNow();
        op(c, st, traced, traced && (st->attempted + 1) % kSampleEvery == 0);
      }
    });
  }
  while (!phases->Done()) {
    rec.set_enabled(phases->TracedNow());
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  for (auto& t : threads) t.join();
  phases->Finish();
  rec.set_enabled(false);
  ClientStats merged;
  for (const auto& st : stats) merged.Merge(st);
  return merged;
}

fb::Status WarmUp(int ops, const std::function<void(int, ClientStats*)>& op) {
  std::vector<ClientStats> stats(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < ops; ++i) op(c, &stats[c]);
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& st : stats) {
    if (st.failed != 0) return fb::Status::Corruption("warm-up: " + st.first_error);
  }
  return fb::Status::OK();
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

fb::ForkBase::StoreWrapper TimingWrapper(TimingChunkStore** out) {
  return [out](std::unique_ptr<fb::ChunkStore> base)
             -> std::unique_ptr<fb::ChunkStore> {
    auto t = std::make_unique<TimingChunkStore>(std::move(base));
    *out = t.get();
    return t;
  };
}

void RecordOp(ClientStats* st, int op, bool traced, bool sampled,
              Clock::time_point t0) {
  const double us = SecondsSince(t0) * 1e6;
  if (!traced) {
    ++st->ops_untraced;
    st->lat_ms[op].push_back(us / 1e3);
    const double start = std::chrono::duration<double>(t0 - st->origin).count();
    st->start_s[op].push_back(start);
    st->done_s.push_back(start + us / 1e6);
    return;
  }
  ++st->ops_traced;
  if (sampled) {
    ++st->ops_sampled;
    st->sampled_busy_s += us / 1e6;
    st->embedded_us[op].push_back(us);
  } else {
    st->traced_wire_us[op].push_back(us);
  }
}

EngineSnapshot Snap(fb::ForkBase* db, const TimingChunkStore* timing,
                    const fb::rpc::ForkBaseServer* server) {
  EngineSnapshot s;
  s.store = db->store()->stats();
  s.hot = db->hot_head_stats();
  if (timing != nullptr) {
    s.timed = true;
    s.timing = timing->timing();
    if (auto* lsm = dynamic_cast<const fb::LsmChunkStore*>(timing->base())) {
      s.lsm = true;
      s.lsm_stats = lsm->backend_stats();
    }
  }
  if (server != nullptr) {
    s.served = true;
    s.server_requests = server->stats().requests;
  }
  s.write_bytes = ProcWriteBytes();
  return s;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void EngineLayers(const EngineSnapshot& a, const EngineSnapshot& b,
                  const ClientStats& st, const Phases& phases,
                  RunResult* r) {
  auto& L = r->layer;
  const double ops_all = static_cast<double>(st.ops_untraced + st.ops_traced);
  const double ops_traced = static_cast<double>(st.ops_traced);
  const double wire_ops = ops_all - static_cast<double>(st.ops_sampled);
  const double writes = static_cast<double>(st.writes);
  // kPut is each workload's commit (a put, a page save, a block).
  const double commits = static_cast<double>(
      st.lat_ms[kPut].size() + st.traced_wire_us[kPut].size() +
      st.embedded_us[kPut].size());

  if (b.served) {
    L["rpc.frames_per_op"] =
        Ratio(static_cast<double>(b.server_requests - a.server_requests),
              wire_ops);
  }
  const char* kinds[] = {"put", "get", "version_read", "diff"};
  for (int k = 0; k < kNumOps; ++k) {
    const double api = Median(st.embedded_us[k]);
    if (!st.embedded_us[k].empty()) {
      L[std::string("api.execute_us.") + kinds[k]] = api;
    }
    if (k != kDiff && !st.embedded_us[k].empty() &&
        !st.traced_wire_us[k].empty()) {
      L[std::string("rpc.overhead_us.") + kinds[k]] =
          Median(st.traced_wire_us[k]) - api;
    }
  }

  const double hot_hits = static_cast<double>(b.hot.hits - a.hot.hits);
  const double hot_miss = static_cast<double>(b.hot.misses - a.hot.misses);
  L["api.hot_head_hit_ratio"] = Ratio(hot_hits, hot_hits + hot_miss);
  L["api.hot_head_invalidations_per_put"] = Ratio(
      static_cast<double>(b.hot.invalidations - a.hot.invalidations), writes);

  if (b.timed) {
    L["chunk.put_calls_per_op"] = Ratio(
        static_cast<double>(b.timing.put_calls - a.timing.put_calls),
        ops_traced);
    L["chunk.put_bytes_per_op"] = Ratio(
        static_cast<double>(b.timing.put_bytes - a.timing.put_bytes),
        ops_traced);
    L["chunk.put_busy_us_per_op"] =
        Ratio((b.timing.put_ns - a.timing.put_ns) / 1e3, ops_traced);
    L["chunk.get_calls_per_op"] = Ratio(
        static_cast<double>(b.timing.get_calls - a.timing.get_calls),
        ops_traced);
    L["chunk.get_busy_us_per_op"] =
        Ratio((b.timing.get_ns - a.timing.get_ns) / 1e3, ops_traced);
  }

  const double c_hits = static_cast<double>(b.store.cache_hits - a.store.cache_hits);
  const double c_miss =
      static_cast<double>(b.store.cache_misses - a.store.cache_misses);
  if (c_hits + c_miss > 0) {
    L["chunk.block_cache_hit_ratio"] = c_hits / (c_hits + c_miss);
    L["chunk.block_cache_rejections"] =
        static_cast<double>(b.store.cache_rejections - a.store.cache_rejections);
  }
  L["chunk.dedup_ratio"] =
      Ratio(static_cast<double>(b.store.dedup_hits - a.store.dedup_hits),
            static_cast<double>(b.store.puts - a.store.puts));
  L["chunk.disk_write_amp"] =
      Ratio(static_cast<double>(b.write_bytes - a.write_bytes),
            static_cast<double>(st.user_bytes));
  const double reads = static_cast<double>(
      st.lat_ms[kGet].size() + st.lat_ms[kVersionRead].size() +
      st.traced_wire_us[kGet].size() + st.traced_wire_us[kVersionRead].size() +
      st.embedded_us[kGet].size() + st.embedded_us[kVersionRead].size());
  L["chunk.peer_fetches_per_read"] = Ratio(
      static_cast<double>(b.store.peer_fetches - a.store.peer_fetches), reads);

  if (a.lsm && b.lsm) {
    L["kvstore.flushes"] =
        static_cast<double>(b.lsm_stats.flushes - a.lsm_stats.flushes);
    L["kvstore.compactions"] =
        static_cast<double>(b.lsm_stats.compactions - a.lsm_stats.compactions);
    L["kvstore.sst_bytes_per_user_byte"] =
        Ratio(static_cast<double>(b.lsm_stats.sst_bytes - a.lsm_stats.sst_bytes),
              static_cast<double>(st.user_bytes));
  }

  L["pos_tree.chunks_per_commit"] =
      Ratio(static_cast<double>(b.store.chunks - a.store.chunks), commits);
  L["pos_tree.new_bytes_per_commit"] = Ratio(
      static_cast<double>(b.store.stored_bytes - a.store.stored_bytes),
      commits);

  const double tp_untraced =
      Ratio(static_cast<double>(st.ops_untraced), phases.untraced_seconds());
  const double traced_busy =
      phases.traced_seconds() - st.sampled_busy_s / kClients;
  const double tp_traced = Ratio(
      static_cast<double>(st.ops_traced - st.ops_sampled), traced_busy);
  if (tp_untraced > 0) L["trace.overhead"] = 1.0 - tp_traced / tp_untraced;
}

double SpaceAmp(const fb::ChunkStoreStats& before,
                const fb::ChunkStoreStats& after, uint64_t user_bytes) {
  return Ratio(static_cast<double>(after.stored_bytes - before.stored_bytes),
               static_cast<double>(user_bytes));
}

std::string BackendName(fb::StoreBackend b) {
  switch (b) {
    case fb::StoreBackend::kLog: return "kLog";
    case fb::StoreBackend::kLsm: return "kLsm";
    case fb::StoreBackend::kMem: return "kMem";
  }
  return "?";
}

std::string DurabilityName(fb::DurabilityPolicy p) {
  switch (p) {
    case fb::DurabilityPolicy::kNone: return "kNone";
    case fb::DurabilityPolicy::kBatch: return "kBatch";
    case fb::DurabilityPolicy::kAlways: return "kAlways";
    case fb::DurabilityPolicy::kQuorum: return "kQuorum";
  }
  return "?";
}

}  // namespace perfbench
