// The four workloads and the driver pieces they share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <functional>
#include <string>
#include <vector>

#include "api/db.h"
#include "common.h"
#include "kvstore/lsm_chunk_store.h"
#include "rpc/server.h"
#include "trace.h"

namespace perfbench {

// Closed-loop client threads: the generator is one process with this
// many synchronous clients, each with its own connection.
constexpr int kClients = 4;
// In a traced run every Nth op of a client runs through an in-process
// EmbeddedService on the same live engine instead of the wire.
constexpr uint64_t kSampleEvery = 16;

RunResult RunKvServe(const Config& cfg);
RunResult RunWiki(const Config& cfg);
RunResult RunLedger(const Config& cfg);
RunResult RunQuorum(const Config& cfg);

// One client op: `traced` in a traced slice, `sampled` when it should
// run in-process instead of over the wire.
using ClientOp =
    std::function<void(int client, ClientStats* st, bool traced, bool sampled)>;

// Runs kClients closed-loop threads of `op` until `phases` ends and
// returns their merged stats. In a traced run the calling thread
// switches the span recorder on for the traced slices only, and every
// kSampleEvery-th op of a traced slice is sampled.
ClientStats RunClients(Phases* phases, const ClientOp& op);

// Runs `ops` unrecorded ops on each of kClients threads (set-up's
// warm-up); fails if any op failed.
fb::Status WarmUp(int ops, const std::function<void(int, ClientStats*)>& op);

// Records one finished op: its latency goes to the untraced series or,
// in a traced slice, to the traced wire / in-process sample series.
void RecordOp(ClientStats* st, int op, bool traced, bool sampled,
              Clock::time_point t0);

// A StoreWrapper that interposes a TimingChunkStore and reports it.
fb::ForkBase::StoreWrapper TimingWrapper(TimingChunkStore** out);

// Returns freed heap to the OS and restarts VmHWM, so the next PeakRssMb
// reads the peak of what runs in between.
void ResetPeakRss();

// Set-ups per run (one at tiny size); setup_s is their median.
constexpr int kSetups = 3;

// Sets a workload up kSetups times (the last set-up is the one
// measured), measures it and tears it down. setup_s and setup_rss_mb are
// medians over the set-ups. A failed set-up is a failed run.
template <typename W>
RunResult RunWorkload(const Config& cfg) {
  W w(cfg);
  std::vector<double> setup_s;
  std::vector<double> rss_mb;
  const int setups = cfg.tiny ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    w.Teardown();
    ResetPeakRss();
    const auto t0 = Clock::now();
    const fb::Status s = w.Setup(i);
    if (!s.ok()) {
      w.Teardown();
      RunResult r;
      r.stats.attempted = 1;
      r.stats.Fail("setup: " + s.ToString());
      return r;
    }
    setup_s.push_back(SecondsSince(t0));
    rss_mb.push_back(PeakRssMb());
  }
  RunResult r = w.Measure();
  w.Teardown();
  r.setup_s = setup_s;
  r.setup_rss_mb = Median(rss_mb);
  return r;
}

// Counters of one live engine, taken before and after the measured
// window; per-layer metrics are their deltas. `timed` and `served` say
// whether the engine has a timing decorator and a server to read.
struct EngineSnapshot {
  fb::ChunkStoreStats store;
  fb::HotHeadCacheStats hot;
  bool timed = false;
  StoreTiming timing;
  bool served = false;
  uint64_t server_requests = 0;
  uint64_t write_bytes = 0;
  bool lsm = false;
  fb::LsmChunkStoreBackendStats lsm_stats;
};
EngineSnapshot Snap(fb::ForkBase* db, const TimingChunkStore* timing,
                    const fb::rpc::ForkBaseServer* server);

// Fills the per-layer metrics every workload shares from two snapshots
// of its engine and the merged client stats. A metric whose input the
// engine lacks (no server, no decorator, no block cache lookups, no
// in-process samples) is left unset: the report prints it as n/a.
void EngineLayers(const EngineSnapshot& a, const EngineSnapshot& b,
                  const ClientStats& st, const Phases& phases,
                  RunResult* r);

// Bytes the store kept per user value byte acked in the timed window:
// the store's stored_bytes delta over the window's acked value bytes.
// Marginal, so it does not depend on how much work the window completed.
double SpaceAmp(const fb::ChunkStoreStats& before,
                const fb::ChunkStoreStats& after, uint64_t user_bytes);

// Names of the resolved defaults of DBOptions{}.
std::string BackendName(fb::StoreBackend b);
std::string DurabilityName(fb::DurabilityPolicy p);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
