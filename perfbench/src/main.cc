// fbbench: the repo benchmark's generator and reporter.
//
//   fbbench --workload kv_serve|wiki|ledger|quorum --seed N --seconds S
//           --trace 0|1 --work-dir DIR --out-dir DIR [--git-sha SHA]
//           [--tiny] [--corrupt]
//
// Prints a human-readable report, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1. Exits 1 when
// any answer was wrong or any operation failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// In the JSON line of every workload (see README.md for what each op is
// there). The p99s and wiki's diff latencies are printed but not in the
// JSON line: p99 moved by up to 85% between runs on the shared 4-core
// VM this was tuned on, past any bound a gate can hold.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_ops", "1/s"},
    {"put_p50_ms", "ms"},
    {"put_p90_ms", "ms"},
    {"get_p50_ms", "ms"},
    {"get_p90_ms", "ms"},
    {"version_read_p50_ms", "ms"},
    {"version_read_p90_ms", "ms"},
    {"space_amp", "ratio"},
    {"peak_rss_mb", "MB"},
};

// Reported by every traced run. The result line needs a number for
// every metric, so one whose layer the workload does not reach reads 0
// there; the report prints it as "n/a" and names it on the
// "not measured:" line just above the result line, so a comparison can
// tell it from a measured 0.
const MetricDef kPerLayer[] = {
    {"rpc.frames_per_op", "count"},
    {"rpc.overhead_us.put", "us"},
    {"rpc.overhead_us.get", "us"},
    {"rpc.overhead_us.version_read", "us"},
    {"rpc.client_cache_hit_ratio", "ratio"},
    {"api.execute_us.put", "us"},
    {"api.execute_us.get", "us"},
    {"api.execute_us.version_read", "us"},
    {"api.execute_us.diff", "us"},
    {"api.hot_head_hit_ratio", "ratio"},
    {"api.hot_head_invalidations_per_put", "count"},
    {"chunk.put_calls_per_op", "count"},
    {"chunk.put_bytes_per_op", "B"},
    {"chunk.put_busy_us_per_op", "us"},
    {"chunk.get_calls_per_op", "count"},
    {"chunk.get_busy_us_per_op", "us"},
    {"chunk.block_cache_hit_ratio", "ratio"},
    {"chunk.block_cache_rejections", "count"},
    {"chunk.dedup_ratio", "ratio"},
    {"chunk.disk_write_amp", "ratio"},
    {"chunk.peer_fetches_per_read", "count"},
    {"kvstore.flushes", "count"},
    {"kvstore.compactions", "count"},
    {"kvstore.sst_bytes_per_user_byte", "ratio"},
    {"pos_tree.chunks_per_commit", "count"},
    {"pos_tree.new_bytes_per_commit", "B"},
    {"replication.quorum_wait_us", "us"},
    {"replication.shipments_per_commit", "count"},
    {"replication.records_per_shipment", "count"},
    {"replication.quorum_timeouts", "count"},
    {"cluster.replica_read_share", "ratio"},
    {"trace.overhead", "ratio"},
};

const char* Arg(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool Flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// Samples per window for the windowed percentiles: p99 of a window then
// has at least ten samples beyond it.
constexpr size_t kPerWindow = 1000;

// Throughput as the median over ten equal time windows of the run.
double WindowedRate(const ClientStats& st, double seconds) {
  if (seconds <= 0) return 0;
  constexpr int kWindows = 10;
  std::vector<double> count(kWindows, 0);
  for (double t : st.done_s) {
    const int w = static_cast<int>(t / seconds * kWindows);
    if (w >= 0 && w < kWindows) count[w] += 1;
  }
  std::printf("throughput per window (1/s):");
  for (double& c : count) {
    c /= seconds / kWindows;
    std::printf(" %.0f", c);
  }
  std::printf("\n");
  return Median(count);
}

int Usage() {
  std::fprintf(stderr,
               "usage: fbbench --workload kv_serve|wiki|ledger|quorum "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "--out-dir DIR [--git-sha SHA] [--tiny] [--corrupt]\n");
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  Config cfg;
  const char* workload = Arg(argc, argv, "--workload");
  const char* seed = Arg(argc, argv, "--seed");
  const char* seconds = Arg(argc, argv, "--seconds");
  const char* trace = Arg(argc, argv, "--trace");
  const char* work_dir = Arg(argc, argv, "--work-dir");
  const char* out_dir = Arg(argc, argv, "--out-dir");
  if (!workload || !seed || !seconds || !trace || !work_dir || !out_dir) {
    return Usage();
  }
  cfg.workload = workload;
  cfg.seed = std::strtoull(seed, nullptr, 10);
  cfg.seconds = std::atof(seconds);
  cfg.trace = std::strcmp(trace, "1") == 0;
  cfg.work_dir = work_dir;
  cfg.out_dir = out_dir;
  cfg.tiny = Flag(argc, argv, "--tiny");
  cfg.corrupt = Flag(argc, argv, "--corrupt");
  if (const char* v = Arg(argc, argv, "--git-sha")) cfg.git_sha = v;
  if (cfg.seconds <= 0) return Usage();

  RunResult (*run)(const Config&) = nullptr;
  if (cfg.workload == "kv_serve") run = RunKvServe;
  if (cfg.workload == "wiki") run = RunWiki;
  if (cfg.workload == "ledger") run = RunLedger;
  if (cfg.workload == "quorum") run = RunQuorum;
  if (run == nullptr) return Usage();

  std::filesystem::create_directories(cfg.work_dir);
  std::filesystem::create_directories(cfg.out_dir);
  const fb::DBOptions defaults;
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.tiny ? " tiny" : "");
  std::printf("machine: nproc=%u build_type=%s git_sha=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              cfg.git_sha.c_str());
  std::printf("store: DBOptions{} backend=%s durability=%s block_cache=%lluMB "
              "hot_head_cache=%lluMB\n",
              BackendName(defaults.store_backend).c_str(),
              DurabilityName(defaults.durability).c_str(),
              static_cast<unsigned long long>(defaults.block_cache_bytes >> 20),
              static_cast<unsigned long long>(defaults.hot_head_cache_bytes >> 20));
  std::fflush(stdout);

  RunResult r = run(cfg);
  const ClientStats& st = r.stats;
  for (const auto& note : r.notes) std::printf("note: %s\n", note.c_str());

  // End-to-end metrics.
  std::vector<std::pair<std::string, double>> e2e;
  e2e.emplace_back("setup_s", Median(r.setup_s));
  e2e.emplace_back("throughput_ops", WindowedRate(st, r.measured_s));
  std::printf("ops (samples; pooled and windowed percentiles, ms):\n");
  for (int k = 0; k < kNumOps; ++k) {
    const auto& v = st.lat_ms[k];
    const std::string op = OpName(k);
    for (double p : {50.0, 90.0, 99.0}) {
      char name[64];
      std::snprintf(name, sizeof(name), "%s_p%.0f_ms", op.c_str(), p);
      e2e.emplace_back(name, WindowedPercentile(v, st.start_s[k], p, kPerWindow));
    }
    if (!v.empty()) {
      std::printf("  %-13s n=%-8zu pooled p50=%.4f p90=%.4f p99=%.4f  "
                  "windowed p50=%.4f p90=%.4f p99=%.4f%s\n",
                  op.c_str(), v.size(), Percentile(v, 50), Percentile(v, 90),
                  Percentile(v, 99), e2e[e2e.size() - 3].second,
                  e2e[e2e.size() - 2].second, e2e.back().second,
                  v.size() >= 1000 ? "" : "  (fewer than 10 beyond p99)");
    }
  }
  e2e.emplace_back("space_amp", r.space_amp);
  e2e.emplace_back("peak_rss_mb", r.setup_rss_mb);
  std::printf("peak RSS: %.1f MB per set-up (median), %.1f MB at the end\n",
              r.setup_rss_mb, PeakRssMb());
  const double error_rate =
      st.attempted > 0 ? static_cast<double>(st.failed) / st.attempted : 1.0;
  std::printf("error_rate = %.6g (%llu failed of %llu attempted)\n",
              error_rate, static_cast<unsigned long long>(st.failed),
              static_cast<unsigned long long>(st.attempted));
  if (!st.first_error.empty()) {
    std::printf("first error: %s\n", st.first_error.c_str());
  }
  std::printf("setup runs:");
  for (double s : r.setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  std::string json = "{";
  std::string not_measured;
  auto add = [&](const std::string& name, double v, const char* unit) {
    if (json.size() > 1) json += ", ";
    json += "\"" + name + "\": {\"value\": " + Num(v) + ", \"unit\": \"" +
            unit + "\"}";
  };
  if (!cfg.trace) {
    for (const MetricDef& m : kEndToEnd) {
      double v = 0;
      for (const auto& [name, val] : e2e) {
        if (name == m.name) v = val;
      }
      std::printf("metric %s = %s %s\n", m.name, Num(v).c_str(), m.unit);
      add(m.name, v, m.unit);
    }
    // Latencies of ops the workload runs that the JSON line leaves out.
    for (int k = 0; k < kNumOps; ++k) {
      if (st.lat_ms[k].empty()) continue;
      for (const char* p : {"50", "90", "99"}) {
        const std::string name = std::string(OpName(k)) + "_p" + p + "_ms";
        bool gated = false;
        for (const MetricDef& m : kEndToEnd) gated |= name == m.name;
        for (const auto& [n, val] : e2e) {
          if (n == name && !gated) {
            std::printf("metric %s = %s ms (not in the JSON line)\n",
                        name.c_str(), Num(val).c_str());
          }
        }
      }
    }
  } else {
    for (const MetricDef& m : kPerLayer) {
      auto it = r.layer.find(m.name);
      const bool have = it != r.layer.end();
      const double v = have ? it->second : 0;
      std::printf("layer %s = %s %s\n", m.name,
                  have ? Num(v).c_str() : "n/a", m.unit);
      add(m.name, v, m.unit);
      if (!have) not_measured += std::string(" ") + m.name;
    }
    SpanRecorder& rec = SpanRecorder::Get();
    std::printf("spans (count, total us, self us):\n");
    for (const auto& [name, s] : rec.Summarize()) {
      std::printf("  %-28s %-9llu %.1f %.1f\n", name.c_str(),
                  static_cast<unsigned long long>(s.count), s.total_us,
                  s.self_us);
    }
    // One file per workload: the next traced run replaces it.
    const std::string spans =
        cfg.out_dir + "/spans-" + cfg.workload + ".jsonl";
    const bool wrote = rec.WriteJsonLines(spans);
    std::printf("spans written to %s%s (dropped %llu)\n", spans.c_str(),
                wrote ? "" : " FAILED",
                static_cast<unsigned long long>(rec.dropped()));
  }
  json += "}";

  const bool correct = st.failed == 0 && st.attempted > 0;
  std::printf("correct: %s\n", correct ? "yes" : "NO");
  if (cfg.trace) std::printf("not measured:%s\n", not_measured.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(st.attempted),
              static_cast<unsigned long long>(st.failed), json.c_str());
  std::fflush(stdout);
  RemoveTree(cfg.work_dir);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
