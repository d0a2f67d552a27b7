// Shared plumbing of the repo benchmark: run configuration, per-client
// latency recorders, the deterministic input generators, the metric
// report and the /proc readers.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Op kinds a workload times. kPut is each workload's durable write
// (Put, SavePage, quorum Put; on ledger the block commit), kGet a head
// read, kVersionRead a read of an older version, kDiff a revision diff.
enum OpKind { kPut = 0, kGet, kVersionRead, kDiff, kNumOps };
const char* OpName(int op);

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Test size: tiny inputs and one set-up, for the benchmark's own test.
  bool tiny = false;
  // Plants one corrupted chunk read (the oracle must catch it).
  bool corrupt = false;
  std::string work_dir;  // stores live here, removed at exit
  std::string out_dir;   // spans and run records
  std::string git_sha = "unknown";
};

// One client thread's samples. Owned by that thread while it runs and
// merged by the driver afterwards, so recording takes no lock.
struct ClientStats {
  // Untraced ops (all ops when the run is untraced): latency and start
  // time in seconds since the measured window opened.
  std::vector<double> lat_ms[kNumOps];
  std::vector<double> start_s[kNumOps];
  Clock::time_point origin;  // when the measured window opened
  // Completion times (same clock) of the untraced ops throughput counts.
  std::vector<double> done_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors and wrong answers
  uint64_t user_bytes = 0;  // value bytes of acked writes
  uint64_t writes = 0;      // acked writes
  // Traced runs alternate untraced and traced slices.
  uint64_t ops_untraced = 0;
  uint64_t ops_traced = 0;
  uint64_t ops_sampled = 0;     // traced ops run in-process
  double sampled_busy_s = 0;    // time spent in those
  std::vector<double> traced_wire_us[kNumOps];
  std::vector<double> embedded_us[kNumOps];
  std::string first_error;

  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
  void Merge(const ClientStats& o);
};

// Alternating slices of a traced run: untraced (even) and traced (odd).
// An untraced run is one untraced slice as long as the run.
class Phases {
 public:
  Phases(double seconds, bool traced)
      : seconds_(seconds), slice_(traced ? 0.5 : seconds), traced_(traced) {}
  void Start() { t0_ = Clock::now(); }
  // Called once every client has stopped: the measured wall time.
  void Finish() { elapsed_ = SecondsSince(t0_); }
  double elapsed() const { return elapsed_; }
  bool Done() const { return SecondsSince(t0_) >= seconds_; }
  bool TracedNow() const {
    if (!traced_) return false;
    return static_cast<uint64_t>(SecondsSince(t0_) / slice_) % 2 == 1;
  }
  // Wall time spent in traced / untraced slices.
  double traced_seconds() const;
  double untraced_seconds() const { return seconds_ - traced_seconds(); }

 private:
  double seconds_;
  double slice_;
  bool traced_;
  Clock::time_point t0_;
  double elapsed_ = 0;
};

// What a workload hands back to the driver.
struct RunResult {
  std::vector<double> setup_s;
  ClientStats stats;  // merged over clients
  double measured_s = 0;
  double space_amp = 0;
  // Peak RSS of one set-up (median over set-ups): the memory to open,
  // load and warm the workload. Growth in the timed window scales with
  // the work the window completes (the ledger's store is in memory), so
  // it is left out.
  double setup_rss_mb = 0;
  std::map<std::string, double> layer;  // per-layer metrics
  std::vector<std::string> notes;       // printed, one per line
};

// --- deterministic inputs ------------------------------------------------

uint64_t Mix64(uint64_t x);
// Fills `n` printable bytes from (seed, a, b, c).
std::string FillBytes(uint64_t seed, uint64_t a, uint64_t b, uint64_t c,
                      size_t n);
// A seed-dependent permutation of [0, n): Zipf rank -> item index.
std::vector<uint32_t> Permutation(uint64_t n, uint64_t seed);
uint64_t Digest(const std::string& s);

// --- process metrics ------------------------------------------------------

double PeakRssMb();          // VmHWM
uint64_t ProcWriteBytes();   // /proc/self/io write_bytes

// --- helpers ---------------------------------------------------------------

double Percentile(std::vector<double> v, double p);
// The median over consecutive windows of `per_window` samples (in start
// time order, as many as fit) of each window's percentile `p`. A burst
// in one part of a run moves it less than one pooled percentile; falls
// back to the pooled one below two windows.
double WindowedPercentile(const std::vector<double>& values,
                          const std::vector<double>& times, double p,
                          size_t per_window);
double Median(std::vector<double> v);
// Removes `path` recursively (no error when absent).
void RemoveTree(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
