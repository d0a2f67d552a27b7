// Traced-run tooling. Everything here wraps calls into the program's
// public interfaces from the benchmark's side; nothing is compiled into
// the library.
//
//  * SpanRecorder — in-memory spans (name, start, end, parent, request
//    id) kept per thread and written out when the run ends. Self time is
//    a span's duration minus its children's.
//  * TimingChunkStore — a ChunkStore decorator interposed through
//    ForkBase::OpenPersistent's StoreWrapper. It counts and times every
//    call into the store while tracing is on: as child spans when the
//    calling thread has an open span (in-process samples), and always
//    into per-run counters, which aggregate the calls server workers
//    make. It can also plant one
//    corrupted chunk read, which the oracle must report.
//  * TimingCommitHook — a ReplicationCommitHook that forwards to the
//    replica group and times the quorum wait.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/db.h"
#include "chunk/chunk_store.h"

namespace perfbench {

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;   // 0 = root
  uint64_t request;  // request id shared by a request's spans
};

class SpanRecorder {
 public:
  static SpanRecorder& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Opens a span on the calling thread, parented to the thread's
  // innermost open span. Returns 0 (and records nothing) when disabled.
  uint64_t Begin(const char* name, uint64_t request);
  void End(uint64_t id);
  // True when the calling thread has an open span.
  static bool InSpan();

  struct Summary {
    uint64_t count = 0;
    double total_us = 0;
    double self_us = 0;
  };
  // Per-name totals over the recorded spans.
  std::map<std::string, Summary> Summarize() const;
  // Writes every span as one JSON object per line, self time included.
  bool WriteJsonLines(const std::string& path) const;
  uint64_t dropped() const { return dropped_.load(); }

  static int64_t NowNs();

 private:
  struct ThreadBuf;
  ThreadBuf* Local();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;  // guards bufs_
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  SpanRecorder();
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0)
      : id_(SpanRecorder::Get().Begin(name, request)) {}
  ~ScopedSpan() { SpanRecorder::Get().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint64_t id_;
};

// Counters of the timing decorator (recorded only while tracing is on).
struct StoreTiming {
  uint64_t put_calls = 0;
  uint64_t put_bytes = 0;
  int64_t put_ns = 0;
  uint64_t get_calls = 0;
  int64_t get_ns = 0;
};

class TimingChunkStore : public fb::ChunkStore {
 public:
  explicit TimingChunkStore(std::unique_ptr<fb::ChunkStore> base)
      : base_(std::move(base)) {}

  fb::ChunkStore* base() const { return base_.get(); }
  StoreTiming timing() const;
  // The next read of `cid` returns the chunk with one byte flipped.
  void CorruptNextReadOf(const fb::Hash& cid);

  using fb::ChunkStore::Put;
  fb::Status Put(const fb::Hash& cid, const fb::Chunk& chunk) override;
  fb::Status Get(const fb::Hash& cid, fb::Chunk* chunk) const override;
  bool Contains(const fb::Hash& cid) const override {
    return base_->Contains(cid);
  }
  fb::Status PutBatch(const fb::ChunkBatch& batch) override;
  fb::Status GetBatch(const std::vector<fb::Hash>& cids,
                      std::vector<fb::Chunk>* chunks) const override;
  fb::ChunkStoreStats stats() const override { return base_->stats(); }

 private:
  void RecordPut(int64_t t0, uint64_t bytes);
  void RecordGet(int64_t t0) const;
  void MaybeCorrupt(const fb::Hash& cid, fb::Chunk* chunk) const;

  std::unique_ptr<fb::ChunkStore> base_;
  std::atomic<uint64_t> put_calls_{0};
  std::atomic<uint64_t> put_bytes_{0};
  std::atomic<int64_t> put_ns_{0};
  mutable std::atomic<uint64_t> get_calls_{0};
  mutable std::atomic<int64_t> get_ns_{0};
  mutable std::atomic<bool> corrupt_armed_{false};
  mutable std::mutex corrupt_mu_;
  fb::Hash corrupt_cid_;  // guarded by corrupt_mu_
};

class TimingCommitHook : public fb::ReplicationCommitHook {
 public:
  explicit TimingCommitHook(fb::ReplicationCommitHook* next) : next_(next) {}
  fb::Status WaitCommitDurable() override;
  uint64_t waits() const { return waits_.load(); }
  int64_t wait_ns() const { return wait_ns_.load(); }

 private:
  fb::ReplicationCommitHook* next_;
  std::atomic<uint64_t> waits_{0};
  std::atomic<int64_t> wait_ns_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
