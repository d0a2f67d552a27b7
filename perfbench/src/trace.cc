#include "trace.h"

#include "common.h"

#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

// Per-thread cap on kept spans; later spans are counted as dropped.
constexpr size_t kMaxSpansPerThread = 1u << 20;

}  // namespace

struct SpanRecorder::ThreadBuf {
  std::vector<Span> spans;
  std::vector<size_t> open;  // indices into spans, innermost last
};

namespace {
thread_local void* tl_buf = nullptr;
}  // namespace

SpanRecorder::SpanRecorder() = default;

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

int64_t SpanRecorder::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

SpanRecorder::ThreadBuf* SpanRecorder::Local() {
  if (tl_buf == nullptr) {
    auto buf = std::make_unique<ThreadBuf>();
    tl_buf = buf.get();
    std::lock_guard<std::mutex> lock(mu_);
    bufs_.push_back(std::move(buf));
  }
  return static_cast<ThreadBuf*>(tl_buf);
}

bool SpanRecorder::InSpan() {
  return tl_buf != nullptr && !static_cast<ThreadBuf*>(tl_buf)->open.empty();
}

uint64_t SpanRecorder::Begin(const char* name, uint64_t request) {
  if (name == nullptr || !enabled()) return 0;
  ThreadBuf* buf = Local();
  if (buf->spans.size() >= kMaxSpansPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  Span s;
  s.name = name;
  s.start_ns = NowNs();
  s.end_ns = 0;
  s.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  s.parent = buf->open.empty() ? 0 : buf->spans[buf->open.back()].id;
  s.request = request != 0 || buf->open.empty()
                  ? request
                  : buf->spans[buf->open.back()].request;
  buf->open.push_back(buf->spans.size());
  buf->spans.push_back(s);
  return s.id;
}

void SpanRecorder::End(uint64_t id) {
  if (id == 0) return;
  ThreadBuf* buf = Local();
  if (buf->open.empty() || buf->spans[buf->open.back()].id != id) return;
  buf->spans[buf->open.back()].end_ns = NowNs();
  buf->open.pop_back();
}

namespace {

// Child time per parent id, over one thread's spans.
std::unordered_map<uint64_t, int64_t> ChildTime(const std::vector<Span>& v) {
  std::unordered_map<uint64_t, int64_t> child;
  for (const Span& s : v) {
    if (s.parent != 0 && s.end_ns != 0) child[s.parent] += s.end_ns - s.start_ns;
  }
  return child;
}

}  // namespace

std::map<std::string, SpanRecorder::Summary> SpanRecorder::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Summary> out;
  for (const auto& buf : bufs_) {
    const auto child = ChildTime(buf->spans);
    for (const Span& s : buf->spans) {
      if (s.end_ns == 0) continue;
      Summary& sum = out[s.name];
      const int64_t dur = s.end_ns - s.start_ns;
      auto it = child.find(s.id);
      const int64_t self = dur - (it == child.end() ? 0 : it->second);
      ++sum.count;
      sum.total_us += dur / 1e3;
      sum.self_us += self / 1e3;
    }
  }
  return out;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : bufs_) {
    const auto child = ChildTime(buf->spans);
    for (const Span& s : buf->spans) {
      if (s.end_ns == 0) continue;
      auto it = child.find(s.id);
      const int64_t self =
          s.end_ns - s.start_ns - (it == child.end() ? 0 : it->second);
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"self_ns\":%lld}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(self));
    }
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// TimingChunkStore
// ---------------------------------------------------------------------------

StoreTiming TimingChunkStore::timing() const {
  StoreTiming t;
  t.put_calls = put_calls_.load();
  t.put_bytes = put_bytes_.load();
  t.put_ns = put_ns_.load();
  t.get_calls = get_calls_.load();
  t.get_ns = get_ns_.load();
  return t;
}

void TimingChunkStore::RecordPut(int64_t t0, uint64_t bytes) {
  put_calls_.fetch_add(1, std::memory_order_relaxed);
  put_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  put_ns_.fetch_add(SpanRecorder::NowNs() - t0, std::memory_order_relaxed);
}

void TimingChunkStore::RecordGet(int64_t t0) const {
  get_calls_.fetch_add(1, std::memory_order_relaxed);
  get_ns_.fetch_add(SpanRecorder::NowNs() - t0, std::memory_order_relaxed);
}

void TimingChunkStore::CorruptNextReadOf(const fb::Hash& cid) {
  std::lock_guard<std::mutex> lock(corrupt_mu_);
  corrupt_cid_ = cid;
  corrupt_armed_.store(true);
}

void TimingChunkStore::MaybeCorrupt(const fb::Hash& cid,
                                    fb::Chunk* chunk) const {
  if (!corrupt_armed_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(corrupt_mu_);
  if (!corrupt_armed_.load() || cid != corrupt_cid_) return;
  if (chunk->payload_size() == 0) return;
  corrupt_armed_.store(false);
  fb::Bytes payload = chunk->payload().ToBytes();
  payload[payload.size() / 2] ^= 0x01;
  *chunk = fb::Chunk(chunk->type(), std::move(payload));
}

fb::Status TimingChunkStore::Put(const fb::Hash& cid, const fb::Chunk& chunk) {
  SpanRecorder& rec = SpanRecorder::Get();
  if (!rec.enabled()) return base_->Put(cid, chunk);
  ScopedSpan span(SpanRecorder::InSpan() ? "chunk.put" : nullptr);
  const int64_t t0 = SpanRecorder::NowNs();
  fb::Status s = base_->Put(cid, chunk);
  RecordPut(t0, chunk.serialized_size());
  return s;
}

fb::Status TimingChunkStore::PutBatch(const fb::ChunkBatch& batch) {
  SpanRecorder& rec = SpanRecorder::Get();
  if (!rec.enabled()) return base_->PutBatch(batch);
  ScopedSpan span(SpanRecorder::InSpan() ? "chunk.put" : nullptr);
  const int64_t t0 = SpanRecorder::NowNs();
  fb::Status s = base_->PutBatch(batch);
  uint64_t bytes = 0;
  for (const auto& [cid, chunk] : batch) bytes += chunk.serialized_size();
  RecordPut(t0, bytes);
  return s;
}

fb::Status TimingChunkStore::Get(const fb::Hash& cid, fb::Chunk* chunk) const {
  SpanRecorder& rec = SpanRecorder::Get();
  if (!rec.enabled()) {
    fb::Status s = base_->Get(cid, chunk);
    if (s.ok()) MaybeCorrupt(cid, chunk);
    return s;
  }
  ScopedSpan span(SpanRecorder::InSpan() ? "chunk.get" : nullptr);
  const int64_t t0 = SpanRecorder::NowNs();
  fb::Status s = base_->Get(cid, chunk);
  RecordGet(t0);
  if (s.ok()) MaybeCorrupt(cid, chunk);
  return s;
}

fb::Status TimingChunkStore::GetBatch(const std::vector<fb::Hash>& cids,
                                      std::vector<fb::Chunk>* chunks) const {
  SpanRecorder& rec = SpanRecorder::Get();
  const bool on = rec.enabled();
  ScopedSpan span(on && SpanRecorder::InSpan() ? "chunk.get" : nullptr);
  const int64_t t0 = on ? SpanRecorder::NowNs() : 0;
  fb::Status s = base_->GetBatch(cids, chunks);
  if (on) RecordGet(t0);
  if (s.ok()) {
    for (size_t i = 0; i < cids.size(); ++i) MaybeCorrupt(cids[i], &(*chunks)[i]);
  }
  return s;
}

// ---------------------------------------------------------------------------
// TimingCommitHook
// ---------------------------------------------------------------------------

fb::Status TimingCommitHook::WaitCommitDurable() {
  if (!SpanRecorder::Get().enabled()) return next_->WaitCommitDurable();
  const int64_t t0 = SpanRecorder::NowNs();
  fb::Status s = next_->WaitCommitDurable();
  waits_.fetch_add(1, std::memory_order_relaxed);
  wait_ns_.fetch_add(SpanRecorder::NowNs() - t0, std::memory_order_relaxed);
  return s;
}

}  // namespace perfbench
