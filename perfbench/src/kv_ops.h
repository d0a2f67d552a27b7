// The keyed-value client that kv_serve and quorum share, and its oracle.
//
// Every key has one writing client (its Zipf rank mod the client
// count), which raises `started` before a Put and `acked` after it. A
// head read must return one of the versions in [acked before the read,
// started after it]; a value's bytes are a function of (seed, key,
// version), so each candidate is regenerated and compared. A version
// read must return exactly the bytes that version was written with.
#ifndef PERFBENCH_KV_OPS_H_
#define PERFBENCH_KV_OPS_H_

#include <atomic>
#include <string>
#include <vector>

#include "api/service.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

std::string KvKey(uint32_t k);

class KvOracle {
 public:
  KvOracle(uint32_t keys, size_t value_bytes, uint64_t seed);

  uint32_t keys() const { return keys_; }
  std::string Value(uint32_t key, uint32_t version) const;
  // Every key back at version 0 (the initial load), no acked versions.
  void Reset();
  // Loads version 0 of every key through `db`, 500 keys per PutMany.
  fb::Status Load(fb::ForkBase* db) const;
  // Whether `bytes` is a version of `key` in [lo, hi].
  bool Matches(uint32_t key, uint32_t lo, uint32_t hi,
               const std::string& bytes) const;
  uint32_t acked(uint32_t key) const { return acked_[key].load(); }
  uint32_t started(uint32_t key) const { return started_[key].load(); }

 private:
  friend class KvClient;
  struct Acked {
    fb::Hash uid;
    uint32_t key;
    uint32_t version;
  };

  const uint32_t keys_;
  const size_t value_bytes_;
  const uint64_t seed_;
  const std::vector<uint32_t> perm_;  // Zipf rank -> key
  std::vector<std::atomic<uint32_t>> started_;
  std::vector<std::atomic<uint32_t>> acked_;
  std::vector<Acked> rings_[kClients];  // recent acked versions per client
};

// Op mix in percent; the rest are version reads.
struct KvMix {
  uint64_t put;
  uint64_t get;
};

class KvClient {
 public:
  KvClient(KvOracle* oracle, int client, uint64_t seed, KvMix mix,
           fb::ForkBaseService* wire, fb::ForkBaseService* embedded);

  // One op over the wire, or in-process when `sampled`.
  void Op(ClientStats* st, bool traced, bool sampled);
  // The next version read gets one byte of its chunk flipped by `store`.
  void PlantCorruption(TimingChunkStore* store) { corrupt_ = store; }

 private:
  void Put(fb::ForkBaseService* svc, uint64_t rank, ClientStats* st,
           bool traced, bool sampled);
  void Get(fb::ForkBaseService* svc, uint32_t key, ClientStats* st,
           bool traced, bool sampled);
  void VersionRead(fb::ForkBaseService* svc, ClientStats* st, bool traced,
                   bool sampled);

  KvOracle* o_;
  const int c_;
  const KvMix mix_;
  fb::ForkBaseService* wire_;
  fb::ForkBaseService* embedded_;
  fb::ZipfGenerator zipf_;
  fb::Rng rng_;
  uint64_t req_;
  TimingChunkStore* corrupt_ = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_KV_OPS_H_
