#include "kv_ops.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

std::string KvKey(uint32_t k) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "kv%08u", k);
  return buf;
}

KvOracle::KvOracle(uint32_t keys, size_t value_bytes, uint64_t seed)
    : keys_(keys),
      value_bytes_(value_bytes),
      seed_(seed),
      perm_(Permutation(keys, seed)),
      started_(keys),
      acked_(keys) {}

std::string KvOracle::Value(uint32_t key, uint32_t version) const {
  return FillBytes(seed_, key, version, 0, value_bytes_);
}

void KvOracle::Reset() {
  for (auto& a : started_) a.store(0);
  for (auto& a : acked_) a.store(0);
  for (auto& r : rings_) r.clear();
}

fb::Status KvOracle::Load(fb::ForkBase* db) const {
  for (uint32_t lo = 0; lo < keys_; lo += 500) {
    std::vector<std::pair<std::string, fb::Value>> kvs;
    for (uint32_t k = lo; k < std::min(keys_, lo + 500); ++k) {
      kvs.emplace_back(KvKey(k), fb::Value::OfString(Value(k, 0)));
    }
    FB_RETURN_NOT_OK(db->PutMany(kvs).status());
  }
  return fb::Status::OK();
}

bool KvOracle::Matches(uint32_t key, uint32_t lo, uint32_t hi,
                       const std::string& bytes) const {
  for (uint32_t v = lo; v <= hi; ++v) {
    if (bytes == Value(key, v)) return true;
  }
  return false;
}

KvClient::KvClient(KvOracle* oracle, int client, uint64_t seed, KvMix mix,
                   fb::ForkBaseService* wire, fb::ForkBaseService* embedded)
    : o_(oracle),
      c_(client),
      mix_(mix),
      wire_(wire),
      embedded_(embedded),
      zipf_(oracle->keys(), 0.99, seed),
      rng_(seed ^ 0xabc),
      req_(static_cast<uint64_t>(client) << 48) {}

void KvClient::Op(ClientStats* st, bool traced, bool sampled) {
  const uint64_t rank = zipf_.Next();
  const uint64_t pick = rng_.Uniform(100);
  fb::ForkBaseService* svc = sampled ? embedded_ : wire_;
  ++st->attempted;
  if (pick < mix_.put) {
    Put(svc, rank, st, traced, sampled);
  } else if (pick < mix_.put + mix_.get || o_->rings_[c_].empty()) {
    Get(svc, o_->perm_[rank], st, traced, sampled);
  } else {
    VersionRead(svc, st, traced, sampled);
  }
}

void KvClient::Put(fb::ForkBaseService* svc, uint64_t rank, ClientStats* st,
                   bool traced, bool sampled) {
  // A key this client owns, next to the drawn rank.
  rank = rank - rank % kClients + c_;
  if (rank >= o_->keys_) rank -= kClients;
  const uint32_t key = o_->perm_[rank];
  const uint32_t v = o_->started_[key].load() + 1;
  o_->started_[key].store(v);
  const std::string value = o_->Value(key, v);
  const auto t0 = Clock::now();
  fb::Result<fb::Hash> uid = fb::Status::OK();
  {
    ScopedSpan span(sampled ? "api.execute.put" : "client.put", ++req_);
    uid = svc->Put(KvKey(key), fb::Value::OfString(value));
  }
  RecordOp(st, kPut, traced, sampled, t0);
  if (!uid.ok()) return st->Fail("put: " + uid.status().ToString());
  o_->acked_[key].store(v);
  ++st->writes;
  st->user_bytes += value.size();
  auto& ring = o_->rings_[c_];
  ring.push_back({*uid, key, v});
  if (ring.size() > 4096) ring.erase(ring.begin(), ring.begin() + 1024);
}

void KvClient::Get(fb::ForkBaseService* svc, uint32_t key, ClientStats* st,
                   bool traced, bool sampled) {
  const uint32_t lo = o_->acked(key);
  const auto t0 = Clock::now();
  fb::Result<fb::ValueReadout> got = fb::Status::OK();
  {
    ScopedSpan span(sampled ? "api.execute.get" : "client.get", ++req_);
    got = svc->GetValue(KvKey(key));
  }
  RecordOp(st, kGet, traced, sampled, t0);
  const uint32_t hi = o_->started(key);
  if (!got.ok()) return st->Fail("get: " + got.status().ToString());
  if (!got->has_value ||
      !o_->Matches(key, lo, hi, fb::BytesToString(got->value))) {
    st->Fail("get " + KvKey(key) + ": value matches no version in [" +
             std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
}

void KvClient::VersionRead(fb::ForkBaseService* svc, ClientStats* st,
                           bool traced, bool sampled) {
  const auto& ring = o_->rings_[c_];
  const KvOracle::Acked& pick = ring[rng_.Uniform(ring.size())];
  if (corrupt_ != nullptr) {
    corrupt_->CorruptNextReadOf(pick.uid);
    corrupt_ = nullptr;
  }
  const auto t0 = Clock::now();
  fb::Result<fb::FObject> obj = fb::Status::OK();
  {
    ScopedSpan span(
        sampled ? "api.execute.version_read" : "client.version_read", ++req_);
    obj = svc->GetByUid(pick.uid);
  }
  RecordOp(st, kVersionRead, traced, sampled, t0);
  if (!obj.ok()) return st->Fail("get_by_uid: " + obj.status().ToString());
  if (obj->value().AsString() != o_->Value(pick.key, pick.version)) {
    st->Fail("get_by_uid " + KvKey(pick.key) + "@" +
             std::to_string(pick.version) + ": wrong bytes");
  }
}

}  // namespace perfbench
