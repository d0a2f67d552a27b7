// wiki: version reads and diffs over a working set larger than every
// cache. ForkBaseWiki over RemoteService, four clients, Zipf(0.99) over
// 1,000 pages of 16 KB with 16 revisions each (one 2% edit per
// revision). Mix: 60% ReadPage(0), 20% ReadPage(k) with k uniform in
// 1..15, 10% SavePage, 10% DiffRevisions(0, k).
//
// Oracle: every page has one writing client, which records the digest
// of each revision before saving it and bumps `acked` after. A read of
// revision k-back must match the digest k revisions before one of the
// heads the page may have had while the read ran; a diff must report
// "identical" exactly when the two revisions' digests match.
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "api/service.h"
#include "rpc/remote_service.h"
#include "util/random.h"
#include "wiki/wiki.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct Sizes {
  uint32_t pages;
  size_t page_bytes;
  uint32_t revisions;  // loaded per page
};

std::string PageName(uint32_t p) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "page%06u", p);
  return buf;
}

struct Page {
  std::mutex mu;
  std::vector<uint64_t> digests;  // per revision; guarded by mu
  std::string content;            // latest; owner thread only
  std::atomic<uint32_t> started{0};
  std::atomic<uint32_t> acked{0};
};

class Wiki {
 public:
  explicit Wiki(const Config& cfg)
      : cfg_(cfg),
        sizes_(cfg.tiny ? Sizes{40, 4096, 4} : Sizes{1000, 16384, 16}),
        perm_(Permutation(sizes_.pages, cfg.seed)) {}

  // Revision `rev` of page `p` replaces 2% of revision rev-1.
  void Edit(uint32_t p, uint32_t rev, std::string* content) const {
    if (rev == 0) {
      *content = FillBytes(cfg_.seed, p, 0, 7, sizes_.page_bytes);
      return;
    }
    const size_t len = sizes_.page_bytes / 50;
    const size_t off = Mix64(cfg_.seed ^ Mix64(p * 65537ull + rev)) %
                       (sizes_.page_bytes - len);
    content->replace(off, len, FillBytes(cfg_.seed, p, rev, 8, len));
  }

  fb::Status Setup(int round) {
    dir_ = cfg_.work_dir + "/wiki-" + std::to_string(round);
    RemoveTree(dir_);
    pages_ = std::make_unique<Page[]>(sizes_.pages);
    auto opened = fb::ForkBase::OpenPersistent(dir_, fb::DBOptions{},
                                               TimingWrapper(&timing_));
    if (!opened.ok()) return opened.status();
    db_ = std::move(*opened);
    auto server = fb::rpc::ForkBaseServer::Start(db_.get(), {});
    if (!server.ok()) return server.status();
    server_ = std::move(*server);
    // Initial load in-process: each client thread saves its own pages.
    std::vector<std::thread> threads;
    std::vector<fb::Status> load(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        fb::EmbeddedService svc(db_.get());
        fb::ForkBaseWiki wiki(&svc);
        for (uint32_t rev = 0; rev < sizes_.revisions; ++rev) {
          for (uint32_t rank = c; rank < sizes_.pages; rank += kClients) {
            const fb::Status s = SaveNext(&wiki, perm_[rank]);
            if (!s.ok()) {
              load[c] = s;
              return;
            }
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    for (const auto& s : load) FB_RETURN_NOT_OK(s);
    for (int c = 0; c < kClients; ++c) {
      fb::rpc::RemoteServiceOptions ro;
      ro.pool_size = 1;
      auto conn = fb::rpc::RemoteService::Connect(server_->endpoint(), ro);
      if (!conn.ok()) return conn.status();
      remotes_[c] = std::move(*conn);
      wire_[c] = std::make_unique<fb::ForkBaseWiki>(remotes_[c].get());
      embedded_svc_[c] = std::make_unique<fb::EmbeddedService>(db_.get());
      embedded_[c] = std::make_unique<fb::ForkBaseWiki>(embedded_svc_[c].get());
    }
    auto clients = Clients(cfg_.seed * 7919 + round * 131);
    return WarmUp(cfg_.tiny ? 20 : 50, [&](int c, ClientStats* st) {
      clients[c].Op(st, false, false);
    });
  }

  RunResult Measure() {
    RunResult r;
    Phases phases(cfg_.seconds, cfg_.trace);
    const EngineSnapshot before = Snap(db_.get(), timing_, server_.get());
    const fb::ChunkStoreStats client_before = ClientCacheStats();
    auto clients = Clients(cfg_.seed * 104729);
    r.stats = RunClients(&phases, [&](int c, ClientStats* st, bool traced,
                                      bool sampled) {
      clients[c].Op(st, traced, sampled);
    });
    const EngineSnapshot after = Snap(db_.get(), timing_, server_.get());
    const fb::ChunkStoreStats client_after = ClientCacheStats();
    r.measured_s = phases.elapsed();
    if (cfg_.trace) {
      EngineLayers(before, after, r.stats, phases, &r);
      const double hits =
          static_cast<double>(client_after.cache_hits - client_before.cache_hits);
      const double misses = static_cast<double>(client_after.cache_misses -
                                                client_before.cache_misses);
      r.layer["rpc.client_cache_hit_ratio"] =
          hits + misses > 0 ? hits / (hits + misses) : 0;
    }
    r.space_amp = SpaceAmp(before.store, after.store, r.stats.user_bytes);
    return r;
  }

  void Teardown() {
    for (int c = 0; c < kClients; ++c) {
      wire_[c].reset();
      embedded_[c].reset();
      embedded_svc_[c].reset();
      remotes_[c].reset();
    }
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    db_.reset();
    timing_ = nullptr;
    if (!dir_.empty()) RemoveTree(dir_);
  }

 private:
  // Saves the next revision of page `p` (owner thread only).
  fb::Status SaveNext(fb::ForkBaseWiki* wiki, uint32_t p) {
    Page& page = pages_[p];
    const uint32_t rev = page.started.load();
    Edit(p, rev, &page.content);
    {
      std::lock_guard<std::mutex> lock(page.mu);
      page.digests.push_back(Digest(page.content));
    }
    page.started.store(rev + 1);
    FB_RETURN_NOT_OK(wiki->SavePage(PageName(p), fb::Slice(page.content)));
    page.acked.store(rev + 1);
    return fb::Status::OK();
  }

  // Client-side chunk cache counters summed over the wire clients: the
  // RemoteChunkStore folds its own cache into the server's counters, so
  // the server's share is subtracted out.
  fb::ChunkStoreStats ClientCacheStats() const {
    fb::ChunkStoreStats sum;
    const fb::ChunkStoreStats server = db_->store()->stats();
    for (int c = 0; c < kClients; ++c) {
      fb::ChunkStoreStats s = remotes_[c]->store()->stats();
      sum.cache_hits += s.cache_hits - server.cache_hits;
      sum.cache_misses += s.cache_misses - server.cache_misses;
    }
    return sum;
  }

  // Digests of the revision `back` before each head the page may have
  // had between `lo` (acked before the op) and `hi` (started after).
  std::vector<uint64_t> Expected(uint32_t p, uint32_t lo, uint32_t hi,
                                 uint32_t back) {
    std::vector<uint64_t> out;
    std::lock_guard<std::mutex> lock(pages_[p].mu);
    for (uint32_t n = std::max(lo, 1u); n <= hi; ++n) {
      if (n >= back + 1) out.push_back(pages_[p].digests[n - 1 - back]);
    }
    return out;
  }

  std::vector<uint64_t> Digests(uint32_t p) {
    std::lock_guard<std::mutex> lock(pages_[p].mu);
    return pages_[p].digests;
  }

  class Client {
   public:
    Client(Wiki* w, int c, uint64_t seed)
        : w_(w), c_(c), zipf_(w->sizes_.pages, 0.99, seed), rng_(seed ^ 0xabc) {}

    void Op(ClientStats* st, bool traced, bool sampled) {
      const uint32_t n = w_->sizes_.pages;
      uint64_t rank = zipf_.Next();
      const uint64_t mix = rng_.Uniform(100);
      fb::ForkBaseWiki* wiki =
          sampled ? w_->embedded_[c_].get() : w_->wire_[c_].get();
      const uint32_t max_back = w_->sizes_.revisions - 1;
      ++st->attempted;
      if (mix >= 80 && mix < 90) {
        rank = rank - rank % kClients + c_;
        if (rank >= n) rank -= kClients;
        const uint32_t p = w_->perm_[rank];
        const auto t0 = Clock::now();
        fb::Status s;
        {
          ScopedSpan span(sampled ? "api.execute.put" : "client.put", ++req_);
          s = w_->SaveNext(wiki, p);
        }
        RecordOp(st, kPut, traced, sampled, t0);
        if (!s.ok()) return st->Fail("save_page: " + s.ToString());
        ++st->writes;
        st->user_bytes += w_->sizes_.page_bytes;
        return;
      }
      const uint32_t p = w_->perm_[rank];
      Page& page = w_->pages_[p];
      const uint32_t lo = page.acked.load();
      const auto t0 = Clock::now();
      if (mix < 80) {
        const uint32_t back =
            mix < 60 ? 0 : 1 + static_cast<uint32_t>(rng_.Uniform(max_back));
        const int op = back == 0 ? kGet : kVersionRead;
        fb::Result<std::string> got = fb::Status::OK();
        {
          ScopedSpan span(sampled ? (back == 0 ? "api.execute.get"
                                               : "api.execute.version_read")
                                  : (back == 0 ? "client.get"
                                               : "client.version_read"),
                          ++req_);
          got = wiki->ReadPage(PageName(p), back);
        }
        RecordOp(st, op, traced, sampled, t0);
        if (!got.ok()) return st->Fail("read_page: " + got.status().ToString());
        const uint64_t d = Digest(*got);
        for (uint64_t want : w_->Expected(p, lo, page.started.load(), back)) {
          if (d == want) return;
        }
        return st->Fail("read_page " + PageName(p) + " back " +
                        std::to_string(back) + ": wrong content");
      }
      const uint32_t back = 1 + static_cast<uint32_t>(rng_.Uniform(max_back));
      fb::Result<fb::RangeDiff> diff = fb::Status::OK();
      {
        ScopedSpan span(sampled ? "api.execute.diff" : "client.diff", ++req_);
        diff = wiki->DiffRevisions(PageName(p), 0, back);
      }
      RecordOp(st, kDiff, traced, sampled, t0);
      if (!diff.ok()) return st->Fail("diff: " + diff.status().ToString());
      // DiffRevisions reads the head (h1) and then the revision `back`
      // before a head h2 >= h1; saves may land in between. Every pair of
      // heads in [lo, hi] is a possible outcome.
      const uint32_t hi = page.started.load();
      const std::vector<uint64_t> digests = w_->Digests(p);
      bool can_match = false;
      bool can_differ = false;
      for (uint32_t h1 = std::max(lo, 1u); h1 <= hi; ++h1) {
        for (uint32_t h2 = h1; h2 <= hi; ++h2) {
          if (h2 < back + 1) continue;
          const bool same = digests[h1 - 1] == digests[h2 - 1 - back];
          (same ? can_match : can_differ) = true;
        }
      }
      if (diff->identical ? !can_match : !can_differ) {
        st->Fail("diff " + PageName(p) + " 0.." + std::to_string(back) +
                 ": identical=" + (diff->identical ? "true" : "false") +
                 " disagrees with the revisions' contents");
      }
    }

   private:
    Wiki* w_;
    int c_;
    fb::ZipfGenerator zipf_;
    fb::Rng rng_;
    uint64_t req_ = static_cast<uint64_t>(c_) << 48;
  };

  std::vector<Client> Clients(uint64_t seed) {
    std::vector<Client> out;
    for (int c = 0; c < kClients; ++c) out.emplace_back(this, c, seed + c);
    return out;
  }

  const Config& cfg_;
  const Sizes sizes_;
  const std::vector<uint32_t> perm_;
  std::unique_ptr<Page[]> pages_;
  std::string dir_;
  std::unique_ptr<fb::ForkBase> db_;
  TimingChunkStore* timing_ = nullptr;
  std::unique_ptr<fb::rpc::ForkBaseServer> server_;
  std::unique_ptr<fb::rpc::RemoteService> remotes_[kClients];
  std::unique_ptr<fb::ForkBaseWiki> wire_[kClients];
  std::unique_ptr<fb::EmbeddedService> embedded_svc_[kClients];
  std::unique_ptr<fb::ForkBaseWiki> embedded_[kClients];
};

}  // namespace

RunResult RunWiki(const Config& cfg) { return RunWorkload<Wiki>(cfg); }

}  // namespace perfbench
