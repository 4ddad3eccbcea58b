#include "probes.h"

#include <chrono>

#include "engines/titan/titan_graph.h"
#include "kv/btree_kv.h"
#include "kv/lsm_kv.h"
#include "kv/paged_btree_kv.h"
#include "sut/gremlin_sut.h"

namespace snbbench {

using graphbench::QueryResult;
using graphbench::Result;
using graphbench::Status;
namespace storage = graphbench::storage;

namespace {

std::atomic<bool> g_tracing{false};

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

// Times `fn` into `stats` while tracing; a plain call otherwise.
template <typename Fn>
auto Timed(CallStats* stats, Fn&& fn) {
  if (!Tracing()) return fn();
  uint64_t start = NowNanos();
  auto out = fn();
  stats->Add(1, NowNanos() - start);
  return out;
}

class CountingFile : public storage::File {
 public:
  CountingFile(std::unique_ptr<storage::File> inner, bool is_wal,
               FsStats* stats)
      : inner_(std::move(inner)), is_wal_(is_wal), stats_(stats) {}

  Status ReadAt(uint64_t offset, size_t n, std::string* out) const override {
    uint64_t start = NowNanos();
    Status s = inner_->ReadAt(offset, n, out);
    uint64_t dt = NowNanos() - start;
    stats_->read.Add(1, dt, s.ok() ? out->size() : 0);
    stats_->io_nanos += dt;
    return s;
  }
  Status WriteAt(uint64_t offset, std::string_view data) override {
    uint64_t start = NowNanos();
    Status s = inner_->WriteAt(offset, data);
    uint64_t dt = NowNanos() - start;
    uint64_t bytes = s.ok() ? data.size() : 0;
    stats_->write.Add(1, dt, bytes);
    if (is_wal_) stats_->wal_record.Add(1, dt, bytes);
    stats_->io_nanos += dt;
    return s;
  }
  Status Append(std::string_view data) override {
    uint64_t start = NowNanos();
    Status s = inner_->Append(data);
    uint64_t dt = NowNanos() - start;
    uint64_t bytes = s.ok() ? data.size() : 0;
    stats_->write.Add(1, dt, bytes);
    if (is_wal_) stats_->wal_header.Add(1, dt, bytes);
    stats_->io_nanos += dt;
    return s;
  }
  Status Sync() override {
    uint64_t start = NowNanos();
    Status s = inner_->Sync();
    uint64_t dt = NowNanos() - start;
    stats_->sync.Add(1, dt);
    stats_->io_nanos += dt;
    return s;
  }
  Status Truncate(uint64_t size) override {
    uint64_t start = NowNanos();
    Status s = inner_->Truncate(size);
    if (is_wal_ && size == 0 && s.ok()) ++stats_->wal_resets;
    stats_->io_nanos += NowNanos() - start;
    return s;
  }
  Result<uint64_t> Size() const override { return inner_->Size(); }

 private:
  std::unique_ptr<storage::File> inner_;
  const bool is_wal_;
  FsStats* stats_;
};

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

uint64_t NowNanos() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

// ---------------------------------------------------------------- ProbeSut

ProbeSut::ProbeSut(graphbench::Sut* inner, uint32_t sample_every)
    : inner_(inner), sample_every_(sample_every) {}

template <typename Fn>
auto ProbeSut::Read(Fn&& fn) {
  return Timed(&reads_, std::forward<Fn>(fn));
}

Result<QueryResult> ProbeSut::PointLookup(int64_t id) {
  return Read([&] { return inner_->PointLookup(id); });
}

Result<QueryResult> ProbeSut::OneHop(int64_t id) {
  Result<QueryResult> r = Read([&] { return inner_->OneHop(id); });
  thread_local uint32_t tick = 0;
  if (r.ok() && ++tick % sample_every_ == 0) {
    std::set<int64_t> ids;
    for (const graphbench::Row& row : r->rows) {
      ids.insert(!row.empty() && row[0].is_int() ? row[0].as_int()
                                                 : INT64_MIN);
    }
    std::lock_guard<std::mutex> lock(samples_mu_);
    if (samples_.size() < kMaxSamples) samples_.emplace_back(id, std::move(ids));
  }
  return r;
}

Result<QueryResult> ProbeSut::TwoHop(int64_t id) {
  return Read([&] { return inner_->TwoHop(id); });
}

Result<int> ProbeSut::ShortestPathLen(int64_t a, int64_t b) {
  return Read([&] { return inner_->ShortestPathLen(a, b); });
}

Result<QueryResult> ProbeSut::RecentPosts(int64_t id, int64_t limit) {
  return Read([&] { return inner_->RecentPosts(id, limit); });
}

Result<QueryResult> ProbeSut::FriendsWithName(int64_t id,
                                              const std::string& name) {
  return Read([&] { return inner_->FriendsWithName(id, name); });
}

Result<QueryResult> ProbeSut::RepliesOfPost(int64_t post) {
  return Read([&] { return inner_->RepliesOfPost(post); });
}

Result<QueryResult> ProbeSut::TopPosters(int64_t limit) {
  return Read([&] { return inner_->TopPosters(limit); });
}

std::vector<std::pair<int64_t, std::set<int64_t>>>
ProbeSut::TakeOneHopSamples() {
  std::lock_guard<std::mutex> lock(samples_mu_);
  return std::move(samples_);
}

// ----------------------------------------------------------------- TimedKv

Status TimedKv::Put(std::string_view key, std::string_view value) {
  return Timed(&stats_->put, [&] { return inner_->Put(key, value); });
}

Status TimedKv::Get(std::string_view key, std::string* value) const {
  return Timed(&stats_->get, [&] { return inner_->Get(key, value); });
}

Status TimedKv::Delete(std::string_view key) {
  return Timed(&stats_->other, [&] { return inner_->Delete(key); });
}

std::unique_ptr<graphbench::KvIterator> TimedKv::NewIterator() const {
  return Timed(&stats_->other, [&] { return inner_->NewIterator(); });
}

Status TimedKv::ScanPrefix(
    std::string_view prefix,
    std::vector<std::pair<std::string, std::string>>* out) const {
  return Timed(&stats_->other,
               [&] { return inner_->ScanPrefix(prefix, out); });
}

// ------------------------------------------------------ CountingFileSystem

Result<std::unique_ptr<storage::File>> CountingFileSystem::Open(
    const std::string& path) {
  Result<std::unique_ptr<storage::File>> file = inner_->Open(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<storage::File>(std::make_unique<CountingFile>(
      std::move(file).value(), EndsWith(path, ".wal"), stats_));
}

// -------------------------------------------------------------- layers

ProfileLayer LayerOfOperator(std::string_view op) {
  // Language front ends: parse, plan and bind (SPARQL resolves terms to
  // dictionary ids at bind), and the Gremlin client building bytecode.
  for (std::string_view name :
       {"parse", "Parse", "plan", "resolve_terms", "buildTraversal"}) {
    if (op == name) return ProfileLayer::kLang;
  }
  // The Gremlin Server and its client: request serialization, dispatch,
  // decoding, result encoding and client-side materialization.
  for (std::string_view name :
       {"serialize", "deserialize", "decodeRequest", "dispatchRequest",
        "encodeResults", "materializeResult"}) {
    if (op == name) return ProfileLayer::kServer;
  }
  return ProfileLayer::kEngine;
}

// ------------------------------------------------------------ Titan

Result<std::unique_ptr<graphbench::Sut>> MakeTracedTitan(
    graphbench::SutKind kind, const storage::DurabilityOptions& durability,
    KvStats* stats) {
  std::unique_ptr<graphbench::KvStore> backend;
  if (kind == graphbench::SutKind::kTitanC) {
    backend = std::make_unique<graphbench::LsmKv>();
  } else if (durability.enabled) {
    Result<std::unique_ptr<graphbench::PagedBTreeKv>> paged =
        graphbench::PagedBTreeKv::Open(
            storage::ResolveFileSystem(durability),
            storage::DbPath(durability, "titanb"),
            storage::WalPath(durability, "titanb"),
            storage::ToPagerOptions(durability));
    if (!paged.ok()) return paged.status();
    backend = std::move(paged).value();
  } else {
    backend = std::make_unique<graphbench::BTreeKv>();
  }
  auto titan = std::make_unique<graphbench::TitanGraph>(
      std::make_unique<TimedKv>(std::move(backend), stats));
  // The unique indexes MakeSut's Titan configurations register.
  for (const char* label : {"Person", "Forum", "Post", "Comment", "Tag",
                            "Place", "Organisation"}) {
    Status s = titan->RegisterUniqueIndex(label, "id");
    if (!s.ok()) return s;
  }
  return std::unique_ptr<graphbench::Sut>(
      std::make_unique<graphbench::GremlinSut>(SutKindName(kind),
                                               std::move(titan)));
}

}  // namespace snbbench
