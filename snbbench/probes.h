// Probes for the traced run: pass-through wrappers around the public
// interfaces of the layers (Sut, KvStore, FileSystem) that count calls and
// time them, plus the operator-name -> layer mapping applied to the
// program's own QueryProfile rows. Untraced runs use only ProbeSut, and
// only its 1-hop sampler.

#ifndef SNBBENCH_PROBES_H_
#define SNBBENCH_PROBES_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "kv/kv_store.h"
#include "storage/durability.h"
#include "storage/os_file.h"
#include "sut/sut.h"

namespace snbbench {

/// The wrappers below read the clock and count only while this is on.
/// The traced run switches it off for the untraced arm of its overhead
/// measurement.
void SetTracing(bool on);
bool Tracing();

/// Monotonic nanoseconds.
uint64_t NowNanos();

/// A call counter with accumulated time and bytes.
struct CallStats {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> nanos{0};
  std::atomic<uint64_t> bytes{0};
  void Add(uint64_t n_calls, uint64_t n_nanos, uint64_t n_bytes = 0) {
    calls.fetch_add(n_calls, std::memory_order_relaxed);
    nanos.fetch_add(n_nanos, std::memory_order_relaxed);
    bytes.fetch_add(n_bytes, std::memory_order_relaxed);
  }
};

/// Pass-through SUT. Always keeps a sample of 1-hop answers (one call in
/// `sample_every` per thread) for the real-time correctness check; while
/// tracing, also counts and times every read call.
class ProbeSut : public graphbench::Sut {
 public:
  ProbeSut(graphbench::Sut* inner, uint32_t sample_every);

  std::string name() const override { return inner_->name(); }
  graphbench::Status Load(const graphbench::snb::Dataset& data) override {
    return inner_->Load(data);
  }
  graphbench::Result<graphbench::QueryResult> PointLookup(int64_t id) override;
  graphbench::Result<graphbench::QueryResult> OneHop(int64_t id) override;
  graphbench::Result<graphbench::QueryResult> TwoHop(int64_t id) override;
  graphbench::Result<int> ShortestPathLen(int64_t a, int64_t b) override;
  graphbench::Result<graphbench::QueryResult> RecentPosts(
      int64_t id, int64_t limit) override;
  graphbench::Result<graphbench::QueryResult> FriendsWithName(
      int64_t id, const std::string& name) override;
  graphbench::Result<graphbench::QueryResult> RepliesOfPost(
      int64_t post) override;
  graphbench::Result<graphbench::QueryResult> TopPosters(
      int64_t limit) override;
  graphbench::Status Apply(const graphbench::snb::UpdateOp& op) override {
    return inner_->Apply(op);
  }
  uint64_t SizeBytes() const override { return inner_->SizeBytes(); }
  std::string StatementText(std::string_view kind) const override {
    return inner_->StatementText(kind);
  }

  const CallStats& reads() const { return reads_; }
  /// (person, friend ids) of the sampled 1-hop answers.
  std::vector<std::pair<int64_t, std::set<int64_t>>> TakeOneHopSamples();

 private:
  template <typename Fn>
  auto Read(Fn&& fn);

  static constexpr size_t kMaxSamples = 4096;

  graphbench::Sut* inner_;
  const uint32_t sample_every_;
  CallStats reads_;
  std::mutex samples_mu_;
  std::vector<std::pair<int64_t, std::set<int64_t>>> samples_;
};

/// Counts and times the calls Titan makes into its KV substrate.
struct KvStats {
  CallStats get;
  CallStats put;
  CallStats other;  // Delete, ScanPrefix, NewIterator
  uint64_t total_calls() const {
    return get.calls.load() + put.calls.load() + other.calls.load();
  }
};

class TimedKv : public graphbench::KvStore {
 public:
  TimedKv(std::unique_ptr<graphbench::KvStore> inner, KvStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  graphbench::Status Put(std::string_view key,
                         std::string_view value) override;
  graphbench::Status Get(std::string_view key,
                         std::string* value) const override;
  graphbench::Status Delete(std::string_view key) override;
  std::unique_ptr<graphbench::KvIterator> NewIterator() const override;
  graphbench::Status ScanPrefix(
      std::string_view prefix,
      std::vector<std::pair<std::string, std::string>>* out) const override;
  uint64_t Count() const override { return inner_->Count(); }
  uint64_t ApproximateSizeBytes() const override {
    return inner_->ApproximateSizeBytes();
  }
  bool SupportsTransactionalIsolation() const override {
    return inner_->SupportsTransactionalIsolation();
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<graphbench::KvStore> inner_;
  KvStats* stats_;
};

/// What one durable SUT's files saw.
struct FsStats {
  CallStats read;             // ReadAt: bytes read
  CallStats write;            // WriteAt + Append: bytes written
  CallStats sync;
  CallStats wal_record;       // WriteAt on *.wal: WAL record frames
  CallStats wal_header;       // Append on *.wal: headers after a reset
  std::atomic<uint64_t> wal_resets{0};  // Truncate(0) on *.wal
  std::atomic<uint64_t> io_nanos{0};    // every call, time inside
};

/// Counting FileSystem passed as DurabilityOptions::fs. Counts whether or
/// not tracing is on: the byte totals are checked against the WAL's own
/// counter, and the traced run is the only one that installs it.
class CountingFileSystem : public graphbench::storage::FileSystem {
 public:
  CountingFileSystem(graphbench::storage::FileSystem* inner, FsStats* stats)
      : inner_(inner), stats_(stats) {}

  graphbench::Result<std::unique_ptr<graphbench::storage::File>> Open(
      const std::string& path) override;
  bool Exists(const std::string& path) const override {
    return inner_->Exists(path);
  }
  graphbench::Status Remove(const std::string& path) override {
    return inner_->Remove(path);
  }
  graphbench::Status CreateDir(const std::string& path) override {
    return inner_->CreateDir(path);
  }

 private:
  graphbench::storage::FileSystem* inner_;
  FsStats* stats_;
};

/// Where a QueryProfile operator's self time belongs.
enum class ProfileLayer { kLang, kServer, kEngine };
ProfileLayer LayerOfOperator(std::string_view op);

/// The Titan configurations assembled from the public TitanGraph and
/// GremlinSut constructors with a TimedKv between Titan and its store:
/// LsmKv (Titan-C), BTreeKv (Titan-B), or PagedBTreeKv (durable Titan-B).
graphbench::Result<std::unique_ptr<graphbench::Sut>> MakeTracedTitan(
    graphbench::SutKind kind,
    const graphbench::storage::DurabilityOptions& durability,
    KvStats* stats);

}  // namespace snbbench

#endif  // SNBBENCH_PROBES_H_
