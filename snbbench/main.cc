// The SNB benchmark command.
//
//   snbbench --workload <sf-b-reads|sf-a-realtime|sf-a-durable>
//            --seed <n> --seconds <s> --trace <0|1> [--dir <scratch dir>]
//
// Generates the SNB dataset from the seed, builds every SUT of the workload
// with MakeSut(kind, SutOptions) (plan cache and landmarks off, the paper's
// method), and runs three phases:
//   setup      generate, load each SUT, publish the update stream to an
//              mq::Broker topic;
//   latency    a single-client closed loop over curated parameters per SUT
//              and read kind (Tables 2/3);
//   real-time  the program's InteractiveDriver with three readers on the
//              Figure 3 mix and one writer draining the topic (Figure 3).
// Every answer is checked against the benchmark's own Reference. The last
// line of standard output is one JSON object: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1 (README.md).

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unistd.h>
#include <vector>

#include "driver/driver.h"
#include "lang/cypher/parser.h"
#include "lang/sparql/parser.h"
#include "lang/sql/parser.h"
#include "mq/broker.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "probes.h"
#include "reference.h"
#include "snb/datagen.h"
#include "snb/update_codec.h"
#include "sut/sut.h"
#include "util/random.h"

namespace snbbench {
namespace {

using namespace graphbench;

constexpr size_t kReaders = 3;          // 3 readers + 1 writer = 4 cores
constexpr int64_t kRecentLimit = 10;
constexpr int64_t kTopLimit = 10;
constexpr uint32_t kOneHopSampleEvery = 32;
constexpr const char* kTopic = "updates";

// ------------------------------------------------------------- workloads

struct Workload {
  snb::DatagenOptions scale;
  size_t stream_ops;           // published prefix of the update stream
  double replay_per_second;    // writer pace; 0 = drain as fast as it can
  bool durable;
  double latency_share;        // of --seconds; the rest is real-time
  std::vector<SutKind> kinds;
};

const std::vector<SutKind> kDurableKinds = {
    SutKind::kTitanB, SutKind::kPostgresSql, SutKind::kVirtuosoSql,
    SutKind::kNeo4jCypher};

// sf-b-reads gives the long latency phase to the query pipelines, with
// writes a paced trickle; sf-a-realtime puts the write paths, locks and
// epochs under a writer draining beside three readers; sf-a-durable routes
// the four SUTs with a paged analog through the pager and WAL. Each stream
// is a prefix sized so the slowest writer drains it within half its window.
bool FindWorkload(const std::string& name, Workload* w) {
  if (name == "sf-b-reads") {
    *w = Workload{snb::ScaleB(), 1200, 2000, false, 0.6, AllSutKinds()};
  } else if (name == "sf-a-realtime") {
    *w = Workload{snb::ScaleA(), 5000, 0, false, 0.4, AllSutKinds()};
    w->scale.update_window = 0.3;  // Figure 3's long stream
  } else if (name == "sf-a-durable") {
    *w = Workload{snb::ScaleA(), 1200, 0, true, 0.6, kDurableKinds};
    w->scale.update_window = 0.3;
  } else {
    return false;
  }
  return true;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------- checks

class Checker {
 public:
  void Expect(const std::string& where, const std::string& error) {
    if (error.empty()) return;
    if (errors_++ < 20) {
      std::fprintf(stderr, "CHECK FAILED [%s] %s\n", where.c_str(),
                   error.c_str());
    }
  }
  bool ok() const { return errors_ == 0; }

 private:
  uint64_t errors_ = 0;
};

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// ------------------------------------------------------------ parameters

// LDBC-style parameter curation: candidates are sorted by a cost proxy,
// the costliest (1 - keep) share is set aside, the rest is split into `n`
// equal strata, and each stratum's middle candidate is taken. Every seed's
// dataset so yields the same spread of cheap and expensive parameters; a
// random pick inside the top stratum of a heavy-tailed cost would swing the
// mean from seed to seed.
template <typename T>
std::vector<T> Stratified(std::vector<std::pair<double, T>> candidates,
                          size_t n, double keep = 1.0) {
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  candidates.resize(size_t(std::ceil(keep * double(candidates.size()))));
  std::vector<T> out;
  n = std::min(n, candidates.size());
  for (size_t i = 0; i < n; ++i) {
    out.push_back(candidates[(2 * i + 1) * candidates.size() / (2 * n)].second);
  }
  return out;
}

struct Params {
  std::vector<int64_t> point, one_hop, two_hop, recent, named_person,
      replied_post;
  std::vector<std::string> named_first_name;
  std::vector<std::pair<int64_t, int64_t>> paths;
};

Params Curate(const snb::Dataset& data, const Reference& ref, uint64_t seed) {
  Rng rng(seed);
  Params p;
  std::vector<std::pair<double, int64_t>> by_id, by_degree, by_two_hop,
      by_posts, named;
  for (const snb::Person& person : data.persons) {
    double degree = double(ref.friends(person.id).size());
    double reach = 0;
    for (int64_t f : ref.friends(person.id)) {
      reach += double(ref.friends(f).size());
    }
    by_id.emplace_back(double(by_id.size()), person.id);
    by_degree.emplace_back(degree, person.id);
    by_two_hop.emplace_back(reach, person.id);
    by_posts.emplace_back(double(ref.PostCount(person.id)), person.id);
    if (degree > 0) named.emplace_back(degree, person.id);
  }
  p.point = Stratified(by_id, 64);
  p.one_hop = Stratified(by_degree, 64);
  // The hubs' 2-hop reach varies most between generated graphs (it follows
  // the largest degrees); the top 2% are left to the real-time mix.
  p.two_hop = Stratified(by_two_hop, 64, 0.98);
  p.recent = Stratified(by_posts, 16);
  p.named_person = Stratified(named, 16);
  for (int64_t person : p.named_person) {
    const std::set<int64_t>& friends = ref.friends(person);
    auto it = friends.begin();
    std::advance(it, long(rng.Uniform(friends.size())));
    p.named_first_name.push_back(ref.person(*it)->first_name);
  }
  std::vector<std::pair<double, int64_t>> by_replies;
  for (size_t i = 0; i < 512 && !data.posts.empty(); ++i) {
    int64_t post = data.posts[rng.Uniform(data.posts.size())].id;
    by_replies.emplace_back(double(ref.replies(post).size()), post);
  }
  p.replied_post = Stratified(by_replies, 16);
  // Path pairs: connected persons, by the BFS work the answer needs.
  std::vector<int64_t> connected;
  for (const auto& [degree, id] : named) connected.push_back(id);
  std::vector<std::pair<double, std::pair<int64_t, int64_t>>> by_bfs;
  for (size_t i = 0; i < 256 && connected.size() > 1; ++i) {
    int64_t a = connected[rng.Uniform(connected.size())];
    int64_t b = connected[rng.Uniform(connected.size())];
    if (a == b) continue;
    size_t settled = 0;
    ref.ShortestPath(a, b, &settled);
    by_bfs.emplace_back(double(settled), std::make_pair(a, b));
  }
  p.paths = Stratified(by_bfs, 16);
  return p;
}

// ------------------------------------------------------------ read kinds

enum ReadKind { kPoint, kOneHop, kTwoHop, kPath, kShort, kTop, kNumKinds };
const char* const kKindNames[kNumKinds] = {
    "point_lookup", "one_hop", "two_hop", "shortest_path", "short_read",
    "top_posters"};

struct Outcome {
  bool ok = true;
  std::string error;  // a failed status, or a wrong answer
};
// One read with fixed parameters. With a reference, the answer is checked.
using Op = std::function<Outcome(Sut&, const Reference*)>;

template <typename Call, typename Check>
Op MakeOp(Call call, Check check) {
  return [call, check](Sut& sut, const Reference* ref) -> Outcome {
    auto r = call(sut);
    if (!r.ok()) return {false, r.status().ToString()};
    return {true, ref != nullptr ? check(*ref, *r) : std::string()};
  };
}

Op PointOp(int64_t id) {
  return MakeOp([id](Sut& s) { return s.PointLookup(id); },
                [id](const Reference& ref, const QueryResult& r) {
                  return CheckPointLookup(ref, id, r);
                });
}
Op OneHopOp(int64_t id) {
  return MakeOp([id](Sut& s) { return s.OneHop(id); },
                [id](const Reference& ref, const QueryResult& r) {
                  return CheckOneHop(ref, id, r);
                });
}
Op TwoHopOp(int64_t id) {
  return MakeOp([id](Sut& s) { return s.TwoHop(id); },
                [id](const Reference& ref, const QueryResult& r) {
                  return CheckTwoHop(ref, id, r);
                });
}
Op PathOp(int64_t a, int64_t b) {
  return MakeOp([a, b](Sut& s) { return s.ShortestPathLen(a, b); },
                [a, b](const Reference& ref, int len) {
                  return CheckShortestPath(ref, a, b, len);
                });
}
Op RecentOp(int64_t id) {
  return MakeOp([id](Sut& s) { return s.RecentPosts(id, kRecentLimit); },
                [id](const Reference& ref, const QueryResult& r) {
                  return CheckRecentPosts(ref, id, kRecentLimit, r);
                });
}
Op NamedOp(int64_t id, std::string name) {
  return MakeOp([id, name](Sut& s) { return s.FriendsWithName(id, name); },
                [id, name](const Reference& ref, const QueryResult& r) {
                  return CheckFriendsWithName(ref, id, name, r);
                });
}
Op RepliesOp(int64_t post) {
  return MakeOp([post](Sut& s) { return s.RepliesOfPost(post); },
                [post](const Reference& ref, const QueryResult& r) {
                  return CheckRepliesOfPost(ref, post, r);
                });
}
Op TopOp() {
  return MakeOp([](Sut& s) { return s.TopPosters(kTopLimit); },
                [](const Reference& ref, const QueryResult& r) {
                  return CheckTopPosters(ref, kTopLimit, r);
                });
}

// One round of each read kind: every curated parameter once.
std::vector<std::vector<Op>> BuildRounds(const Params& p) {
  std::vector<std::vector<Op>> rounds(kNumKinds);
  for (int64_t id : p.point) rounds[kPoint].push_back(PointOp(id));
  for (int64_t id : p.one_hop) rounds[kOneHop].push_back(OneHopOp(id));
  for (int64_t id : p.two_hop) rounds[kTwoHop].push_back(TwoHopOp(id));
  for (const auto& [a, b] : p.paths) rounds[kPath].push_back(PathOp(a, b));
  // Equal numbers of the three short reads, interleaved.
  size_t n = std::min({p.recent.size(), p.named_person.size(),
                       p.replied_post.size()});
  for (size_t i = 0; i < n; ++i) {
    rounds[kShort].push_back(RecentOp(p.recent[i]));
    rounds[kShort].push_back(NamedOp(p.named_person[i], p.named_first_name[i]));
    rounds[kShort].push_back(RepliesOp(p.replied_post[i]));
  }
  rounds[kTop] = {TopOp(), TopOp()};
  return rounds;
}

// ------------------------------------------------------------- run state

struct SutRun {
  SutKind kind;
  std::string id;
  std::unique_ptr<FsStats> fs_stats;  // traced durable SUTs only
  std::unique_ptr<CountingFileSystem> fs;
  std::unique_ptr<Sut> sut;
  double load_s = 0;
  double latency_us[kNumKinds] = {};
  double reads_per_s = 0, read_p99_us = 0, writes_per_s = 0, write_p99_us = 0;
  uint64_t phase_reads = 0;   // reads after setup (latency + real-time)
  uint64_t phase_ops = 0;     // reads and writes after setup
  uint64_t rt_writes = 0;
  uint64_t rt_wal_bytes = 0;
  uint64_t rt_file_write_bytes = 0;
};

struct FsSnapshot {
  uint64_t read_bytes = 0, write_bytes = 0, wal_bytes = 0;
};

FsSnapshot Snap(const SutRun& run) {
  FsSnapshot s;
  if (run.fs_stats == nullptr) return s;
  s.read_bytes = run.fs_stats->read.bytes.load();
  s.write_bytes = run.fs_stats->write.bytes.load();
  s.wal_bytes = run.fs_stats->wal_record.bytes.load() +
                run.fs_stats->wal_header.bytes.load();
  return s;
}

// What only the traced run collects.
struct Trace {
  double generate_s = 0;
  double produce_us_per_op = 0;
  double consume_us_per_op = 0;
  double self_us[3] = {};  // by ProfileLayer
  uint64_t profiled_reads = 0;
  double reader_us = 0, reader_inside_us = 0;
  uint64_t driver_reads = 0;
  std::map<std::string, double> lock_wait_us;
  double epoch_reclaimed = 0;
  uint64_t rt_writes = 0;
  std::vector<double> ab_untraced, ab_traced;  // reads/s per SUT
  KvStats kv[3];  // btree, lsm, paged
  // Baselines taken at the end of setup.
  uint64_t kv_calls_after_setup[3] = {};
  uint64_t evictions_after_setup = 0;
  std::vector<FsSnapshot> fs_after_setup;  // per SUT
};

const char* const kKvNames[3] = {"btree", "lsm", "paged"};
const char* const kLockComponents[] = {"rdf",   "relational", "storage",
                                       "btree", "paged_btree", "sqlg",
                                       "titan"};

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name)->value();
}

double Seconds(uint64_t nanos) { return double(nanos) / 1e9; }

// Which traced KV store sits under the SUT, or -1.
int KvIndex(SutKind kind, bool durable) {
  if (kind == SutKind::kTitanC) return 1;
  if (kind == SutKind::kTitanB) return durable ? 2 : 0;
  return -1;
}

// ---------------------------------------------------------- latency phase

// One (SUT, read kind) cell of the latency phase.
struct Cell {
  SutRun* run;
  int kind;
  uint64_t calls = 0;  // timed calls; the parameter cursor
  uint64_t nanos = 0;
  obs::QueryProfile profile = {};
};

// After one checked warm-up round per cell, passes visit every cell in
// turn, and each visit cycles through the cell's parameters for one time
// slice. A slow moment of the machine so touches every cell a little
// rather than a few cells a lot. Passes stop when the time left only
// covers finishing each cell's current round, so every parameter weighs
// the same in the cell's mean.
void RunLatencyPhase(std::vector<SutRun>* runs,
                     const std::vector<std::vector<Op>>& rounds,
                     const Reference& snapshot, double budget_s, bool trace,
                     Tally* tally, Checker* checker, Trace* tr) {
  constexpr uint64_t kTargetPasses = 8;
  const uint64_t deadline = NowNanos() + uint64_t(budget_s * 1e9);
  std::vector<Cell> cells;
  for (SutRun& run : *runs) {
    for (int k = 0; k < kNumKinds; ++k) cells.push_back(Cell{&run, k});
  }
  for (Cell& c : cells) {
    const std::string where = c.run->id + "." + kKindNames[c.kind];
    for (const Op& op : rounds[c.kind]) {
      Outcome out = op(*c.run->sut, &snapshot);
      ++tally->attempted;
      ++c.run->phase_reads;
      ++c.run->phase_ops;
      if (!out.ok) {
        ++tally->failed;
      } else {
        checker->Expect(where, out.error);
      }
    }
  }
  auto visit = [&](Cell& c, uint64_t until) {
    const std::vector<Op>& ops = rounds[c.kind];
    Sut& sut = *c.run->sut;
    auto body = [&] {
      const uint64_t start = NowNanos();
      do {
        if (!ops[c.calls % ops.size()](sut, nullptr).ok) ++tally->failed;
        ++c.calls;
        ++tally->attempted;
        ++c.run->phase_reads;
        ++c.run->phase_ops;
      } while (until == 0 ? c.calls % ops.size() != 0 : NowNanos() < until);
      c.nanos += NowNanos() - start;
    };
    if (trace) {
      sut.Profiled(&c.profile, body);
    } else {
      body();
    }
  };
  uint64_t now = NowNanos();
  const uint64_t slice = std::max<uint64_t>(
      1000000, (deadline > now ? deadline - now : 0) /
                   (cells.size() * kTargetPasses));
  for (;;) {
    const uint64_t pass_start = NowNanos();
    for (Cell& c : cells) visit(c, NowNanos() + slice);
    double finish_nanos = 0;
    for (const Cell& c : cells) {
      const uint64_t n = rounds[c.kind].size();
      finish_nanos += double((n - c.calls % n) % n) * double(c.nanos) /
                      double(c.calls);
    }
    now = NowNanos();
    if (double(now) + double(now - pass_start) + finish_nanos >=
        double(deadline)) {
      break;
    }
  }
  for (Cell& c : cells) {
    if (c.calls % rounds[c.kind].size() != 0) visit(c, 0);  // end the round
    // Whole rounds only, so this is the mean over every parameter alike.
    c.run->latency_us[c.kind] = double(c.nanos) / 1e3 / double(c.calls);
    if (trace) {
      for (const obs::OpStats& row : c.profile.ops()) {
        tr->self_us[int(LayerOfOperator(row.name))] += double(row.self_micros);
      }
      tr->profiled_reads += c.calls;
    }
  }
}

// ------------------------------------------------------- real-time phase

// Reads after the real-time phase, checked exactly against the reference
// replayed to the applied prefix: persons and posts the prefix touched,
// plus seeded snapshot persons.
void PostRunChecks(Sut& sut, const std::string& id,
                   std::span<const snb::UpdateOp> prefix,
                   const Reference& replay, const snb::Dataset& data,
                   uint64_t seed, Tally* tally, Checker* checker,
                   SutRun* run) {
  std::vector<int64_t> persons;
  std::vector<int64_t> posts;
  auto add = [](std::vector<int64_t>* v, int64_t x, size_t cap) {
    if (v->size() < cap && std::find(v->begin(), v->end(), x) == v->end()) {
      v->push_back(x);
    }
  };
  using Kind = snb::UpdateOp::Kind;
  for (const snb::UpdateOp& op : prefix) {
    if (op.kind == Kind::kAddFriendship) {
      add(&persons, op.knows.person1, 12);
      add(&persons, op.knows.person2, 12);
    } else if (op.kind == Kind::kAddPerson) {
      add(&persons, op.person.id, 16);
    } else if (op.kind == Kind::kAddPost) {
      add(&persons, op.post.creator, 20);
    } else if (op.kind == Kind::kAddComment && op.comment.reply_of_post >= 0) {
      add(&posts, op.comment.reply_of_post, 6);
    }
  }
  Rng rng(seed);
  for (int i = 0; i < 8; ++i) {
    add(&persons, data.persons[rng.Uniform(data.persons.size())].id, 28);
  }
  std::vector<Op> ops;
  for (int64_t p : persons) {
    ops.push_back(PointOp(p));
    ops.push_back(OneHopOp(p));
    ops.push_back(TwoHopOp(p));
    ops.push_back(RecentOp(p));
  }
  for (int64_t post : posts) ops.push_back(RepliesOp(post));
  ops.push_back(TopOp());
  for (size_t i = 0; i + 1 < persons.size() && i < 4; i += 2) {
    ops.push_back(PathOp(persons[i], persons[i + 1]));
  }
  for (const Op& op : ops) {
    Outcome out = op(sut, &replay);
    ++tally->attempted;
    if (!out.ok) {
      ++tally->failed;
    } else {
      checker->Expect(id + ".after_stream", out.error);
    }
  }
  run->phase_reads += ops.size();
  run->phase_ops += ops.size();
}

// Reads/s of a read-only driver window (an empty topic: the writer exits
// at once), for the tracing-overhead comparison.
double ReadOnlyWindow(Sut* sut, mq::Broker* broker, const snb::Dataset& data,
                      int64_t millis, uint64_t seed) {
  DriverOptions o;
  o.num_readers = kReaders;
  o.run_millis = millis;
  o.seed = seed;
  snb::ParamPools pools(data, seed);
  InteractiveDriver driver(sut, broker, o);
  Result<DriverMetrics> m = driver.Run("idle", &pools);
  return m.ok() ? m->reads_per_second : 0;
}

void RunRealtime(SutRun* run, mq::Broker* broker, const snb::Dataset& data,
                 const Reference& snapshot, const Reference& after_stream,
                 const Workload& w, uint64_t seed, int64_t window_ms,
                 bool trace, Tally* tally, Checker* checker, Trace* tr) {
  const std::string where = run->id + ".realtime";
  if (trace) {
    // Tracing overhead: the same read-only window, once with the probes
    // off on the bare SUT and once through a timing ProbeSut.
    SetTracing(false);
    tr->ab_untraced.push_back(
        ReadOnlyWindow(run->sut.get(), broker, data, 200, Mix(seed, 301)));
    SetTracing(true);
    ProbeSut probe(run->sut.get(), kOneHopSampleEvery);
    tr->ab_traced.push_back(
        ReadOnlyWindow(&probe, broker, data, 200, Mix(seed, 301)));
  }
  ProbeSut probe(run->sut.get(), kOneHopSampleEvery);
  const uint64_t fetched_before = CounterValue("mq.fetched_messages");
  std::map<std::string, uint64_t> locks_before;
  for (const char* c : kLockComponents) {
    locks_before[c] = CounterValue((std::string(c) + ".lock_wait_us").c_str());
  }
  const uint64_t reclaimed_before = CounterValue("epoch.reclaimed");
  const FsSnapshot fs_before = Snap(*run);

  DriverOptions o;
  o.num_readers = kReaders;
  o.run_millis = window_ms;
  o.seed = Mix(seed, 100 + uint64_t(run->kind));
  o.replay_updates_per_second = w.replay_per_second;
  snb::ParamPools pools(data, Mix(seed, 200 + uint64_t(run->kind)));
  InteractiveDriver driver(&probe, broker, o);
  Result<DriverMetrics> result = driver.Run(kTopic, &pools);
  if (!result.ok()) {
    checker->Expect(where, "driver: " + result.status().ToString());
    return;
  }
  const DriverMetrics& m = *result;
  const uint64_t consumed = CounterValue("mq.fetched_messages") - fetched_before;
  tally->attempted += m.reads_completed + m.read_errors +
                      m.writes_completed + m.write_errors;
  tally->failed += m.read_errors + m.write_errors;
  run->phase_reads += m.reads_completed + m.read_errors;
  run->phase_ops += m.reads_completed + m.read_errors + m.writes_completed +
                    m.write_errors;
  run->rt_writes = m.writes_completed;
  run->reads_per_s = m.reads_per_second;
  run->writes_per_s = m.writes_per_second;
  run->read_p99_us = m.read_latency_micros.Percentile(99);
  run->write_p99_us = m.write_latency_micros.Percentile(99);
  checker->Expect(where, CheckUnclipped("read p99", run->read_p99_us));
  checker->Expect(where, CheckUnclipped("write p99", run->write_p99_us));
  checker->Expect(where,
                  CheckPrefix(m.writes_completed, m.write_errors, consumed));
  if (consumed < data.update_stream.size()) {
    checker->Expect(where, "writer did not drain the stream in the window (" +
                               std::to_string(consumed) + " of " +
                               std::to_string(data.update_stream.size()) +
                               "); the window is too short for this machine");
  }
  std::vector<std::pair<int64_t, std::set<int64_t>>> samples =
      probe.TakeOneHopSamples();
  if (samples.empty()) checker->Expect(where, "no 1-hop answer was sampled");
  for (const auto& [person, ids] : samples) {
    checker->Expect(where,
                    CheckOneHopBetween(snapshot, after_stream, person, ids));
  }
  if (trace) {
    checker->Expect(where, probe.reads().calls.load() ==
                                   m.reads_completed + m.read_errors
                               ? ""
                               : "probe counted " +
                                     std::to_string(probe.reads().calls) +
                                     " read calls, driver " +
                                     std::to_string(m.reads_completed +
                                                    m.read_errors));
    tr->reader_us += double(kReaders) * m.elapsed_seconds * 1e6;
    tr->reader_inside_us += double(probe.reads().nanos.load()) / 1e3;
    tr->driver_reads += m.reads_completed + m.read_errors;
    for (const char* c : kLockComponents) {
      tr->lock_wait_us[c] +=
          double(CounterValue((std::string(c) + ".lock_wait_us").c_str()) -
                 locks_before[c]);
    }
    tr->epoch_reclaimed +=
        double(CounterValue("epoch.reclaimed") - reclaimed_before);
    tr->rt_writes += m.writes_completed;
    const FsSnapshot fs_after = Snap(*run);
    run->rt_wal_bytes = fs_after.wal_bytes - fs_before.wal_bytes;
    run->rt_file_write_bytes = fs_after.write_bytes - fs_before.write_bytes;
  }

  // The applied prefix, replayed on the reference, must match exactly.
  const std::span<const snb::UpdateOp> prefix(
      data.update_stream.data(),
      std::min<size_t>(consumed, data.update_stream.size()));
  Reference replay = snapshot;
  for (const snb::UpdateOp& op : prefix) replay.Apply(op);
  PostRunChecks(*run->sut, run->id, prefix, replay, data,
                Mix(seed, 400 + uint64_t(run->kind)), tally, checker, run);
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) {
    if (!(x > 0)) return 0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / double(v.size()));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return double(std::strtoull(line.c_str() + 6, nullptr, 10)) / 1024.0;
    }
  }
  return 0;
}

template <typename ParseFn>
double TimeParse(const Sut* sut, ParseFn parse) {
  if (sut == nullptr) return 0;
  std::vector<std::string> texts = {sut->StatementText("point_lookup"),
                                    sut->StatementText("one_hop")};
  constexpr int kReps = 500;
  uint64_t start = NowNanos();
  size_t ok = 0;
  for (int i = 0; i < kReps; ++i) {
    for (const std::string& text : texts) ok += parse(text).ok() ? 1 : 0;
  }
  double us = double(NowNanos() - start) / 1e3 / double(kReps * texts.size());
  return ok == kReps * texts.size() ? us : 0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

// Removes the run's durable files when the run ends, however it ends.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {}
  ~ScratchDir() {
    if (path_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir = ".bench_data";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--dir") {
      args->dir = value;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0;
}

// Creates and loads every SUT of the workload with the canonical MakeSut;
// the traced run assembles the Titan SUTs around a TimedKv and gives the
// durable SUTs a CountingFileSystem.
bool LoadSuts(const Workload& w, const snb::Dataset& data,
              const ScratchDir* scratch, bool trace, Trace* tr,
              std::vector<SutRun>* runs) {
  for (SutKind kind : w.kinds) {
    SutRun run;
    run.kind = kind;
    run.id = SutKindId(kind);
    SutOptions options;
    if (w.durable) {
      options.durability.enabled = true;
      options.durability.dir = scratch->path() + "/" + run.id;
      std::error_code ec;
      std::filesystem::create_directories(options.durability.dir, ec);
      if (trace) {
        run.fs_stats = std::make_unique<FsStats>();
        run.fs = std::make_unique<CountingFileSystem>(
            storage::PosixFileSystem::Default(), run.fs_stats.get());
        options.durability.fs = run.fs.get();
      }
    }
    const int kv = KvIndex(kind, w.durable);
    if (trace && kv >= 0) {
      Result<std::unique_ptr<Sut>> titan =
          MakeTracedTitan(kind, options.durability, &tr->kv[kv]);
      if (!titan.ok()) {
        std::fprintf(stderr, "%s: %s\n", run.id.c_str(),
                     titan.status().ToString().c_str());
        return false;
      }
      run.sut = std::move(titan).value();
    } else {
      run.sut = MakeSut(kind, options);
    }
    if (run.sut == nullptr) {
      std::fprintf(stderr, "%s: could not be created\n", run.id.c_str());
      return false;
    }
    const uint64_t t = NowNanos();
    Status load = run.sut->Load(data);
    run.load_s = Seconds(NowNanos() - t);
    if (!load.ok()) {
      std::fprintf(stderr, "%s: load failed: %s\n", run.id.c_str(),
                   load.ToString().c_str());
      return false;
    }
    runs->push_back(std::move(run));
  }
  return true;
}

// Times a Consumer::Poll + DecodeUpdate drain of the published topic.
void TimeConsumer(mq::Broker* broker, size_t published, Trace* tr,
                  Checker* checker) {
  mq::Consumer consumer(broker, kTopic);
  const uint64_t t = NowNanos();
  size_t decoded = 0;
  for (;;) {
    Result<std::vector<mq::Message>> batch = consumer.Poll(64);
    if (!batch.ok() || batch->empty()) break;
    for (const mq::Message& m : *batch) {
      decoded += snb::DecodeUpdate(m.payload).ok() ? 1 : 0;
    }
  }
  tr->consume_us_per_op =
      double(NowNanos() - t) / 1e3 / double(std::max<size_t>(1, decoded));
  if (decoded != published) {
    checker->Expect("mq", "consumer decoded " + std::to_string(decoded) +
                              " of " + std::to_string(published));
  }
}

std::vector<Metric> EndToEndMetrics(const std::vector<SutRun>& runs,
                                    double setup_s, Checker* checker) {
  std::vector<double> per_kind[kNumKinds], reads, read_p99, writes, write_p99;
  for (const SutRun& run : runs) {
    for (int k = 0; k < kNumKinds; ++k) {
      per_kind[k].push_back(run.latency_us[k]);
    }
    reads.push_back(run.reads_per_s);
    read_p99.push_back(run.read_p99_us);
    writes.push_back(run.writes_per_s);
    write_p99.push_back(run.write_p99_us);
  }
  std::vector<Metric> metrics;
  metrics.push_back({"setup_s", setup_s, "s"});
  metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  for (int k = 0; k < kNumKinds; ++k) {
    metrics.push_back(
        {std::string(kKindNames[k]) + "_us", GeoMean(per_kind[k]), "us"});
  }
  metrics.push_back({"reads_per_s", GeoMean(reads), "1/s"});
  metrics.push_back({"read_p99_us", GeoMean(read_p99), "us"});
  metrics.push_back({"writes_per_s", GeoMean(writes), "1/s"});
  metrics.push_back({"write_p99_us", GeoMean(write_p99), "us"});
  for (const Metric& m : metrics) {
    if (!(m.value > 0)) checker->Expect("metrics", m.name + " is not above 0");
  }
  return metrics;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// The traced durable SUTs' files. Also checks that two independent totals
// agree: WAL record bytes the files saw against the WAL's own counter, and
// header bytes against resets.
void AppendStorageMetrics(const std::vector<SutRun>& runs,
                          const snb::Dataset& data, const Trace& tr,
                          const ScratchDir* scratch,
                          std::vector<Metric>* metrics, Checker* checker) {
  uint64_t reads = 0, read_bytes = 0, write_bytes = 0, writes = 0, syncs = 0,
           io_nanos = 0, ops = 0, wal_records = 0, wal_headers = 0,
           wal_resets = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    const SutRun& r = runs[i];
    if (r.fs_stats == nullptr) continue;
    reads += r.phase_reads;
    read_bytes += r.fs_stats->read.bytes - tr.fs_after_setup[i].read_bytes;
    write_bytes += r.rt_file_write_bytes;
    writes += r.rt_writes;
    syncs += r.fs_stats->sync.calls;
    io_nanos += r.fs_stats->io_nanos;
    ops += r.phase_ops;
    wal_records += r.fs_stats->wal_record.bytes;
    wal_headers += r.fs_stats->wal_header.bytes;
    wal_resets += r.fs_stats->wal_resets;
  }
  for (SutKind kind : kDurableKinds) {
    double v = 0;
    for (const SutRun& r : runs) {
      if (r.kind == kind && r.fs_stats != nullptr) {
        v = Ratio(double(r.rt_wal_bytes), double(r.rt_writes));
      }
    }
    metrics->push_back({std::string("storage.") + SutKindId(kind) +
                            ".wal_bytes_per_update",
                        v, "B"});
  }
  metrics->push_back({"storage.file_read_bytes_per_read",
                      Ratio(double(read_bytes), double(reads)), "B"});
  metrics->push_back({"storage.file_write_bytes_per_update",
                      Ratio(double(write_bytes), double(writes)), "B"});
  metrics->push_back({"storage.fsyncs", double(syncs), "count"});
  metrics->push_back({"storage.io_ms", double(io_nanos) / 1e6, "ms"});
  metrics->push_back(
      {"storage.pager_evictions_per_op",
       Ratio(double(CounterValue("pager.evictions") - tr.evictions_after_setup),
             double(ops)),
       "count"});
  metrics->push_back(
      {"storage.disk_bytes_per_raw_byte",
       scratch == nullptr ? 0
                          : Ratio(double(DirBytes(scratch->path())),
                                  double(data.RawBytes()) * double(runs.size())),
       "ratio"});
  const uint64_t log_bytes = CounterValue("wal.log_bytes");
  if (wal_records != log_bytes) {
    checker->Expect("storage", "files saw " + std::to_string(wal_records) +
                                   " WAL record bytes, wal.log_bytes " +
                                   std::to_string(log_bytes));
  }
  if (wal_headers != 24 * wal_resets) {
    checker->Expect("storage", "WAL header bytes " +
                                   std::to_string(wal_headers) + " for " +
                                   std::to_string(wal_resets) + " resets");
  }
}

std::vector<Metric> PerLayerMetrics(const std::vector<SutRun>& runs,
                                    const Workload& w,
                                    const snb::Dataset& data, const Trace& tr,
                                    const ScratchDir* scratch,
                                    Checker* checker) {
  std::vector<Metric> metrics;
  metrics.push_back({"snb.generate_s", tr.generate_s, "s"});
  metrics.push_back({"mq.produce_us_per_op", tr.produce_us_per_op, "us"});
  metrics.push_back({"mq.consume_us_per_op", tr.consume_us_per_op, "us"});
  metrics.push_back({"driver.overhead_us_per_read",
                     Ratio(tr.reader_us - tr.reader_inside_us,
                           double(tr.driver_reads)),
                     "us"});
  auto find = [&](SutKind kind) -> const SutRun* {
    for (const SutRun& r : runs) {
      if (r.kind == kind) return &r;
    }
    return nullptr;
  };
  for (SutKind kind : AllSutKinds()) {
    const SutRun* run = find(kind);
    const std::string p = std::string("sut.") + SutKindId(kind) + ".";
    metrics.push_back({p + "load_s", run ? run->load_s : 0, "s"});
    for (int k = 0; k < kNumKinds; ++k) {
      metrics.push_back(
          {p + kKindNames[k] + "_us", run ? run->latency_us[k] : 0, "us"});
    }
    metrics.push_back({p + "reads_per_s", run ? run->reads_per_s : 0, "1/s"});
    metrics.push_back({p + "writes_per_s", run ? run->writes_per_s : 0, "1/s"});
  }
  auto sut = [&](SutKind kind) -> const Sut* {
    const SutRun* run = find(kind);
    return run == nullptr ? nullptr : run->sut.get();
  };
  metrics.push_back(
      {"lang.cypher.parse_us",
       TimeParse(sut(SutKind::kNeo4jCypher),
                 [](const std::string& s) { return cypher::Parse(s); }),
       "us"});
  metrics.push_back(
      {"lang.sql.parse_us",
       TimeParse(sut(SutKind::kPostgresSql),
                 [](const std::string& s) { return sql::Parse(s); }),
       "us"});
  metrics.push_back(
      {"lang.sparql.parse_us",
       TimeParse(sut(SutKind::kVirtuosoSparql),
                 [](const std::string& s) { return sparql::Parse(s); }),
       "us"});
  const double profiled = double(tr.profiled_reads);
  metrics.push_back({"lang.self_us_per_read",
                     Ratio(tr.self_us[int(ProfileLayer::kLang)], profiled),
                     "us"});
  metrics.push_back({"tinkerpop.server_self_us_per_read",
                     Ratio(tr.self_us[int(ProfileLayer::kServer)], profiled),
                     "us"});
  metrics.push_back({"engines.self_us_per_read",
                     Ratio(tr.self_us[int(ProfileLayer::kEngine)], profiled),
                     "us"});
  for (int i = 0; i < 3; ++i) {
    uint64_t ops = 0;
    for (const SutRun& r : runs) {
      if (KvIndex(r.kind, w.durable) == i) ops += r.phase_ops;
    }
    const KvStats& kv = tr.kv[i];
    auto per_call = [](const CallStats& c) {
      return Ratio(double(c.nanos) / 1e3, double(c.calls));
    };
    const std::string p = std::string("kv.") + kKvNames[i] + ".";
    metrics.push_back({p + "get_us", per_call(kv.get), "us"});
    metrics.push_back({p + "put_us", per_call(kv.put), "us"});
    metrics.push_back(
        {p + "calls_per_op",
         Ratio(double(kv.total_calls() - tr.kv_calls_after_setup[i]),
               double(ops)),
         "count"});
  }
  AppendStorageMetrics(runs, data, tr, scratch, &metrics, checker);
  for (const char* c : kLockComponents) {
    auto it = tr.lock_wait_us.find(c);
    metrics.push_back({std::string("concurrency.") + c + ".lock_wait_ms",
                       it == tr.lock_wait_us.end() ? 0 : it->second / 1e3,
                       "ms"});
  }
  metrics.push_back({"concurrency.epoch.reclaimed_per_write",
                     Ratio(tr.epoch_reclaimed, double(tr.rt_writes)), "count"});
  const double untraced = GeoMean(tr.ab_untraced);
  metrics.push_back(
      {"obs.tracing_overhead_pct",
       untraced > 0 ? 100.0 * (1.0 - GeoMean(tr.ab_traced) / untraced) : 0,
       "%"});
  return metrics;
}

// Human-readable lines per SUT, then the result as the last line.
void PrintResult(const std::vector<SutRun>& runs, const Tally& tally,
                 const Checker& checker, const std::vector<Metric>& metrics) {
  for (const SutRun& run : runs) {
    std::printf("%-14s load %.3fs", run.id.c_str(), run.load_s);
    for (int k = 0; k < kNumKinds; ++k) {
      std::printf(" %s %.2fus", kKindNames[k], run.latency_us[k]);
    }
    std::printf(
        " reads/s %.0f read_p99 %.0fus writes/s %.0f write_p99 %.0fus\n",
        run.reads_per_s, run.read_p99_us, run.writes_per_s, run.write_p99_us);
  }
  std::string json = "{\"correct\": ";
  json += checker.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Run(const Args& args, uint64_t process_start) {
  Workload w;
  if (!FindWorkload(args.workload, &w)) {
    std::fprintf(stderr, "unknown workload '%s' (sf-b-reads, sf-a-realtime, "
                 "sf-a-durable)\n", args.workload.c_str());
    return 2;
  }
  const bool trace = args.trace;
  SetTracing(trace);
  Tally tally;
  Checker checker;
  Trace tr;

  // ---------------------------------------------------------------- setup
  std::unique_ptr<ScratchDir> scratch;
  if (w.durable) {
    std::error_code ec;
    std::filesystem::create_directories(args.dir, ec);
    std::string path = args.dir + "/run-" + std::to_string(getpid());
    std::filesystem::remove_all(path, ec);
    if (!std::filesystem::create_directories(path, ec)) {
      std::fprintf(stderr, "cannot create %s\n", path.c_str());
      return 1;
    }
    scratch = std::make_unique<ScratchDir>(path);
  }
  snb::DatagenOptions scale = w.scale;
  scale.seed = Mix(scale.seed, args.seed);
  uint64_t t = NowNanos();
  snb::Dataset data = snb::Generate(scale);
  tr.generate_s = Seconds(NowNanos() - t);
  if (data.update_stream.size() > w.stream_ops) {
    data.update_stream.resize(w.stream_ops);
  }
  std::vector<SutRun> runs;
  if (!LoadSuts(w, data, scratch.get(), trace, &tr, &runs)) return 1;
  mq::Broker broker;
  t = NowNanos();
  Status produced = InteractiveDriver::ProduceUpdates(&broker, kTopic, data);
  tr.produce_us_per_op = double(NowNanos() - t) / 1e3 /
                         double(std::max<size_t>(1, data.update_stream.size()));
  if (!produced.ok() || !broker.CreateTopic("idle", 1).ok()) {
    std::fprintf(stderr, "broker: %s\n", produced.ToString().c_str());
    return 1;
  }
  const double setup_s = Seconds(NowNanos() - process_start);

  if (trace) TimeConsumer(&broker, data.update_stream.size(), &tr, &checker);
  for (int i = 0; i < 3; ++i) tr.kv_calls_after_setup[i] = tr.kv[i].total_calls();
  tr.evictions_after_setup = CounterValue("pager.evictions");
  for (const SutRun& run : runs) tr.fs_after_setup.push_back(Snap(run));

  // ---------------------------------------------------------- references
  const Reference snapshot(data);
  Reference after_stream = snapshot;
  for (const snb::UpdateOp& op : data.update_stream) after_stream.Apply(op);
  const std::vector<std::vector<Op>> rounds =
      BuildRounds(Curate(data, snapshot, Mix(args.seed, 17)));

  // -------------------------------------------------------------- phases
  RunLatencyPhase(&runs, rounds, snapshot, args.seconds * w.latency_share,
                  trace, &tally, &checker, &tr);
  const int64_t window_ms = int64_t(args.seconds * (1 - w.latency_share) *
                                    1000 / double(runs.size()));
  for (SutRun& run : runs) {
    RunRealtime(&run, &broker, data, snapshot, after_stream, w, args.seed,
                window_ms, trace, &tally, &checker, &tr);
  }

  const std::vector<Metric> metrics =
      trace ? PerLayerMetrics(runs, w, data, tr, scratch.get(), &checker)
            : EndToEndMetrics(runs, setup_s, &checker);
  PrintResult(runs, tally, checker, metrics);
  return checker.ok() ? 0 : 1;
}

}  // namespace
}  // namespace snbbench

int main(int argc, char** argv) {
  const uint64_t process_start = snbbench::NowNanos();
  snbbench::Args args;
  if (!snbbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <sf-b-reads|sf-a-realtime|"
                 "sf-a-durable> --seed <n> --seconds <s> --trace <0|1> "
                 "[--dir <scratch dir>]\n",
                 argv[0]);
    return 2;
  }
  return snbbench::Run(args, process_start);
}
