// The output checker's own test: on a tiny generated network, real SUT
// answers pass, and each kind of corrupted answer — a dropped friend, an
// off-by-one path length, a swapped TopPosters rank, a wrong writer prefix
// count, a clipped p99 — is reported as a failure. Any Check* failure
// makes a benchmark run print "correct": false and exit non-zero.
//
//   ctest --test-dir .bench_build     (or run snbbench_checker_test)

#include <cstdio>
#include <set>
#include <utility>

#include "reference.h"
#include "snb/datagen.h"
#include "sut/sut.h"
#include "util/histogram.h"

namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

// The checker must accept `good` and reject `bad`.
void ExpectCaught(const std::string& good, const std::string& bad,
                  const char* what) {
  if (!good.empty()) std::fprintf(stderr, "  (%s)\n", good.c_str());
  Expect(good.empty(), (std::string(what) + ": true answer rejected").c_str());
  Expect(!bad.empty(), (std::string(what) + ": corruption not caught").c_str());
}

}  // namespace

int main() {
  using namespace graphbench;
  using namespace snbbench;

  snb::DatagenOptions tiny;
  tiny.num_persons = 80;
  tiny.seed = 7;
  tiny.max_degree = 20;
  snb::Dataset data = snb::Generate(tiny);
  Reference ref(data);

  std::unique_ptr<Sut> sut = MakeSut(SutKind::kMatrix, SutOptions{});
  Expect(sut != nullptr && sut->Load(data).ok(), "load the matrix SUT");
  if (failures > 0) return 1;

  // A person with at least two friends, and a reachable pair at distance
  // two or more.
  int64_t person = -1;
  for (int64_t id : ref.person_ids()) {
    if (ref.friends(id).size() >= 2) {
      person = id;
      break;
    }
  }
  Expect(person >= 0, "a person with two friends");
  if (failures > 0) return 1;

  // A dropped friend.
  Result<QueryResult> one_hop = sut->OneHop(person);
  Expect(one_hop.ok(), "one_hop runs");
  QueryResult dropped = *one_hop;
  dropped.rows.pop_back();
  ExpectCaught(CheckOneHop(ref, person, *one_hop),
               CheckOneHop(ref, person, dropped), "one_hop dropped friend");

  // The same dropped friend while the writer runs: below the snapshot.
  std::set<int64_t> sampled = IdColumn(*one_hop);
  std::set<int64_t> short_sample = IdColumn(dropped);
  ExpectCaught(CheckOneHopBetween(ref, ref, person, sampled),
               CheckOneHopBetween(ref, ref, person, short_sample),
               "real-time one_hop dropped friend");

  // An off-by-one path length.
  int64_t far = -1;
  int want = -1;
  for (int64_t id : ref.person_ids()) {
    int d = ref.ShortestPath(person, id);
    if (d >= 2) {
      far = id;
      want = d;
      break;
    }
  }
  Expect(far >= 0, "a pair at distance two or more");
  Result<int> path = sut->ShortestPathLen(person, far);
  Expect(path.ok() && *path == want, "shortest_path runs");
  ExpectCaught(CheckShortestPath(ref, person, far, *path),
               CheckShortestPath(ref, person, far, *path + 1),
               "shortest_path off by one");

  // A swapped TopPosters rank.
  Result<QueryResult> top = sut->TopPosters(10);
  Expect(top.ok() && top->rows.size() >= 2, "top_posters runs");
  QueryResult swapped = *top;
  std::swap(swapped.rows[0], swapped.rows[1]);
  ExpectCaught(CheckTopPosters(ref, 10, *top),
               CheckTopPosters(ref, 10, swapped), "top_posters swapped rank");

  // A wrong writer prefix count: one consumed update neither applied nor
  // failed.
  ExpectCaught(CheckPrefix(40, 2, 42), CheckPrefix(40, 2, 43),
               "writer prefix count");

  // A p99 at the histogram's ceiling is clipped, not measured: 100 samples
  // of 400,000 us report p99 = 131,072.
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Add(400000);
  ExpectCaught(CheckUnclipped("p99", 131071.0),
               CheckUnclipped("p99", h.Percentile(99)), "clipped p99");

  // After a replayed prefix, a stale answer is caught too.
  Reference replay = ref;
  for (const snb::UpdateOp& op : data.update_stream) {
    Expect(sut->Apply(op).ok(), "apply the update stream");
    replay.Apply(op);
  }
  for (const snb::UpdateOp& op : data.update_stream) {
    if (op.kind != snb::UpdateOp::Kind::kAddFriendship) continue;
    int64_t p = op.knows.person1;
    Result<QueryResult> fresh = sut->OneHop(p);
    Expect(fresh.ok(), "one_hop after the stream");
    ExpectCaught(CheckOneHop(replay, p, *fresh), CheckOneHop(ref, p, *fresh),
                 "one_hop against a stale reference");
    break;
  }

  if (failures > 0) {
    std::fprintf(stderr, "%d checker test failure(s)\n", failures);
    return 1;
  }
  std::printf("checker test: all corruptions caught\n");
  return 0;
}
