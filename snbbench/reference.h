// The benchmark's own model of the generated social network, and the
// output checker built on it. Every answer a SUT gives during a run is
// compared with what this model computes directly from the snb::Dataset:
// BFS for paths, adjacency sets for 1-hop and 2-hop, posts sorted per
// creator for recent posts and TopPosters, the person row for point
// lookups. The model replays update-stream prefixes, so answers after the
// real-time phase are checked exactly too.
//
// Each Check* function returns an empty string when the answer is right,
// and a one-line description of the first difference otherwise.

#ifndef SNBBENCH_REFERENCE_H_
#define SNBBENCH_REFERENCE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engines/relational/query_result.h"
#include "snb/schema.h"

namespace snbbench {

class Reference {
 public:
  explicit Reference(const graphbench::snb::Dataset& data);

  /// Replays one update of the stream. The generated stream only adds.
  void Apply(const graphbench::snb::UpdateOp& op);

  /// nullptr when the person does not exist.
  const graphbench::snb::Person* person(int64_t id) const;
  /// Friend ids; empty for unknown persons.
  const std::set<int64_t>& friends(int64_t id) const;
  /// Distinct friends-of-friends, excluding `id` itself.
  std::set<int64_t> TwoHop(int64_t id) const;
  /// Unweighted shortest-path length over knows; -1 when unreachable.
  /// `*settled`, when given, receives the number of persons the BFS
  /// settled before it stopped (the cost proxy for parameter curation).
  int ShortestPath(int64_t from, int64_t to, size_t* settled = nullptr) const;
  /// Creation dates of the person's `limit` newest posts, newest first.
  std::vector<int64_t> RecentPostDates(int64_t person, size_t limit) const;
  size_t PostCount(int64_t person) const;
  struct PostInfo {
    int64_t creator = 0;
    int64_t date = 0;
  };
  /// nullptr when the post does not exist.
  const PostInfo* post(int64_t id) const;
  std::set<int64_t> FriendsWithName(int64_t person,
                                    const std::string& first_name) const;
  /// Direct comment replies of a post: comment id -> creator id.
  const std::map<int64_t, int64_t>& replies(int64_t post) const;
  /// (person id, post count), count descending then id ascending.
  std::vector<std::pair<int64_t, int64_t>> TopPosters(size_t limit) const;

  /// Snapshot persons in dataset order, then persons the stream added.
  const std::vector<int64_t>& person_ids() const { return person_ids_; }
  /// Posts with at least one direct reply, ascending.
  std::vector<int64_t> RepliedPosts() const;

 private:
  void AddPost(int64_t id, int64_t creator, int64_t date);
  void AddComment(const graphbench::snb::Comment& c);

  std::unordered_map<int64_t, graphbench::snb::Person> persons_;
  std::vector<int64_t> person_ids_;
  std::unordered_map<int64_t, std::set<int64_t>> friends_;
  std::unordered_map<int64_t, PostInfo> posts_;
  std::unordered_map<int64_t, std::vector<int64_t>> post_dates_by_creator_;
  std::unordered_map<int64_t, std::map<int64_t, int64_t>> replies_;
};

using graphbench::QueryResult;

std::string CheckPointLookup(const Reference& ref, int64_t person,
                             const QueryResult& got);
std::string CheckOneHop(const Reference& ref, int64_t person,
                        const QueryResult& got);
/// Real-time phase: while the writer runs, a 1-hop answer must contain
/// the snapshot's friend set and lie inside the set after the full stream.
std::string CheckOneHopBetween(const Reference& before,
                               const Reference& after, int64_t person,
                               const std::set<int64_t>& got);
std::string CheckTwoHop(const Reference& ref, int64_t person,
                        const QueryResult& got);
std::string CheckShortestPath(const Reference& ref, int64_t from, int64_t to,
                              int got);
std::string CheckRecentPosts(const Reference& ref, int64_t person,
                             int64_t limit, const QueryResult& got);
std::string CheckFriendsWithName(const Reference& ref, int64_t person,
                                 const std::string& first_name,
                                 const QueryResult& got);
std::string CheckRepliesOfPost(const Reference& ref, int64_t post,
                               const QueryResult& got);
std::string CheckTopPosters(const Reference& ref, int64_t limit,
                            const QueryResult& got);
/// After the real-time phase: every consumed update was either applied or
/// counted as failed.
std::string CheckPrefix(uint64_t applied, uint64_t failed, uint64_t consumed);
/// Histogram::Percentile cannot report above its last bucket bound
/// (131,072 us); a value there is clipped, not measured.
std::string CheckUnclipped(const std::string& what, double percentile_us);

/// Column 0 of every row as a set of ids.
std::set<int64_t> IdColumn(const QueryResult& r);

}  // namespace snbbench

#endif  // SNBBENCH_REFERENCE_H_
