#include "reference.h"

#include <algorithm>
#include <unordered_set>

#include "util/string_util.h"

namespace snbbench {

using graphbench::Row;
using graphbench::StringPrintf;
namespace snb = graphbench::snb;

namespace {

const std::set<int64_t> kNoFriends;
const std::map<int64_t, int64_t> kNoReplies;

// Histogram's last bucket bound (util/histogram.cc): every value at or
// above it lands in a bucket whose upper bound is this number.
constexpr double kHistogramCeilingUs = 131072;

std::string Describe(const std::set<int64_t>& s) {
  std::string out = "{";
  size_t n = 0;
  for (int64_t v : s) {
    if (n++ == 8) {
      out += ",...";
      break;
    }
    if (n > 1) out += ',';
    out += std::to_string(v);
  }
  return out + "} (" + std::to_string(s.size()) + ")";
}

std::string CompareSets(const char* what, int64_t param,
                        const std::set<int64_t>& want,
                        const std::set<int64_t>& got) {
  if (want == got) return "";
  return StringPrintf("%s(%lld): want %s, got %s", what, (long long)param,
                      Describe(want).c_str(), Describe(got).c_str());
}

bool IsInt(const Row& row, size_t col) {
  return col < row.size() && row[col].is_int();
}

}  // namespace

Reference::Reference(const snb::Dataset& data) {
  persons_.reserve(data.persons.size());
  for (const snb::Person& p : data.persons) {
    persons_[p.id] = p;
    person_ids_.push_back(p.id);
  }
  for (const snb::Knows& k : data.knows) {
    friends_[k.person1].insert(k.person2);
    friends_[k.person2].insert(k.person1);
  }
  for (const snb::Post& p : data.posts) AddPost(p.id, p.creator, p.creation_date);
  for (const snb::Comment& c : data.comments) AddComment(c);
}

void Reference::AddPost(int64_t id, int64_t creator, int64_t date) {
  posts_[id] = PostInfo{creator, date};
  post_dates_by_creator_[creator].push_back(date);
}

void Reference::AddComment(const snb::Comment& c) {
  if (c.reply_of_post >= 0) replies_[c.reply_of_post][c.id] = c.creator;
}

void Reference::Apply(const snb::UpdateOp& op) {
  using Kind = snb::UpdateOp::Kind;
  switch (op.kind) {
    case Kind::kAddPerson:
      if (persons_.emplace(op.person.id, op.person).second) {
        person_ids_.push_back(op.person.id);
      }
      break;
    case Kind::kAddPost:
      AddPost(op.post.id, op.post.creator, op.post.creation_date);
      break;
    case Kind::kAddComment:
      AddComment(op.comment);
      break;
    case Kind::kAddFriendship:
      friends_[op.knows.person1].insert(op.knows.person2);
      friends_[op.knows.person2].insert(op.knows.person1);
      break;
    case Kind::kRemoveFriendship:
      friends_[op.knows.person1].erase(op.knows.person2);
      friends_[op.knows.person2].erase(op.knows.person1);
      break;
    case Kind::kAddLikePost:
    case Kind::kAddLikeComment:
    case Kind::kAddForum:
    case Kind::kAddForumMember:
      break;  // no checked read observes these
  }
}

const snb::Person* Reference::person(int64_t id) const {
  auto it = persons_.find(id);
  return it == persons_.end() ? nullptr : &it->second;
}

const std::set<int64_t>& Reference::friends(int64_t id) const {
  auto it = friends_.find(id);
  return it == friends_.end() ? kNoFriends : it->second;
}

std::set<int64_t> Reference::TwoHop(int64_t id) const {
  std::set<int64_t> out;
  for (int64_t f : friends(id)) {
    for (int64_t ff : friends(f)) {
      if (ff != id) out.insert(ff);
    }
  }
  return out;
}

int Reference::ShortestPath(int64_t from, int64_t to, size_t* settled) const {
  if (settled != nullptr) *settled = 1;
  if (from == to) return 0;
  std::unordered_set<int64_t> seen{from};
  std::vector<int64_t> frontier{from};
  for (int depth = 1; !frontier.empty(); ++depth) {
    std::vector<int64_t> next;
    for (int64_t v : frontier) {
      for (int64_t n : friends(v)) {
        if (n == to) {
          if (settled != nullptr) *settled = seen.size();
          return depth;
        }
        if (seen.insert(n).second) next.push_back(n);
      }
    }
    frontier = std::move(next);
  }
  if (settled != nullptr) *settled = seen.size();
  return -1;
}

std::vector<int64_t> Reference::RecentPostDates(int64_t person,
                                                size_t limit) const {
  auto it = post_dates_by_creator_.find(person);
  if (it == post_dates_by_creator_.end()) return {};
  std::vector<int64_t> dates = it->second;
  std::sort(dates.begin(), dates.end(), std::greater<int64_t>());
  if (dates.size() > limit) dates.resize(limit);
  return dates;
}

size_t Reference::PostCount(int64_t person) const {
  auto it = post_dates_by_creator_.find(person);
  return it == post_dates_by_creator_.end() ? 0 : it->second.size();
}

std::set<int64_t> Reference::FriendsWithName(
    int64_t person, const std::string& first_name) const {
  std::set<int64_t> out;
  for (int64_t f : friends(person)) {
    const snb::Person* p = this->person(f);
    if (p != nullptr && p->first_name == first_name) out.insert(f);
  }
  return out;
}

const Reference::PostInfo* Reference::post(int64_t id) const {
  auto it = posts_.find(id);
  return it == posts_.end() ? nullptr : &it->second;
}

const std::map<int64_t, int64_t>& Reference::replies(int64_t post) const {
  auto it = replies_.find(post);
  return it == replies_.end() ? kNoReplies : it->second;
}

std::vector<std::pair<int64_t, int64_t>> Reference::TopPosters(
    size_t limit) const {
  std::vector<std::pair<int64_t, int64_t>> ranked;
  ranked.reserve(post_dates_by_creator_.size());
  for (const auto& [creator, dates] : post_dates_by_creator_) {
    ranked.emplace_back(creator, int64_t(dates.size()));
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (ranked.size() > limit) ranked.resize(limit);
  return ranked;
}

std::vector<int64_t> Reference::RepliedPosts() const {
  std::vector<int64_t> out;
  out.reserve(replies_.size());
  for (const auto& [post, r] : replies_) {
    if (!r.empty()) out.push_back(post);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::set<int64_t> IdColumn(const QueryResult& r) {
  std::set<int64_t> out;
  for (const Row& row : r.rows) {
    out.insert(IsInt(row, 0) ? row[0].as_int() : INT64_MIN);
  }
  return out;
}

std::string CheckPointLookup(const Reference& ref, int64_t person,
                             const QueryResult& got) {
  const snb::Person* p = ref.person(person);
  size_t want_rows = p == nullptr ? 0 : 1;
  if (got.rows.size() != want_rows) {
    return StringPrintf("point_lookup(%lld): want %zu rows, got %zu",
                        (long long)person, want_rows, got.rows.size());
  }
  if (p == nullptr) return "";
  const Row& row = got.rows[0];
  if (row.size() < 2 || !row[0].is_string() || !row[1].is_string() ||
      row[0].as_string() != p->first_name ||
      row[1].as_string() != p->last_name) {
    return StringPrintf("point_lookup(%lld): want %s %s", (long long)person,
                        p->first_name.c_str(), p->last_name.c_str());
  }
  return "";
}

std::string CheckOneHop(const Reference& ref, int64_t person,
                        const QueryResult& got) {
  return CompareSets("one_hop", person, ref.friends(person), IdColumn(got));
}

std::string CheckOneHopBetween(const Reference& before,
                               const Reference& after, int64_t person,
                               const std::set<int64_t>& got) {
  const std::set<int64_t>& lo = before.friends(person);
  const std::set<int64_t>& hi = after.friends(person);
  if (!std::includes(got.begin(), got.end(), lo.begin(), lo.end())) {
    return StringPrintf("one_hop(%lld) during writes: lost a snapshot "
                        "friend: snapshot %s, got %s",
                        (long long)person, Describe(lo).c_str(),
                        Describe(got).c_str());
  }
  if (!std::includes(hi.begin(), hi.end(), got.begin(), got.end())) {
    return StringPrintf("one_hop(%lld) during writes: a friend no update "
                        "adds: after stream %s, got %s",
                        (long long)person, Describe(hi).c_str(),
                        Describe(got).c_str());
  }
  return "";
}

std::string CheckTwoHop(const Reference& ref, int64_t person,
                        const QueryResult& got) {
  return CompareSets("two_hop", person, ref.TwoHop(person), IdColumn(got));
}

std::string CheckShortestPath(const Reference& ref, int64_t from, int64_t to,
                              int got) {
  int want = ref.ShortestPath(from, to);
  if (want == got) return "";
  return StringPrintf("shortest_path(%lld,%lld): want %d, got %d",
                      (long long)from, (long long)to, want, got);
}

std::string CheckRecentPosts(const Reference& ref, int64_t person,
                             int64_t limit, const QueryResult& got) {
  // Posts that tie on creation date may come in either order; the dates,
  // newest first, and each post's owner must match.
  std::vector<int64_t> want = ref.RecentPostDates(person, size_t(limit));
  std::vector<int64_t> dates;
  for (const Row& row : got.rows) {
    if (!IsInt(row, 0) || !IsInt(row, 2)) {
      return StringPrintf("recent_posts(%lld): malformed row",
                          (long long)person);
    }
    dates.push_back(row[2].as_int());
  }
  if (dates != want) {
    return StringPrintf("recent_posts(%lld): want %zu posts, got %zu or "
                        "other dates",
                        (long long)person, want.size(), dates.size());
  }
  std::set<int64_t> ids = IdColumn(got);
  if (ids.size() != got.rows.size()) {
    return StringPrintf("recent_posts(%lld): duplicate post",
                        (long long)person);
  }
  for (const Row& row : got.rows) {
    const Reference::PostInfo* post = ref.post(row[0].as_int());
    if (post == nullptr || post->creator != person ||
        post->date != row[2].as_int()) {
      return StringPrintf("recent_posts(%lld): post %lld is not the "
                          "person's, or has another date",
                          (long long)person, (long long)row[0].as_int());
    }
  }
  return "";
}

std::string CheckFriendsWithName(const Reference& ref, int64_t person,
                                 const std::string& first_name,
                                 const QueryResult& got) {
  return CompareSets("friends_with_name", person,
                     ref.FriendsWithName(person, first_name), IdColumn(got));
}

std::string CheckRepliesOfPost(const Reference& ref, int64_t post,
                               const QueryResult& got) {
  const std::map<int64_t, int64_t>& want = ref.replies(post);
  std::map<int64_t, int64_t> have;
  for (const Row& row : got.rows) {
    if (!IsInt(row, 0) || !IsInt(row, 2)) {
      return StringPrintf("replies_of_post(%lld): malformed row",
                          (long long)post);
    }
    have[row[0].as_int()] = row[2].as_int();
  }
  if (have != want || got.rows.size() != want.size()) {
    return StringPrintf("replies_of_post(%lld): want %zu replies, got %zu "
                        "or other ids/creators",
                        (long long)post, want.size(), got.rows.size());
  }
  return "";
}

std::string CheckTopPosters(const Reference& ref, int64_t limit,
                            const QueryResult& got) {
  std::vector<std::pair<int64_t, int64_t>> want =
      ref.TopPosters(size_t(limit));
  if (got.rows.size() != want.size()) {
    return StringPrintf("top_posters(%lld): want %zu rows, got %zu",
                        (long long)limit, want.size(), got.rows.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    const Row& row = got.rows[i];
    if (!IsInt(row, 0) || !IsInt(row, 1) || row[0].as_int() != want[i].first ||
        row[1].as_int() != want[i].second) {
      return StringPrintf("top_posters(%lld): rank %zu: want person %lld "
                          "with %lld posts",
                          (long long)limit, i, (long long)want[i].first,
                          (long long)want[i].second);
    }
  }
  return "";
}

std::string CheckPrefix(uint64_t applied, uint64_t failed,
                        uint64_t consumed) {
  if (applied + failed == consumed) return "";
  return StringPrintf("writer: %llu applied + %llu failed != %llu consumed",
                      (unsigned long long)applied,
                      (unsigned long long)failed,
                      (unsigned long long)consumed);
}

std::string CheckUnclipped(const std::string& what, double percentile_us) {
  if (percentile_us < kHistogramCeilingUs) return "";
  return StringPrintf("%s = %.0f us reaches the histogram ceiling (%.0f us) "
                      "and is clipped",
                      what.c_str(), percentile_us, kHistogramCeilingUs);
}

}  // namespace snbbench
