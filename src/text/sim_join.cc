#include "text/sim_join.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_map>

#include "common/status.h"
#include "common/thread_pool.h"
#include "text/similarity.h"
#include "text/tokenize.h"

namespace visclean {

namespace {

std::set<std::string> Tokenize(const std::string& s, bool use_qgrams) {
  return use_qgrams ? TokenSet(QGrams(s, 3)) : TokenSet(WordTokens(s));
}

// Maps tokens to integer ids ordered by global frequency ascending (rarest
// first), the canonical prefix-filter ordering. Ties break lexicographically,
// so the order is deterministic.
std::unordered_map<std::string, uint32_t> FrequencyOrder(
    const std::vector<std::set<std::string>>& sets) {
  std::map<std::string, size_t> freq;
  for (const auto& set : sets) {
    for (const std::string& t : set) ++freq[t];
  }
  std::vector<std::pair<size_t, std::string>> order;
  order.reserve(freq.size());
  for (const auto& [t, f] : freq) order.emplace_back(f, t);
  std::sort(order.begin(), order.end());
  std::unordered_map<std::string, uint32_t> id;
  id.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    id[order[i].second] = static_cast<uint32_t>(i);
  }
  return id;
}

TokenIdList SortedIds(const std::set<std::string>& set,
                      const std::unordered_map<std::string, uint32_t>& id) {
  TokenIdList ids;
  ids.reserve(set.size());
  for (const std::string& t : set) ids.push_back(id.at(t));
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Tokenizes every string and assigns frequency-ordered ids.
std::vector<TokenIdList> BuildTokenIds(const std::vector<std::string>& a,
                                       const std::vector<std::string>& b,
                                       bool use_qgrams) {
  std::vector<std::set<std::string>> sets;
  sets.reserve(a.size() + b.size());
  for (const std::string& s : a) sets.push_back(Tokenize(s, use_qgrams));
  for (const std::string& s : b) sets.push_back(Tokenize(s, use_qgrams));
  std::unordered_map<std::string, uint32_t> id = FrequencyOrder(sets);
  std::vector<TokenIdList> out;
  out.reserve(sets.size());
  for (const auto& set : sets) out.push_back(SortedIds(set, id));
  return out;
}

size_t PrefixLength(size_t set_size, double threshold) {
  if (set_size == 0) return 0;
  size_t keep = static_cast<size_t>(
      std::ceil(threshold * static_cast<double>(set_size)));
  return set_size - keep + 1;
}

// The (similarity desc, left, right) output order. The emitted (left, right)
// keys are unique, so this comparator is a total order and the sorted output
// is independent of probe order / threading.
void SortPairs(std::vector<SimJoinPair>* out) {
  std::sort(out->begin(), out->end(),
            [](const SimJoinPair& a, const SimJoinPair& b) {
              if (a.similarity != b.similarity)
                return a.similarity > b.similarity;
              if (a.left_index != b.left_index)
                return a.left_index < b.left_index;
              return a.right_index < b.right_index;
            });
}

std::vector<SimJoinPair> JoinImpl(const std::vector<TokenIdList>& left_ids,
                                  const std::vector<TokenIdList>& right_ids,
                                  double threshold, bool self_join,
                                  ThreadPool* pool) {
  // Inverted index over the prefix tokens of the right side.
  std::unordered_map<uint32_t, std::vector<size_t>> index;
  for (size_t j = 0; j < right_ids.size(); ++j) {
    size_t plen = PrefixLength(right_ids[j].size(), threshold);
    for (size_t p = 0; p < plen && p < right_ids[j].size(); ++p) {
      index[right_ids[j][p]].push_back(j);
    }
  }

  // Probe one left record against the index. Dedup (`seen`) only guards
  // against re-discovering the same pair through several shared prefix
  // tokens of the SAME left record, so it stays worker-local when the probe
  // side is chunked over the pool.
  auto probe = [&](size_t begin, size_t end, std::vector<SimJoinPair>* out,
                   std::set<std::pair<size_t, size_t>>* seen) {
    for (size_t i = begin; i < end; ++i) {
      size_t plen = PrefixLength(left_ids[i].size(), threshold);
      for (size_t p = 0; p < plen && p < left_ids[i].size(); ++p) {
        auto it = index.find(left_ids[i][p]);
        if (it == index.end()) continue;
        for (size_t j : it->second) {
          if (self_join && j <= i) continue;
          if (!seen->insert({i, j}).second) continue;
          // Length filter: |x| >= t*|y| and |y| >= t*|x| is necessary for
          // Jaccard >= t.
          size_t lx = left_ids[i].size(), ly = right_ids[j].size();
          if (static_cast<double>(std::min(lx, ly)) <
              threshold * static_cast<double>(std::max(lx, ly))) {
            continue;
          }
          double sim = JaccardSimilarity(left_ids[i], right_ids[j]);
          if (sim >= threshold) out->push_back({i, j, sim});
        }
      }
    }
  };

  std::vector<SimJoinPair> out;
  if (pool != nullptr && left_ids.size() >= 2 * pool->num_threads()) {
    std::vector<std::vector<SimJoinPair>> chunk_out(pool->num_threads());
    pool->ParallelChunks(left_ids.size(),
                         [&](size_t worker, size_t begin, size_t end) {
                           std::set<std::pair<size_t, size_t>> seen;
                           probe(begin, end, &chunk_out[worker], &seen);
                         });
    for (const std::vector<SimJoinPair>& chunk : chunk_out) {
      out.insert(out.end(), chunk.begin(), chunk.end());
    }
  } else {
    std::set<std::pair<size_t, size_t>> seen;
    probe(0, left_ids.size(), &out, &seen);
  }
  SortPairs(&out);
  return out;
}

std::pair<std::string, std::string> PairKey(const std::string& a,
                                            const std::string& b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

std::vector<SimJoinPair> SimilarityJoin(const std::vector<std::string>& left,
                                        const std::vector<std::string>& right,
                                        const SimJoinOptions& options,
                                        ThreadPool* pool) {
  std::vector<TokenIdList> all =
      BuildTokenIds(left, right, options.use_qgrams);
  std::vector<TokenIdList> left_ids(all.begin(), all.begin() + left.size());
  std::vector<TokenIdList> right_ids(all.begin() + left.size(), all.end());
  return JoinImpl(left_ids, right_ids, options.threshold, /*self_join=*/false,
                  pool);
}

std::vector<SimJoinPair> SimilaritySelfJoin(
    const std::vector<std::string>& items, const SimJoinOptions& options,
    ThreadPool* pool) {
  std::vector<TokenIdList> ids = BuildTokenIds(items, {}, options.use_qgrams);
  return JoinImpl(ids, ids, options.threshold, /*self_join=*/true, pool);
}

// --------------------------------------------------- IncrementalSimJoin --

void IncrementalSimJoin::Rebuild(const std::vector<std::string>& items,
                                 const SimJoinOptions& options,
                                 ThreadPool* pool, bool dirty_fallback) {
  VC_CHECK(std::is_sorted(items.begin(), items.end()) &&
               std::adjacent_find(items.begin(), items.end()) == items.end(),
           "IncrementalSimJoin::Rebuild requires sorted unique items");
  token_id_.clear();
  entries_.clear();
  prefix_index_.clear();
  pairs_.clear();
  partners_.clear();
  options_ = options;
  primed_ = true;
  ++stats_.full_joins;
  if (dirty_fallback) ++stats_.fallback_full_joins;

  std::vector<std::set<std::string>> sets;
  sets.reserve(items.size());
  for (const std::string& s : items) {
    sets.push_back(Tokenize(s, options.use_qgrams));
  }
  token_id_ = FrequencyOrder(sets);
  std::vector<TokenIdList> ids;
  ids.reserve(items.size());
  for (const auto& set : sets) ids.push_back(SortedIds(set, token_id_));
  for (size_t i = 0; i < items.size(); ++i) {
    entries_.emplace_hint(entries_.end(), items[i], ids[i]);
    IndexPrefix(items[i], ids[i]);
  }

  // JoinImpl's positional output over the sorted items IS the materialized
  // result; mirror it into the string-keyed pair set for maintenance.
  result_cache_ = JoinImpl(ids, ids, options.threshold, /*self_join=*/true,
                           pool);
  items_cache_ = items;
  dirty_ = false;
  for (const SimJoinPair& p : result_cache_) {
    const std::string& a = items[p.left_index];
    const std::string& b = items[p.right_index];
    pairs_[{a, b}] = p.similarity;  // left < right: items are sorted
    partners_[a].insert(b);
    partners_[b].insert(a);
  }
}

void IncrementalSimJoin::ApplyDelta(const std::vector<std::string>& retracts,
                                    const std::vector<std::string>& inserts,
                                    double dirty_fraction) {
  VC_CHECK(primed_, "ApplyDelta on an unprimed IncrementalSimJoin");
  for (const std::string& s : retracts) Retract(s);
  for (const std::string& s : inserts) Insert(s);
  ++stats_.delta_syncs;
  stats_.last_dirty_fraction = dirty_fraction;
}

void IncrementalSimJoin::Insert(const std::string& spelling) {
  if (!primed_ || entries_.count(spelling) > 0) return;
  ++stats_.inserts;
  TokenIdList ids = TokenIdsOf(spelling);

  // Probe the live prefix index for join partners among current spellings.
  // Completeness needs a shared prefix token under the common (frozen +
  // appended) token order; see the class comment for why that order works.
  size_t plen = PrefixLength(ids.size(), options_.threshold);
  std::set<std::string> seen;
  for (size_t p = 0; p < plen && p < ids.size(); ++p) {
    auto it = prefix_index_.find(ids[p]);
    if (it == prefix_index_.end()) continue;
    for (const std::string& other : it->second) {
      if (!seen.insert(other).second) continue;
      const TokenIdList& oids = entries_.at(other);
      size_t lx = ids.size(), ly = oids.size();
      if (static_cast<double>(std::min(lx, ly)) <
          options_.threshold * static_cast<double>(std::max(lx, ly))) {
        continue;
      }
      double sim = JaccardSimilarity(ids, oids);
      if (sim < options_.threshold) continue;
      pairs_[PairKey(spelling, other)] = sim;
      partners_[spelling].insert(other);
      partners_[other].insert(spelling);
      ++stats_.pairs_added;
    }
  }
  IndexPrefix(spelling, ids);
  entries_.emplace(spelling, std::move(ids));
  dirty_ = true;
}

void IncrementalSimJoin::Retract(const std::string& spelling) {
  auto it = entries_.find(spelling);
  if (!primed_ || it == entries_.end()) return;
  ++stats_.retracts;
  const TokenIdList& ids = it->second;
  size_t plen = PrefixLength(ids.size(), options_.threshold);
  for (size_t p = 0; p < plen && p < ids.size(); ++p) {
    auto pit = prefix_index_.find(ids[p]);
    if (pit == prefix_index_.end()) continue;
    pit->second.erase(spelling);
    if (pit->second.empty()) prefix_index_.erase(pit);
  }
  auto part = partners_.find(spelling);
  if (part != partners_.end()) {
    for (const std::string& other : part->second) {
      pairs_.erase(PairKey(spelling, other));
      ++stats_.pairs_removed;
      auto oit = partners_.find(other);
      if (oit != partners_.end()) {
        oit->second.erase(spelling);
        if (oit->second.empty()) partners_.erase(oit);
      }
    }
    partners_.erase(part);
  }
  entries_.erase(it);
  dirty_ = true;
}

bool IncrementalSimJoin::OptionsMatch(const SimJoinOptions& options) const {
  return primed_ && options.threshold == options_.threshold &&
         options.use_qgrams == options_.use_qgrams;
}

const std::vector<std::string>& IncrementalSimJoin::items() const {
  Materialize();
  return items_cache_;
}

const std::vector<SimJoinPair>& IncrementalSimJoin::Pairs() const {
  Materialize();
  return result_cache_;
}

void IncrementalSimJoin::Clear() {
  primed_ = false;
  options_ = {};
  stats_ = {};
  token_id_.clear();
  entries_.clear();
  prefix_index_.clear();
  pairs_.clear();
  partners_.clear();
  dirty_ = true;
  items_cache_.clear();
  result_cache_.clear();
}

TokenIdList IncrementalSimJoin::TokenIdsOf(const std::string& spelling) {
  std::set<std::string> set = Tokenize(spelling, options_.use_qgrams);
  TokenIdList ids;
  ids.reserve(set.size());
  for (const std::string& t : set) {
    auto [it, added] =
        token_id_.emplace(t, static_cast<uint32_t>(token_id_.size()));
    if (added) ++stats_.token_appends;
    ids.push_back(it->second);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void IncrementalSimJoin::IndexPrefix(const std::string& spelling,
                                     const TokenIdList& ids) {
  size_t plen = PrefixLength(ids.size(), options_.threshold);
  for (size_t p = 0; p < plen && p < ids.size(); ++p) {
    prefix_index_[ids[p]].insert(spelling);
  }
}

void IncrementalSimJoin::Materialize() const {
  if (!dirty_) return;
  items_cache_.clear();
  items_cache_.reserve(entries_.size());
  std::unordered_map<std::string, size_t> rank;
  rank.reserve(entries_.size());
  for (const auto& [s, ids] : entries_) {
    rank.emplace(s, items_cache_.size());
    items_cache_.push_back(s);
  }
  result_cache_.clear();
  result_cache_.reserve(pairs_.size());
  for (const auto& [key, sim] : pairs_) {
    // key.first < key.second, and rank is by sorted position, so the
    // positional pair keeps left_index < right_index like the self-join.
    result_cache_.push_back({rank.at(key.first), rank.at(key.second), sim});
  }
  SortPairs(&result_cache_);
  dirty_ = false;
}

}  // namespace visclean
