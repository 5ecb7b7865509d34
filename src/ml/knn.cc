#include "ml/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "common/thread_pool.h"
#include "text/similarity.h"
#include "text/tokenize.h"

namespace visclean {

namespace {

bool NeighborLess(const Neighbor& a, const Neighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.index < b.index;
}

// Exact top-k over the whole corpus, Neighbor::index = row id. Identical
// math and ordering to NearestNeighborsByTokens (corpus rows ascend, so
// position order == row-id order; (distance, row) is a total order, so the
// partial sort's prefix is the full sort's).
std::vector<Neighbor> KnnOverCorpus(
    size_t query_row, const TokenIdList& query_tokens, size_t k,
    const std::vector<size_t>& corpus_rows,
    const std::vector<const TokenIdList*>& corpus_tokens) {
  std::vector<Neighbor> all;
  all.reserve(corpus_rows.size());
  for (size_t i = 0; i < corpus_rows.size(); ++i) {
    if (corpus_rows[i] == query_row) continue;
    all.push_back(
        {corpus_rows[i], 1.0 - JaccardSimilarity(query_tokens, *corpus_tokens[i])});
  }
  const size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(keep),
                    all.end(), NeighborLess);
  all.resize(keep);
  return all;
}

}  // namespace

std::vector<Neighbor> NearestNeighborsByTokens(
    const std::vector<std::set<std::string>>& items,
    const std::set<std::string>& query, size_t k, ptrdiff_t exclude_index) {
  std::vector<Neighbor> all;
  all.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    if (exclude_index >= 0 && i == static_cast<size_t>(exclude_index)) continue;
    all.push_back({i, 1.0 - JaccardSimilarity(query, items[i])});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.index < b.index;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

std::vector<Neighbor> NearestNeighborsByString(
    const std::vector<std::string>& items, const std::string& query, size_t k,
    ptrdiff_t exclude_index) {
  std::vector<std::set<std::string>> token_sets;
  token_sets.reserve(items.size());
  for (const std::string& item : items) {
    token_sets.push_back(TokenSet(WordTokens(item)));
  }
  return NearestNeighborsByTokens(token_sets, TokenSet(WordTokens(query)), k,
                                  exclude_index);
}

void TokenKnnCache::Clear() {
  entries_.clear();
  epoch_dirty_.clear();
}

void TokenKnnCache::BeginEpoch(const std::vector<size_t>& dirty_rows) {
  epoch_dirty_ = dirty_rows;  // already sorted (Table::MutatedRowsSince)
  for (auto it = entries_.begin(); it != entries_.end();) {
    // Dirty members are handled by the merge path (the slack usually
    // absorbs them); only a dirty query row invalidates the whole list.
    if (std::binary_search(epoch_dirty_.begin(), epoch_dirty_.end(),
                           it->first)) {
      it = entries_.erase(it);
    } else {
      it->second.merged = false;
      ++it;
    }
  }
}

std::vector<std::vector<Neighbor>> TokenKnnCache::BatchQuery(
    const std::vector<size_t>& query_rows, size_t k,
    const std::vector<size_t>& corpus_rows,
    const std::vector<const TokenIdList*>& corpus_tokens,
    const KernelEnv& env) {
  auto corpus_pos = [&](size_t row) -> ptrdiff_t {
    auto it = std::lower_bound(corpus_rows.begin(), corpus_rows.end(), row);
    if (it == corpus_rows.end() || *it != row) return -1;
    return it - corpus_rows.begin();
  };

  std::vector<std::vector<Neighbor>> out(query_rows.size());
  std::vector<size_t> misses;  // positions in query_rows to fully recompute
  for (size_t qi = 0; qi < query_rows.size(); ++qi) {
    size_t q = query_rows[qi];
    auto it = entries_.find(q);
    if (it == entries_.end() || it->second.k != k) {
      misses.push_back(qi);
      continue;
    }
    Entry& entry = it->second;
    if (!entry.merged) {
      if (entry.neighbors.empty()) {
        misses.push_back(qi);
        continue;
      }
      // Completeness boundary: the old last key. Every current corpus row
      // with key <= boundary ends up in the pool — clean rows kept their
      // key and sat inside the old exact prefix, dirty rows are re-merged
      // with fresh distances — so the pool cut at the boundary is the
      // exact corpus ranking down to it.
      const Neighbor boundary = entry.neighbors.back();
      std::erase_if(entry.neighbors, [&](const Neighbor& nb) {
        return std::binary_search(epoch_dirty_.begin(), epoch_dirty_.end(),
                                  nb.index);
      });
      const TokenIdList& q_tokens = *corpus_tokens[corpus_pos(q)];
      for (size_t d : epoch_dirty_) {
        if (d == q) continue;
        ptrdiff_t pos = corpus_pos(d);
        if (pos < 0) continue;
        entry.neighbors.push_back(
            {d, 1.0 - JaccardSimilarity(q_tokens, *corpus_tokens[pos])});
      }
      std::sort(entry.neighbors.begin(), entry.neighbors.end(), NeighborLess);
      entry.neighbors.erase(
          std::upper_bound(entry.neighbors.begin(), entry.neighbors.end(),
                           boundary, NeighborLess),
          entry.neighbors.end());
      if (entry.neighbors.size() > 2 * k) entry.neighbors.resize(2 * k);
      // The slack ran out (too many members went dirty) and the prefix no
      // longer covers k — unless it spans the whole corpus, recompute.
      if (entry.neighbors.size() < k &&
          entry.neighbors.size() + 1 < corpus_rows.size()) {
        entries_.erase(it);
        misses.push_back(qi);
        continue;
      }
      entry.merged = true;
      ++merged_queries_;
    }
    out[qi].assign(entry.neighbors.begin(),
                   entry.neighbors.begin() +
                       static_cast<ptrdiff_t>(std::min(k, entry.neighbors.size())));
  }

  if (!misses.empty()) {
    full_queries_ += misses.size();
    std::vector<std::vector<Neighbor>> computed(misses.size());
    // Pure chunk kernel with indexed writes: any partition (pool chunks or
    // a cross-session batch) merges to the same lists.
    RunKernel(KernelKind::kKnnQuery, env, misses.size(), /*min_parallel=*/2,
              [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  size_t q = query_rows[misses[i]];
                  ptrdiff_t pos = corpus_pos(q);
                  // Store double the requested k: the slack is what lets
                  // later epochs absorb dirty-member departures without
                  // recomputing.
                  computed[i] = KnnOverCorpus(q, *corpus_tokens[pos], 2 * k,
                                              corpus_rows, corpus_tokens);
                }
              });
    for (size_t i = 0; i < misses.size(); ++i) {
      Entry& entry = entries_[query_rows[misses[i]]];
      entry.neighbors = std::move(computed[i]);
      entry.k = k;
      entry.merged = true;
      out[misses[i]].assign(
          entry.neighbors.begin(),
          entry.neighbors.begin() +
              static_cast<ptrdiff_t>(std::min(k, entry.neighbors.size())));
    }
  }
  return out;
}

std::vector<double> KnnOutlierScores(const std::vector<double>& values,
                                     size_t k) {
  const size_t n = values.size();
  std::vector<double> scores(n, 0.0);
  if (n <= 1) return scores;
  k = std::min(k, n - 1);

  // Sort (value, original index); in sorted order the k nearest values of
  // any element form a contiguous window containing it, so the k-th nearest
  // distance is the minimum over the k+1 windows [l, l+k] covering position
  // i of max(v[i]-v[l], v[l+k]-v[i]).
  std::vector<std::pair<double, size_t>> sorted(n);
  for (size_t i = 0; i < n; ++i) sorted[i] = {values[i], i};
  std::sort(sorted.begin(), sorted.end());

  for (size_t i = 0; i < n; ++i) {
    size_t lo = i >= k ? i - k : 0;
    size_t hi = std::min(i, n - 1 - k);
    double best = std::numeric_limits<double>::infinity();
    for (size_t l = lo; l <= hi; ++l) {
      double left = sorted[i].first - sorted[l].first;
      double right = sorted[l + k].first - sorted[i].first;
      best = std::min(best, std::max(left, right));
    }
    scores[sorted[i].second] = best;
  }
  return scores;
}

}  // namespace visclean
