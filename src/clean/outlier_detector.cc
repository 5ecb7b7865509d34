#include "clean/outlier_detector.h"

#include <algorithm>
#include <set>
#include <string>

#include "clean/detector.h"
#include "ml/knn.h"
#include "text/tokenize.h"

namespace visclean {

std::vector<OQuestion> DetectOutliers(const Table& table, size_t column,
                                      const OutlierDetectorOptions& options) {
  std::vector<size_t> rows;
  std::vector<double> values;
  for (size_t r : table.LiveRowIds()) {
    const Value& v = table.at(r, column);
    if (v.is_null()) continue;
    rows.push_back(r);
    values.push_back(v.ToNumberOr(0.0));
  }
  if (values.size() < 3) return {};

  // Clamp k for tiny columns: with k close to n every score degenerates to
  // the diameter of the value set and nothing stands out.
  size_t k = std::min(options.k, std::max<size_t>(1, (values.size() - 1) / 2));
  std::vector<double> scores = KnnOutlierScores(values, k);

  // Median score as the normal-spread reference.
  std::vector<double> sorted_scores = scores;
  std::nth_element(sorted_scores.begin(),
                   sorted_scores.begin() + sorted_scores.size() / 2,
                   sorted_scores.end());
  double median = sorted_scores[sorted_scores.size() / 2];
  double cutoff = median > 0 ? median * options.score_ratio : 0.0;

  // Rank candidate indices by score descending.
  std::vector<size_t> order(values.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return rows[a] < rows[b];
  });

  // Row token sets for repair suggestions (computed lazily only if needed).
  std::vector<std::set<std::string>> row_tokens;
  auto ensure_row_tokens = [&]() {
    if (!row_tokens.empty()) return;
    row_tokens.reserve(rows.size());
    for (size_t r : rows) {
      row_tokens.push_back(TokenSet(WordTokens(RowAsString(table, r))));
    }
  };

  std::vector<OQuestion> out;
  for (size_t i : order) {
    if (out.size() >= options.max_questions) break;
    if (scores[i] <= cutoff || scores[i] <= 0.0) break;
    ensure_row_tokens();
    std::vector<Neighbor> neighbors = NearestNeighborsByTokens(
        row_tokens, row_tokens[i], options.impute_k,
        static_cast<ptrdiff_t>(i));
    double nsum = 0.0;
    size_t nused = 0;
    for (const Neighbor& nb : neighbors) {
      nsum += values[nb.index];
      ++nused;
    }
    OQuestion q;
    q.row = rows[i];
    q.column = column;
    q.current = values[i];
    q.suggested = nused > 0 ? nsum / static_cast<double>(nused) : values[i];
    q.score = scores[i];
    out.push_back(q);
  }
  return out;
}

// ---------------------------------------------------------- OutlierDetector

void OutlierDetector::Configure(size_t column,
                                const OutlierDetectorOptions& options,
                                RowTokenCache* tokens) {
  if (column != column_ || options.k != options_.k ||
      options.max_questions != options_.max_questions ||
      options.score_ratio != options_.score_ratio ||
      options.impute_k != options_.impute_k) {
    knn_.Clear();
    questions_.clear();
  }
  column_ = column;
  options_ = options;
  tokens_ = tokens;
}

void OutlierDetector::FullScan(const Table& table, const KernelEnv& env) {
  knn_.Clear();
  Generate(table, env);
}

void OutlierDetector::Update(const Table& table,
                             const std::vector<size_t>& mutated_rows,
                             const KernelEnv& env) {
  knn_.BeginEpoch(mutated_rows);
  Generate(table, env);
}

void OutlierDetector::Generate(const Table& table, const KernelEnv& env) {
  std::vector<OQuestion> previous = std::move(questions_);
  questions_.clear();

  // Same global pass as DetectOutliers: scores, median cutoff, ranking.
  std::vector<size_t> rows;
  std::vector<double> values;
  for (size_t r : table.LiveRowIds()) {
    const Value& v = table.at(r, column_);
    if (v.is_null()) continue;
    rows.push_back(r);
    values.push_back(v.ToNumberOr(0.0));
  }
  if (values.size() >= 3) {
    size_t k =
        std::min(options_.k, std::max<size_t>(1, (values.size() - 1) / 2));
    std::vector<double> scores = KnnOutlierScores(values, k);

    std::vector<double> sorted_scores = scores;
    std::nth_element(sorted_scores.begin(),
                     sorted_scores.begin() + sorted_scores.size() / 2,
                     sorted_scores.end());
    double median = sorted_scores[sorted_scores.size() / 2];
    double cutoff = median > 0 ? median * options_.score_ratio : 0.0;

    std::vector<size_t> order(values.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (scores[a] != scores[b]) return scores[a] > scores[b];
      return rows[a] < rows[b];
    });

    // The walk's break conditions depend only on the scores, so the asked
    // rows are known before any kNN runs — batch their suggestions.
    std::vector<size_t> asked;  // positions into rows/values
    for (size_t i : order) {
      if (asked.size() >= options_.max_questions) break;
      if (scores[i] <= cutoff || scores[i] <= 0.0) break;
      asked.push_back(i);
    }

    if (!asked.empty()) {
      // Corpus = the non-null live rows (ascending ids), shared token cache.
      tokens_->Ensure(table, rows, env);
      std::vector<const TokenIdList*> corpus_tokens;
      corpus_tokens.reserve(rows.size());
      for (size_t r : rows) corpus_tokens.push_back(&tokens_->tokens(r));

      std::vector<size_t> query_rows;
      query_rows.reserve(asked.size());
      for (size_t i : asked) query_rows.push_back(rows[i]);
      std::vector<std::vector<Neighbor>> neighbor_lists = knn_.BatchQuery(
          query_rows, options_.impute_k, rows, corpus_tokens, env);

      for (size_t qi = 0; qi < asked.size(); ++qi) {
        size_t i = asked[qi];
        double nsum = 0.0;
        size_t nused = 0;
        for (const Neighbor& nb : neighbor_lists[qi]) {
          size_t pos = static_cast<size_t>(
              std::lower_bound(rows.begin(), rows.end(), nb.index) -
              rows.begin());
          nsum += values[pos];
          ++nused;
        }
        OQuestion q;
        q.row = rows[i];
        q.column = column_;
        q.current = values[i];
        q.suggested = nused > 0 ? nsum / static_cast<double>(nused) : values[i];
        q.score = scores[i];
        questions_.push_back(q);
      }
    }
  }

  auto same = [](const OQuestion& a, const OQuestion& b) {
    return a.row == b.row && a.column == b.column && a.current == b.current &&
           a.suggested == b.suggested && a.score == b.score;
  };
  added_.clear();
  retracted_.clear();
  for (const OQuestion& q : questions_) {
    bool found = false;
    for (const OQuestion& p : previous) {
      if (same(p, q)) {
        found = true;
        break;
      }
    }
    if (!found) added_.push_back(q);
  }
  for (const OQuestion& p : previous) {
    bool found = false;
    for (const OQuestion& q : questions_) {
      if (same(p, q)) {
        found = true;
        break;
      }
    }
    if (!found) retracted_.push_back(p);
  }
}

}  // namespace visclean
