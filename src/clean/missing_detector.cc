#include "clean/missing_detector.h"

#include <algorithm>
#include <set>
#include <string>

#include "clean/detector.h"
#include "ml/knn.h"
#include "text/tokenize.h"

namespace visclean {

std::vector<MQuestion> DetectMissing(const Table& table, size_t column,
                                     const MissingDetectorOptions& options) {
  std::vector<size_t> rows = table.LiveRowIds();

  std::vector<size_t> missing_rows;
  for (size_t r : rows) {
    if (table.at(r, column).is_null()) missing_rows.push_back(r);
  }
  if (missing_rows.empty()) return {};
  if (options.max_questions > 0 && missing_rows.size() > options.max_questions) {
    missing_rows.resize(options.max_questions);
  }

  // Column mean fallback when no neighbor carries a value.
  double sum = 0.0;
  size_t count = 0;
  for (size_t r : rows) {
    const Value& v = table.at(r, column);
    if (!v.is_null()) {
      sum += v.ToNumberOr(0.0);
      ++count;
    }
  }
  double mean = count > 0 ? sum / static_cast<double>(count) : 0.0;

  // Token sets of every row for the string-Jaccard kNN of Section IV,
  // computed once (queries share the corpus).
  std::vector<std::set<std::string>> row_tokens;
  row_tokens.reserve(rows.size());
  for (size_t r : rows) {
    row_tokens.push_back(TokenSet(WordTokens(RowAsString(table, r))));
  }

  std::vector<MQuestion> out;
  out.reserve(missing_rows.size());
  for (size_t r : missing_rows) {
    // Position of r within `rows` for self-exclusion.
    size_t pos = static_cast<size_t>(
        std::lower_bound(rows.begin(), rows.end(), r) - rows.begin());
    // Ask for extra neighbors; some may miss the value themselves.
    std::vector<Neighbor> neighbors = NearestNeighborsByTokens(
        row_tokens, row_tokens[pos], options.k * 3,
        static_cast<ptrdiff_t>(pos));
    double nsum = 0.0;
    size_t nused = 0;
    for (const Neighbor& nb : neighbors) {
      const Value& v = table.at(rows[nb.index], column);
      if (v.is_null()) continue;
      nsum += v.ToNumberOr(0.0);
      if (++nused == options.k) break;
    }
    MQuestion q;
    q.row = r;
    q.column = column;
    q.suggested = nused > 0 ? nsum / static_cast<double>(nused) : mean;
    out.push_back(q);
  }
  return out;
}

// ---------------------------------------------------------- MissingDetector

void MissingDetector::Configure(size_t column,
                                const MissingDetectorOptions& options,
                                RowTokenCache* tokens) {
  if (column != column_ || options.k != options_.k ||
      options.max_questions != options_.max_questions) {
    knn_.Clear();
    questions_.clear();
  }
  column_ = column;
  options_ = options;
  tokens_ = tokens;
}

void MissingDetector::FullScan(const Table& table, const KernelEnv& env) {
  knn_.Clear();
  Generate(table, env);
}

void MissingDetector::Update(const Table& table,
                             const std::vector<size_t>& mutated_rows,
                             const KernelEnv& env) {
  knn_.BeginEpoch(mutated_rows);
  Generate(table, env);
}

void MissingDetector::Generate(const Table& table, const KernelEnv& env) {
  std::vector<MQuestion> previous = std::move(questions_);
  questions_.clear();

  std::vector<size_t> rows = table.LiveRowIds();
  std::vector<size_t> missing_rows;
  for (size_t r : rows) {
    if (table.at(r, column_).is_null()) missing_rows.push_back(r);
  }
  if (!missing_rows.empty()) {
    if (options_.max_questions > 0 &&
        missing_rows.size() > options_.max_questions) {
      missing_rows.resize(options_.max_questions);
    }

    double sum = 0.0;
    size_t count = 0;
    for (size_t r : rows) {
      const Value& v = table.at(r, column_);
      if (!v.is_null()) {
        sum += v.ToNumberOr(0.0);
        ++count;
      }
    }
    double mean = count > 0 ? sum / static_cast<double>(count) : 0.0;

    // Corpus = every live row (ascending ids), token-id lists from the
    // shared cache (only rows without a cached list are tokenized).
    tokens_->Ensure(table, rows, env);
    std::vector<const TokenIdList*> corpus_tokens;
    corpus_tokens.reserve(rows.size());
    for (size_t r : rows) corpus_tokens.push_back(&tokens_->tokens(r));

    // Ask for extra neighbors; some may miss the value themselves.
    std::vector<std::vector<Neighbor>> neighbor_lists = knn_.BatchQuery(
        missing_rows, options_.k * 3, rows, corpus_tokens, env);

    questions_.reserve(missing_rows.size());
    for (size_t qi = 0; qi < missing_rows.size(); ++qi) {
      double nsum = 0.0;
      size_t nused = 0;
      for (const Neighbor& nb : neighbor_lists[qi]) {
        const Value& v = table.at(nb.index, column_);
        if (v.is_null()) continue;
        nsum += v.ToNumberOr(0.0);
        if (++nused == options_.k) break;
      }
      MQuestion q;
      q.row = missing_rows[qi];
      q.column = column_;
      q.suggested = nused > 0 ? nsum / static_cast<double>(nused) : mean;
      questions_.push_back(q);
    }
  }

  // Delta vs the previous scan (field-wise; rows ascend in both lists).
  auto same = [](const MQuestion& a, const MQuestion& b) {
    return a.row == b.row && a.column == b.column &&
           a.suggested == b.suggested;
  };
  added_.clear();
  retracted_.clear();
  for (const MQuestion& q : questions_) {
    bool found = false;
    for (const MQuestion& p : previous) {
      if (same(p, q)) {
        found = true;
        break;
      }
    }
    if (!found) added_.push_back(q);
  }
  for (const MQuestion& p : previous) {
    bool found = false;
    for (const MQuestion& q : questions_) {
      if (same(p, q)) {
        found = true;
        break;
      }
    }
    if (!found) retracted_.push_back(p);
  }
}

}  // namespace visclean
