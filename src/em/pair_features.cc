#include "em/pair_features.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_set>

#include "common/status.h"
#include "common/thread_pool.h"
#include "text/similarity.h"
#include "text/tokenize.h"

namespace visclean {

namespace {

constexpr size_t kTextFeatures = 4;
constexpr size_t kNumericFeatures = 2;

// Appends one column's feature block for the pair of values (va, vb);
// `text` appends the four text features when both are present.
template <typename TextFeatures>
void AppendColumnFeatures(ColumnType type, const Value& va, const Value& vb,
                          std::vector<double>* out, TextFeatures&& text) {
  size_t width =
      type == ColumnType::kNumeric ? kNumericFeatures : kTextFeatures;
  if (va.is_null() && vb.is_null()) {
    out->insert(out->end(), width, 1.0);
    return;
  }
  if (va.is_null() || vb.is_null()) {
    out->insert(out->end(), width, 0.5);
    return;
  }
  if (type == ColumnType::kNumeric) {
    double x = va.ToNumberOr(0.0);
    double y = vb.ToNumberOr(0.0);
    out->push_back(x == y ? 1.0 : 0.0);
    double denom = std::max({std::fabs(x), std::fabs(y), 1.0});
    out->push_back(1.0 - std::min(1.0, std::fabs(x - y) / denom));
  } else {
    text();
  }
}

// What the text features read of one non-null cell, tokenized once.
struct CellSignature {
  std::string text;   ///< the display string
  TokenIdList words;  ///< ids of its word-token set
  TokenIdList grams;  ///< ids of its 3-gram set
};

// The signatures of the rows one Batch call's misses touch; word ids come
// from a dictionary that lives as long as the signatures. A column that is
// numeric, or null in that row, keeps an empty signature.
class RowSignatures {
 public:
  RowSignatures(const Table& table, const std::vector<size_t>& rows)
      : columns_(table.schema().num_columns()),
        slot_(table.num_rows(), SIZE_MAX),
        cells_(rows.size() * columns_) {
    const Schema& schema = table.schema();
    TokenInterner words;
    for (size_t i = 0; i < rows.size(); ++i) {
      slot_[rows[i]] = i;
      for (size_t c = 0; c < columns_; ++c) {
        const Value& v = table.at(rows[i], c);
        if (schema.column(c).type == ColumnType::kNumeric || v.is_null()) {
          continue;
        }
        CellSignature& cell = cells_[i * columns_ + c];
        cell.text = v.ToDisplayString();
        cell.words = words.WordIds(cell.text);
        cell.grams = QGramIds(cell.text);
      }
    }
  }

  const CellSignature& cell(size_t row, size_t column) const {
    return cells_[slot_[row] * columns_ + column];
  }

 private:
  size_t columns_;
  std::vector<size_t> slot_;  ///< row id -> signature slot; SIZE_MAX if none
  std::vector<CellSignature> cells_;
};

// PairFeatures over prebuilt signatures: the same numbers, bit for bit —
// the id Jaccards count exactly what the set Jaccards count, and the edit
// measures see the same display strings.
std::vector<double> SignatureFeatures(const Table& table,
                                      const RowSignatures& signatures,
                                      size_t a, size_t b) {
  const Schema& schema = table.schema();
  std::vector<double> features;
  features.reserve(PairFeatureArity(schema));
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    AppendColumnFeatures(
        schema.column(c).type, table.at(a, c), table.at(b, c), &features,
        [&] {
          const CellSignature& sa = signatures.cell(a, c);
          const CellSignature& sb = signatures.cell(b, c);
          features.push_back(JaccardSimilarity(sa.words, sb.words));
          features.push_back(JaccardSimilarity(sa.grams, sb.grams));
          features.push_back(LevenshteinSimilarity(sa.text, sb.text));
          features.push_back(JaroWinklerSimilarity(sa.text, sb.text));
        });
  }
  return features;
}

}  // namespace

size_t PairFeatureArity(const Schema& schema) {
  size_t arity = 0;
  for (const ColumnSpec& col : schema.columns()) {
    arity += col.type == ColumnType::kNumeric ? kNumericFeatures : kTextFeatures;
  }
  return arity;
}

std::vector<double> PairFeatures(const Table& table, size_t a, size_t b) {
  const Schema& schema = table.schema();
  std::vector<double> features;
  features.reserve(PairFeatureArity(schema));
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const Value& va = table.at(a, c);
    const Value& vb = table.at(b, c);
    AppendColumnFeatures(schema.column(c).type, va, vb, &features, [&] {
      std::string sa = va.ToDisplayString();
      std::string sb = vb.ToDisplayString();
      features.push_back(WordJaccard(sa, sb));
      features.push_back(QGramJaccard(sa, sb, 3));
      features.push_back(LevenshteinSimilarity(sa, sb));
      features.push_back(JaroWinklerSimilarity(sa, sb));
    });
  }
  return features;
}

uint64_t PairFeatureCache::KeyOf(size_t a, size_t b) {
  VC_CHECK(a < (uint64_t{1} << 32) && b < (uint64_t{1} << 32),
           "PairFeatureCache: row id exceeds 32 bits");
  size_t lo = std::min(a, b), hi = std::max(a, b);
  return (static_cast<uint64_t>(lo) << 32) | static_cast<uint64_t>(hi);
}

void PairFeatureCache::Clear() { cache_.clear(); }

void PairFeatureCache::Invalidate(const std::vector<size_t>& dirty_rows) {
  if (dirty_rows.empty() || cache_.empty()) return;
  std::unordered_set<size_t> dirty(dirty_rows.begin(), dirty_rows.end());
  for (auto it = cache_.begin(); it != cache_.end();) {
    size_t a = static_cast<size_t>(it->first >> 32);
    size_t b = static_cast<size_t>(it->first & 0xffffffffu);
    if (dirty.count(a) > 0 || dirty.count(b) > 0) {
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<const std::vector<double>*> PairFeatureCache::Batch(
    const Table& table, const std::vector<std::pair<size_t, size_t>>& pairs,
    const KernelEnv& env) {
  std::vector<const std::vector<double>*> out(pairs.size(), nullptr);
  std::vector<size_t> miss_idx;
  for (size_t i = 0; i < pairs.size(); ++i) {
    auto it = cache_.find(KeyOf(pairs[i].first, pairs[i].second));
    if (it != cache_.end()) {
      out[i] = &it->second;
      ++hits_;
    } else {
      miss_idx.push_back(i);
    }
  }
  if (miss_idx.empty()) return out;
  misses_ += miss_idx.size();

  // Tokenize each row the misses touch once, not once per pair it sits in.
  std::vector<size_t> rows;
  rows.reserve(2 * miss_idx.size());
  for (size_t i : miss_idx) {
    rows.push_back(pairs[i].first);
    rows.push_back(pairs[i].second);
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  const RowSignatures signatures(table, rows);

  // Miss extraction is a pure chunk kernel (indexed writes into `computed`,
  // read-only signatures), so any partition — pool chunks or a
  // cross-session batch — merges to the same bytes.
  std::vector<std::vector<double>> computed(miss_idx.size());
  RunKernel(KernelKind::kPairFeatures, env, miss_idx.size(),
            /*min_parallel=*/2, [&](size_t begin, size_t end) {
              for (size_t j = begin; j < end; ++j) {
                const auto& [a, b] = pairs[miss_idx[j]];
                computed[j] = SignatureFeatures(table, signatures, a, b);
              }
            });
  for (size_t j = 0; j < miss_idx.size(); ++j) {
    const auto& [a, b] = pairs[miss_idx[j]];
    auto it = cache_.emplace(KeyOf(a, b), std::move(computed[j])).first;
    out[miss_idx[j]] = &it->second;
  }
  return out;
}

}  // namespace visclean
