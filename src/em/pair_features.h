// Feature vectors for tuple pairs: the input representation of the EM
// random forest. One block of similarity features per schema column,
// Magellan-style.
#ifndef VISCLEAN_EM_PAIR_FEATURES_H_
#define VISCLEAN_EM_PAIR_FEATURES_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/kernel_scheduler.h"
#include "data/table.h"

namespace visclean {

/// \brief Computes the feature vector for tuple pair (a, b) of `table`.
///
/// Per column:
///  * categorical/text: word-Jaccard, 3-gram Jaccard, Levenshtein sim,
///    Jaro-Winkler;
///  * numeric: exact-equality flag and relative difference
///    1 - |x-y| / max(|x|, |y|, 1);
///  * null handling: both-null -> 1 (agreeing absence), one-null -> 0.5
///    (uninformative) for every feature of the column.
///
/// The layout is fixed per schema, so vectors from the same table are
/// directly comparable.
std::vector<double> PairFeatures(const Table& table, size_t a, size_t b);

/// Number of features PairFeatures produces for this schema.
size_t PairFeatureArity(const Schema& schema);

/// \brief Cross-iteration memo of PairFeatures results keyed by (a, b).
///
/// Feature vectors are pure functions of the two rows' values, so they stay
/// valid across iterations until either row mutates. Retrain/ScoreAll fetch
/// whole candidate lists through Batch; only the misses are computed (fanned
/// over the pool, merged by index), so per-iteration feature-extraction cost
/// scales with the dirty rows, not the candidate count. A Batch call first
/// tokenizes each row its misses touch once — display strings, word-token
/// ids, 3-gram ids — and drops those signatures on return, so nothing but
/// the vectors outlives the call. Keys require row ids below 2^32 (checked).
class PairFeatureCache {
 public:
  /// Drops everything.
  void Clear();

  /// Drops every cached vector that involves one of the dirty rows.
  void Invalidate(const std::vector<size_t>& dirty_rows);

  /// Feature vectors for `pairs`, in order. Returned pointers stay valid
  /// until the next Clear/Invalidate (unordered_map references are stable
  /// across inserts). Miss extraction routes through `env` as a
  /// KernelKind::kPairFeatures kernel: cross-session batcher when one is
  /// attached, else the pool, else inline — bit-identical in every case.
  std::vector<const std::vector<double>*> Batch(
      const Table& table, const std::vector<std::pair<size_t, size_t>>& pairs,
      const KernelEnv& env);

  /// Pool-only convenience overload (tests, standalone callers).
  std::vector<const std::vector<double>*> Batch(
      const Table& table, const std::vector<std::pair<size_t, size_t>>& pairs,
      ThreadPool* pool) {
    return Batch(table, pairs, KernelEnv{pool, nullptr, nullptr});
  }

  size_t size() const { return cache_.size(); }
  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }

 private:
  static uint64_t KeyOf(size_t a, size_t b);

  std::unordered_map<uint64_t, std::vector<double>> cache_;
  size_t hits_ = 0;
  size_t misses_ = 0;
};

}  // namespace visclean

#endif  // VISCLEAN_EM_PAIR_FEATURES_H_
