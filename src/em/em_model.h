// The entity-matching model: a random forest over pair features, retrained
// as user labels accumulate (Section IV, Q_T; Fig. 6 step 6).
#ifndef VISCLEAN_EM_EM_MODEL_H_
#define VISCLEAN_EM_EM_MODEL_H_

#include <map>
#include <utility>
#include <vector>

#include "common/kernel_scheduler.h"
#include "data/table.h"
#include "em/pair_features.h"
#include "ml/random_forest.h"

namespace visclean {

/// \brief A candidate tuple pair with the model's matching probability
/// (the edge weight p^t of the ERG).
struct ScoredPair {
  size_t a = 0;
  size_t b = 0;
  double probability = 0.5;
};

/// \brief Random-forest entity matcher with incremental labeling.
///
/// Before any user labels exist the model bootstraps itself with weak
/// supervision: candidate pairs whose mean feature value is very high
/// (>= 0.9) become positive seeds and low (<= 0.35) negative seeds.
/// This mirrors how practical EM loops (Magellan-style) are warm-started,
/// and gives the active learner a meaningful uncertainty ranking in
/// iteration 1.
class EmModel {
 public:
  explicit EmModel(ForestOptions options = {}) : forest_(options) {}

  /// Records a user label for pair (a, b); `is_match` true on confirm.
  /// Re-labeling a pair overwrites the old label.
  void AddLabel(size_t a, size_t b, bool is_match);

  /// Number of user labels recorded.
  size_t num_labels() const { return labels_.size(); }

  /// Retrains the forest from weak seeds plus all user labels.
  /// `candidates` are the blocked pairs of `table`.
  ///
  /// `features` (optional) memoizes the per-pair feature extraction across
  /// iterations — the forest itself cannot be cached (its seed advances
  /// every retrain), but the feature vectors are pure in the rows. `env`
  /// routes extraction of cache misses (requires `features`) through the
  /// kernel seam with index-ordered merges. Both leave the fitted forest
  /// bit-identical to the plain call.
  void Retrain(const Table& table,
               const std::vector<std::pair<size_t, size_t>>& candidates,
               uint64_t seed, PairFeatureCache* features, const KernelEnv& env);

  /// Pool-only convenience overload (tests, standalone callers).
  void Retrain(const Table& table,
               const std::vector<std::pair<size_t, size_t>>& candidates,
               uint64_t seed, PairFeatureCache* features = nullptr,
               ThreadPool* pool = nullptr) {
    Retrain(table, candidates, seed, features,
            KernelEnv{pool, nullptr, nullptr});
  }

  /// Matching probability for a pair. User-labeled pairs return 0/1
  /// directly (labels are ground truth to the system). `features`
  /// (optional) memoizes the feature extraction exactly as in Retrain; the
  /// probability is bit-identical with or without it.
  double MatchProbability(const Table& table, size_t a, size_t b,
                          PairFeatureCache* features = nullptr) const;

  /// Matching probabilities for a span of pairs, in order: the batch
  /// counterpart of MatchProbability. Labeled pairs return 0/1; unlabeled
  /// ones go through one cached feature extraction, one contiguous
  /// row-major gather (arena-backed when `env.arena` is set), and one
  /// flat-forest PredictBatch routed through the kernel seam
  /// (KernelKind::kEmInference). Bit-identical to calling MatchProbability
  /// per pair.
  std::vector<double> MatchProbabilities(
      const Table& table, const std::vector<std::pair<size_t, size_t>>& pairs,
      PairFeatureCache* features, const KernelEnv& env) const;

  /// Scores every candidate pair. `features`/`env` as in Retrain; scores
  /// are bit-identical with or without them. The cached path is one
  /// MatchProbabilities batch; the uncached path is the serial per-pair
  /// walk and doubles as the differential reference.
  std::vector<ScoredPair> ScoreAll(
      const Table& table,
      const std::vector<std::pair<size_t, size_t>>& candidates,
      PairFeatureCache* features, const KernelEnv& env) const;

  /// Pool-only convenience overload (tests, standalone callers).
  std::vector<ScoredPair> ScoreAll(
      const Table& table,
      const std::vector<std::pair<size_t, size_t>>& candidates,
      PairFeatureCache* features = nullptr, ThreadPool* pool = nullptr) const {
    return ScoreAll(table, candidates, features,
                    KernelEnv{pool, nullptr, nullptr});
  }

  /// The user label for (a, b): 1 match, 0 non-match, -1 unlabeled.
  /// Header-inline: the generate stage calls this for every scored pair
  /// every iteration (uncertainty filtering and cluster assembly).
  int LabelOf(size_t a, size_t b) const {
    if (labels_.empty()) return -1;
    auto it = labels_.find(Key(a, b));
    if (it == labels_.end()) return -1;
    return it->second ? 1 : 0;
  }

  /// The full label ledger, keyed (min, max). Session snapshots persist
  /// this map plus the fitted forest (see forest()): Retrain keeps the
  /// previous fit when a round's training set is empty or single-class, so
  /// the forest is NOT a pure function of (table, candidates, labels, seed)
  /// and must be captured alongside the labels.
  const std::map<std::pair<size_t, size_t>, bool>& labels() const {
    return labels_;
  }

  /// Replaces the label ledger (snapshot restore). Pair with RestoreForest
  /// to reinstate the latched fit.
  void RestoreLabels(std::map<std::pair<size_t, size_t>, bool> labels) {
    labels_ = std::move(labels);
  }

  /// The fitted forest (read access for snapshot capture).
  const RandomForest& forest() const { return forest_; }

  /// Reinstates a fitted forest from snapshot trees, leaving the
  /// hyperparameters (which come from SessionOptions) untouched.
  void RestoreForest(std::vector<DecisionTree> trees) {
    forest_.RestoreTrees(std::move(trees));
  }

 private:
  static std::pair<size_t, size_t> Key(size_t a, size_t b) {
    return {std::min(a, b), std::max(a, b)};
  }

  RandomForest forest_;
  std::map<std::pair<size_t, size_t>, bool> labels_;
};

}  // namespace visclean

#endif  // VISCLEAN_EM_EM_MODEL_H_
