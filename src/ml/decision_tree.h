// CART-style binary decision tree for classification on dense numeric
// feature vectors. Building block of the random forest the EM model uses
// (Section IV, Q_T: "we use random forests [19]").
#ifndef VISCLEAN_ML_DECISION_TREE_H_
#define VISCLEAN_ML_DECISION_TREE_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace visclean {

/// \brief A labeled training example.
struct Example {
  std::vector<double> features;
  int label = 0;  ///< 0 or 1
};

/// \brief Hyperparameters for tree induction.
struct TreeOptions {
  size_t max_depth = 8;
  size_t min_samples_split = 2;
  /// Number of feature candidates per split; 0 = sqrt(num_features)
  /// (the usual random-forest default).
  size_t max_features = 0;
};

/// \brief Binary classification tree trained by recursive Gini-impurity
/// splitting.
///
/// Leaves store the fraction of positive training examples that reached
/// them, so PredictProbability is a calibrated-ish estimate rather than a
/// hard vote.
class DecisionTree {
 public:
  struct Node {
    int feature = -1;       // -1 means leaf
    double threshold = 0.0; // go left when x[feature] <= threshold
    double positive_fraction = 0.0;  // for leaves
    int32_t left = -1;
    int32_t right = -1;
  };

  /// Fits the tree on `examples`. `rng` drives feature subsampling.
  /// Requires at least one example; all feature vectors must share arity.
  void Fit(const std::vector<Example>& examples, const TreeOptions& options,
           Rng* rng);

  /// Fits the tree on the multiset examples[indices[0]], ...,
  /// examples[indices[n-1]] — a bootstrap bag drawn by index, so no example
  /// is copied. Bit-identical to Fit on the gathered vector. Requires a
  /// nonempty `indices`.
  void Fit(const std::vector<Example>& examples, std::vector<size_t> indices,
           const TreeOptions& options, Rng* rng);

  /// P(label = 1 | features) for one instance.
  double PredictProbability(const std::vector<double>& features) const;

  /// Number of nodes (diagnostics).
  size_t num_nodes() const { return nodes_.size(); }

  /// The flat node array, root at index 0. Exposed (with RestoreNodes) so
  /// session snapshots can persist a fitted tree bit-exactly.
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Replaces the node array wholesale (snapshot restore). The caller is
  /// responsible for structural validity (child indices in range).
  void RestoreNodes(std::vector<Node> nodes) { nodes_ = std::move(nodes); }

 private:

  int32_t Build(std::vector<size_t>& indices, size_t begin, size_t end,
                const std::vector<Example>& examples,
                const TreeOptions& options, size_t depth, Rng* rng);

  std::vector<Node> nodes_;
};

}  // namespace visclean

#endif  // VISCLEAN_ML_DECISION_TREE_H_
