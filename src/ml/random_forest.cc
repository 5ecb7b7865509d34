#include "ml/random_forest.h"

#include <algorithm>
#include <utility>

#include "common/status.h"

namespace visclean {

void RandomForest::Fit(const std::vector<Example>& examples, uint64_t seed) {
  VC_CHECK(!examples.empty(), "RandomForest::Fit requires examples");
  flat_.Clear();
  Rng rng(seed);
  size_t bag_size = std::max<size_t>(
      1, static_cast<size_t>(options_.bootstrap_fraction *
                             static_cast<double>(examples.size())));
  // The bag draws and the per-tree Fit consume `rng` in exactly the order
  // the legacy tree-vector implementation did, so fitted forests (and
  // everything downstream of their predictions) are bit-identical. Each
  // bag is a list of draws into `examples`, never a copy of them.
  for (size_t t = 0; t < options_.num_trees; ++t) {
    std::vector<size_t> bag(bag_size);
    for (size_t& idx : bag) {
      idx = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(examples.size()) - 1));
    }
    DecisionTree tree;
    tree.Fit(examples, std::move(bag), options_.tree, &rng);
    flat_.AddTree(tree.nodes());
  }
}

void RandomForest::PredictBatch(const double* features, size_t num_rows,
                                size_t arity, double* out) const {
  if (flat_.empty()) {
    std::fill(out, out + num_rows, 0.5);
    return;
  }
  flat_.PredictBatch(features, num_rows, arity, out);
}

}  // namespace visclean
