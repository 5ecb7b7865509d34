#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/status.h"

namespace visclean {

namespace {

double Gini(size_t positives, size_t total) {
  if (total == 0) return 0.0;
  double p = static_cast<double>(positives) / static_cast<double>(total);
  return 2.0 * p * (1.0 - p);
}

}  // namespace

void DecisionTree::Fit(const std::vector<Example>& examples,
                       const TreeOptions& options, Rng* rng) {
  std::vector<size_t> indices(examples.size());
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  Fit(examples, std::move(indices), options, rng);
}

void DecisionTree::Fit(const std::vector<Example>& examples,
                       std::vector<size_t> indices, const TreeOptions& options,
                       Rng* rng) {
  VC_CHECK(!indices.empty(), "DecisionTree::Fit requires examples");
  nodes_.clear();
  // Build only ever reads examples[indices[i]] and permutes `indices`, so a
  // bag given by index walks exactly the values a gathered copy would.
  Build(indices, 0, indices.size(), examples, options, 0, rng);
}

int32_t DecisionTree::Build(std::vector<size_t>& indices, size_t begin,
                            size_t end, const std::vector<Example>& examples,
                            const TreeOptions& options, size_t depth,
                            Rng* rng) {
  size_t total = end - begin;
  size_t positives = 0;
  for (size_t i = begin; i < end; ++i) {
    positives += static_cast<size_t>(examples[indices[i]].label);
  }

  auto make_leaf = [&]() -> int32_t {
    Node leaf;
    leaf.positive_fraction =
        total == 0 ? 0.5 : static_cast<double>(positives) / total;
    nodes_.push_back(leaf);
    return static_cast<int32_t>(nodes_.size() - 1);
  };

  if (depth >= options.max_depth || total < options.min_samples_split ||
      positives == 0 || positives == total) {
    return make_leaf();
  }

  const size_t num_features = examples[indices[begin]].features.size();
  size_t mtry = options.max_features;
  if (mtry == 0) {
    mtry = static_cast<size_t>(std::ceil(std::sqrt(
        static_cast<double>(num_features))));
  }
  mtry = std::min(mtry, num_features);
  std::vector<size_t> candidates =
      rng->SampleWithoutReplacement(num_features, mtry);

  double parent_impurity = Gini(positives, total);
  double best_gain = 1e-12;
  int best_feature = -1;
  double best_threshold = 0.0;

  std::vector<std::pair<double, int>> column(total);
  for (size_t f : candidates) {
    for (size_t i = 0; i < total; ++i) {
      const Example& e = examples[indices[begin + i]];
      column[i] = {e.features[f], e.label};
    }
    std::sort(column.begin(), column.end());
    size_t left_pos = 0;
    for (size_t i = 0; i + 1 < total; ++i) {
      left_pos += static_cast<size_t>(column[i].second);
      if (column[i].first == column[i + 1].first) continue;  // no boundary
      size_t left_n = i + 1;
      size_t right_n = total - left_n;
      double weighted =
          (static_cast<double>(left_n) * Gini(left_pos, left_n) +
           static_cast<double>(right_n) * Gini(positives - left_pos, right_n)) /
          static_cast<double>(total);
      double gain = parent_impurity - weighted;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (column[i].first + column[i + 1].first);
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  // Partition indices in place around the chosen split.
  auto mid_it = std::stable_partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end), [&](size_t idx) {
        return examples[idx].features[static_cast<size_t>(best_feature)] <=
               best_threshold;
      });
  size_t mid = static_cast<size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) return make_leaf();  // degenerate split

  // Reserve this node's slot before recursing (children get later indices).
  nodes_.emplace_back();
  int32_t self = static_cast<int32_t>(nodes_.size() - 1);
  int32_t left = Build(indices, begin, mid, examples, options, depth + 1, rng);
  int32_t right = Build(indices, mid, end, examples, options, depth + 1, rng);
  nodes_[self].feature = best_feature;
  nodes_[self].threshold = best_threshold;
  nodes_[self].left = left;
  nodes_[self].right = right;
  return self;
}

double DecisionTree::PredictProbability(
    const std::vector<double>& features) const {
  VC_CHECK(!nodes_.empty(), "PredictProbability on unfitted tree");
  int32_t node = 0;
  while (nodes_[static_cast<size_t>(node)].feature >= 0) {
    const Node& n = nodes_[static_cast<size_t>(node)];
    node = features[static_cast<size_t>(n.feature)] <= n.threshold ? n.left
                                                                   : n.right;
  }
  return nodes_[static_cast<size_t>(node)].positive_fraction;
}

}  // namespace visclean
