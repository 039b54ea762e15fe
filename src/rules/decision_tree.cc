#include "rules/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "common/logging.h"
#include "common/strings.h"

namespace raqo::rules {

namespace {

double GiniOfCounts(const std::vector<int>& counts, int total) {
  if (total == 0) return 0.0;
  double gini = 1.0;
  for (int c : counts) {
    const double p = static_cast<double>(c) / static_cast<double>(total);
    gini -= p * p;
  }
  return gini;
}

struct SplitChoice {
  int feature = -1;
  double threshold = 0.0;
  double impurity_decrease = -1.0;
};

}  // namespace

Result<DecisionTree> DecisionTree::Fit(const Dataset& data,
                                       const TreeParams& params) {
  RAQO_RETURN_IF_ERROR(data.Validate());
  if (data.rows.empty()) {
    return Status::InvalidArgument("cannot fit a tree on an empty dataset");
  }
  if (params.max_depth < 0 || params.min_samples_leaf < 1 ||
      params.min_samples_split < 2) {
    return Status::InvalidArgument("invalid tree parameters");
  }
  DecisionTree tree;
  tree.feature_names_ = data.feature_names;
  tree.class_names_ = data.class_names;
  std::vector<int> indices(data.rows.size());
  std::iota(indices.begin(), indices.end(), 0);
  tree.BuildNode(data, params, indices, 0,
                 static_cast<int>(indices.size()), 0);
  return tree;
}

int DecisionTree::BuildNode(const Dataset& data, const TreeParams& params,
                            std::vector<int>& indices, int begin, int end,
                            int depth) {
  const int n = end - begin;
  RAQO_CHECK(n > 0) << "BuildNode on an empty range";

  Node node;
  node.depth = depth;
  node.samples = n;
  node.class_counts.assign(data.num_classes(), 0);
  for (int i = begin; i < end; ++i) {
    node.class_counts[static_cast<size_t>(
        data.labels[static_cast<size_t>(indices[static_cast<size_t>(i)])])]++;
  }
  node.gini = GiniOfCounts(node.class_counts, n);
  node.majority = static_cast<int>(
      std::max_element(node.class_counts.begin(), node.class_counts.end()) -
      node.class_counts.begin());

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.push_back(node);

  // Stop criteria: pure node, depth limit, or too few samples.
  if (node.gini == 0.0 || depth >= params.max_depth ||
      n < params.min_samples_split) {
    return node_index;
  }

  // Find the best gini split across all features.
  SplitChoice best;
  std::vector<std::pair<double, int>> values(static_cast<size_t>(n));
  for (size_t f = 0; f < data.num_features(); ++f) {
    for (int i = 0; i < n; ++i) {
      const int row = indices[static_cast<size_t>(begin + i)];
      values[static_cast<size_t>(i)] = {
          data.rows[static_cast<size_t>(row)][f],
          data.labels[static_cast<size_t>(row)]};
    }
    std::sort(values.begin(), values.end());

    std::vector<int> left_counts(data.num_classes(), 0);
    std::vector<int> right_counts = node.class_counts;
    for (int i = 0; i < n - 1; ++i) {
      const int label = values[static_cast<size_t>(i)].second;
      left_counts[static_cast<size_t>(label)]++;
      right_counts[static_cast<size_t>(label)]--;
      // Can only split between distinct feature values.
      if (values[static_cast<size_t>(i)].first ==
          values[static_cast<size_t>(i + 1)].first) {
        continue;
      }
      const int nl = i + 1;
      const int nr = n - nl;
      if (nl < params.min_samples_leaf || nr < params.min_samples_leaf) {
        continue;
      }
      const double weighted =
          (static_cast<double>(nl) * GiniOfCounts(left_counts, nl) +
           static_cast<double>(nr) * GiniOfCounts(right_counts, nr)) /
          static_cast<double>(n);
      const double decrease = node.gini - weighted;
      if (decrease > best.impurity_decrease + 1e-12) {
        best.impurity_decrease = decrease;
        best.feature = static_cast<int>(f);
        best.threshold = (values[static_cast<size_t>(i)].first +
                          values[static_cast<size_t>(i + 1)].first) /
                         2.0;
      }
    }
  }

  if (best.feature < 0 ||
      best.impurity_decrease < params.min_impurity_decrease) {
    return node_index;  // no usable split; stay a leaf
  }

  // Partition the index range: rows with feature <= threshold go left.
  const auto mid_it = std::stable_partition(
      indices.begin() + begin, indices.begin() + end, [&](int row) {
        return data.rows[static_cast<size_t>(row)]
                   [static_cast<size_t>(best.feature)] <= best.threshold;
      });
  const int mid = static_cast<int>(mid_it - indices.begin());
  RAQO_CHECK(mid > begin && mid < end) << "degenerate partition";

  nodes_[static_cast<size_t>(node_index)].feature = best.feature;
  nodes_[static_cast<size_t>(node_index)].threshold = best.threshold;
  const int left = BuildNode(data, params, indices, begin, mid, depth + 1);
  nodes_[static_cast<size_t>(node_index)].left = left;
  const int right = BuildNode(data, params, indices, mid, end, depth + 1);
  nodes_[static_cast<size_t>(node_index)].right = right;
  return node_index;
}

int DecisionTree::Predict(const std::vector<double>& features) const {
  RAQO_CHECK(features.size() == feature_names_.size())
      << "Predict feature arity mismatch";
  RAQO_CHECK(!nodes_.empty()) << "Predict on an unfitted tree";
  int idx = 0;
  while (!nodes_[static_cast<size_t>(idx)].is_leaf()) {
    const Node& node = nodes_[static_cast<size_t>(idx)];
    idx = features[static_cast<size_t>(node.feature)] <= node.threshold
              ? node.left
              : node.right;
  }
  return nodes_[static_cast<size_t>(idx)].majority;
}

double DecisionTree::Accuracy(const Dataset& data) const {
  RAQO_CHECK(!data.rows.empty());
  int correct = 0;
  for (size_t i = 0; i < data.rows.size(); ++i) {
    if (Predict(data.rows[i]) == data.labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.rows.size());
}

int DecisionTree::PessimisticPrune() {
  if (nodes_.empty()) return 0;
  int pruned = 0;

  // Returns the pessimistic (continuity-corrected) error count of the
  // subtree rooted at idx, pruning bottom-up as it goes.
  std::function<double(int)> visit = [&](int idx) -> double {
    Node& node = nodes_[static_cast<size_t>(idx)];
    const double leaf_errors =
        static_cast<double>(node.samples -
                            node.class_counts[static_cast<size_t>(
                                node.majority)]) +
        0.5;
    if (node.is_leaf()) return leaf_errors;
    const double subtree_errors = visit(node.left) + visit(node.right);
    if (leaf_errors <= subtree_errors) {
      node.left = -1;
      node.right = -1;
      node.feature = -1;
      ++pruned;
      return leaf_errors;
    }
    return subtree_errors;
  };
  visit(0);

  // Compact away orphaned nodes so NodeCount/iteration stay meaningful.
  std::vector<Node> compacted;
  compacted.reserve(nodes_.size());
  std::function<int(int)> copy = [&](int idx) -> int {
    const Node& src = nodes_[static_cast<size_t>(idx)];
    const int new_index = static_cast<int>(compacted.size());
    compacted.push_back(src);
    if (!src.is_leaf()) {
      const int l = copy(src.left);
      const int r = copy(src.right);
      compacted[static_cast<size_t>(new_index)].left = l;
      compacted[static_cast<size_t>(new_index)].right = r;
    }
    return new_index;
  };
  copy(0);
  nodes_ = std::move(compacted);
  return pruned;
}

int DecisionTree::LeafCount() const {
  int leaves = 0;
  for (const Node& n : nodes_) {
    if (n.is_leaf()) ++leaves;
  }
  return leaves;
}

int DecisionTree::MaxPathLength() const {
  if (nodes_.empty()) return 0;
  std::function<int(int)> depth_of = [&](int idx) -> int {
    const Node& node = nodes_[static_cast<size_t>(idx)];
    if (node.is_leaf()) return 0;
    return 1 + std::max(depth_of(node.left), depth_of(node.right));
  };
  return depth_of(0);
}

std::string DecisionTree::ToText() const {
  if (nodes_.empty()) return "(unfitted tree)";
  std::string out;
  std::function<void(int, const std::string&)> render =
      [&](int idx, const std::string& prefix) {
        const Node& node = nodes_[static_cast<size_t>(idx)];
        std::vector<std::string> counts;
        for (int c : node.class_counts) counts.push_back(std::to_string(c));
        std::string line;
        if (!node.is_leaf()) {
          line += feature_names_[static_cast<size_t>(node.feature)] +
                  StrPrintf(" <= %.4g  ", node.threshold);
        }
        line += StrPrintf("gini=%.4g samples=%d value=[%s] class=%s",
                          node.gini, node.samples,
                          JoinStrings(counts, ", ").c_str(),
                          class_names_[static_cast<size_t>(node.majority)]
                              .c_str());
        out += prefix + line + "\n";
        if (!node.is_leaf()) {
          render(node.left, prefix + "|--T: ");
          render(node.right, prefix + "|--F: ");
        }
      };
  render(0, "");
  return out;
}

}  // namespace raqo::rules
