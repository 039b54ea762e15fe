#ifndef RAQO_RULES_DECISION_TREE_H_
#define RAQO_RULES_DECISION_TREE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "rules/dataset.h"

namespace raqo::rules {

/// Learning parameters of the CART classifier.
struct TreeParams {
  int max_depth = 12;
  int min_samples_split = 2;
  int min_samples_leaf = 1;
  /// A split must reduce weighted gini impurity by at least this much.
  double min_impurity_decrease = 0.0;
};

/// A CART decision-tree classifier with gini impurity over numeric
/// features — the same learner (scikit-learn's DecisionTreeClassifier)
/// the paper used to build the RAQO trees of Figure 11, reimplemented in
/// C++. Splits are of the form `feature <= threshold` with the True
/// branch on the left, matching scikit-learn's rendering.
class DecisionTree {
 public:
  /// One tree node, exposed for tests and for rendering.
  struct Node {
    /// Split feature index, or -1 for leaves.
    int feature = -1;
    double threshold = 0.0;
    /// Child node indices; -1 for leaves.
    int left = -1;
    int right = -1;
    /// Per-class sample counts reaching this node (the `value=[...]` of
    /// the paper's figures).
    std::vector<int> class_counts;
    double gini = 0.0;
    int samples = 0;
    /// Majority class at this node.
    int majority = 0;
    int depth = 0;

    bool is_leaf() const { return left < 0; }
  };

  /// Learns a tree from `data`. Fails on invalid datasets or empty input.
  static Result<DecisionTree> Fit(const Dataset& data,
                                  const TreeParams& params = TreeParams());

  /// Predicted class id for a feature vector.
  int Predict(const std::vector<double>& features) const;

  /// Fraction of training rows classified correctly.
  double Accuracy(const Dataset& data) const;

  /// Pessimistic error pruning (bottom-up): a subtree is replaced by a
  /// leaf when the leaf's continuity-corrected error estimate does not
  /// exceed the subtree's. Mirrors the pruning the paper points to
  /// ([34], pessimistic decision tree pruning) as the remedy should the
  /// trees grow too large. Returns the number of pruned subtrees.
  int PessimisticPrune();

  int NodeCount() const { return static_cast<int>(nodes_.size()); }
  int LeafCount() const;
  /// Maximum root-to-leaf path length in edges (the paper reports a max
  /// path length of 6 for the Hive tree and 7 for the Spark tree).
  int MaxPathLength() const;

  const std::vector<Node>& nodes() const { return nodes_; }

  /// Multi-line rendering in the style of the paper's tree figures, e.g.
  ///   Data Size (GB) <= 5.1 gini=0.5 samples=120 value=[60, 60] class=BHJ
  ///   |--True:  ...
  ///   |--False: ...
  std::string ToText() const;

 private:
  DecisionTree() = default;

  int BuildNode(const Dataset& data, const TreeParams& params,
                std::vector<int>& indices, int begin, int end, int depth);

  std::vector<Node> nodes_;
  std::vector<std::string> feature_names_;
  std::vector<std::string> class_names_;
};

}  // namespace raqo::rules

#endif  // RAQO_RULES_DECISION_TREE_H_
