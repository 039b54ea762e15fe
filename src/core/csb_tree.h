#ifndef RAQO_CORE_CSB_TREE_H_
#define RAQO_CORE_CSB_TREE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace raqo::core {

/// A Cache Sensitive B+-Tree (CSB+-Tree, Rao & Ross [35]) keyed by double
/// with int64 payload handles. The paper proposes laying the resource-plan
/// cache out as a CSB+-Tree for larger workloads; this is that index.
/// The cache no longer uses it (EXPERIMENTS.md, "Cache index layouts"),
/// and ROADMAP.md's prune item deletes it with its tests.
///
/// The defining property: all children of an internal node live in one
/// contiguous *node group*, so internal nodes store a single child
/// pointer (the group's base index) instead of one pointer per child.
/// This halves pointer overhead and keeps sibling nodes on adjacent cache
/// lines. The flip side — faithfully reproduced here — is that inserting
/// into a full node re-allocates the whole node group.
///
/// Duplicate keys are not stored: inserting an existing key overwrites
/// its value (the cache semantics the index serves).
class CsbTree {
 public:
  /// Keys per node, sized so one node (count + keys + payloads) spans a
  /// small fixed number of cache lines.
  static constexpr int kNodeKeys = 14;

  CsbTree();

  CsbTree(const CsbTree&) = delete;
  CsbTree& operator=(const CsbTree&) = delete;
  CsbTree(CsbTree&&) = default;
  CsbTree& operator=(CsbTree&&) = default;

  /// Inserts or overwrites. Returns true when a new key was inserted,
  /// false when an existing key's value was replaced.
  bool Insert(double key, int64_t value);

  /// Exact-match lookup.
  std::optional<int64_t> Find(double key) const;

  /// Visits all entries with key in [lo, hi], in ascending key order.
  void Scan(double lo, double hi,
            const std::function<void(double, int64_t)>& fn) const;

  /// Number of stored keys.
  size_t size() const { return size_; }

  /// Tree height in levels (1 = a single leaf).
  int height() const { return height_; }

  /// Verifies structural invariants (ordering, separator correctness,
  /// group contiguity); used by the test suite.
  Status CheckInvariants() const;

 private:
  struct Node {
    uint16_t count = 0;
    uint16_t is_leaf = 1;
    /// Internal nodes: pool index of the first child in this node's
    /// contiguous child group (the group has count + 1 nodes).
    /// Leaves: pool index of the next leaf (-1 at the end).
    int32_t first_child = -1;
    double keys[kNodeKeys];
    int64_t values[kNodeKeys];
  };

  /// Allocates a contiguous group of `n` nodes; returns the base index.
  int32_t AllocateGroup(int n);

  /// Finds the leaf that should hold `key`; fills `path` with
  /// (node index, child position) pairs from the root down (excluding
  /// the leaf itself).
  int32_t DescendToLeaf(double key,
                        std::vector<std::pair<int32_t, int>>* path) const;

  /// Handles a split that propagates from child level `level` upward.
  /// `path` is the descent path; `new_key` separates the old child from
  /// its new right sibling, which must be adjacent in the (re-allocated)
  /// group.
  void InsertIntoParent(std::vector<std::pair<int32_t, int>>& path,
                        size_t level, double new_key);

  Status CheckNode(int32_t index, double lo, double hi, int depth) const;

  std::vector<Node> pool_;
  int32_t root_ = -1;
  size_t size_ = 0;
  int height_ = 1;
};

}  // namespace raqo::core

#endif  // RAQO_CORE_CSB_TREE_H_
