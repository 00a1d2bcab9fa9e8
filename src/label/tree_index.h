// Node-labeling substrate for constant-time structural queries.
//
// The paper (§4 "Distance measure") relies on node-labeling techniques
// [Kaplan & Milo] for "low-cost computation of path lengths" — clustering
// computes tree distances in its innermost loop, and the objective function
// needs path lengths per candidate mapping. We label each tree with an Euler
// tour + sparse-table LCA structure (O(n log n) build, O(1) query) and with
// pre/post intervals for O(1) ancestor tests.
#ifndef XSM_LABEL_TREE_INDEX_H_
#define XSM_LABEL_TREE_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "schema/schema_forest.h"
#include "schema/schema_tree.h"
#include "util/wire.h"

namespace xsm::label {

/// Distance/ancestor oracle over one SchemaTree.
class TreeIndex {
 public:
  TreeIndex() = default;

  /// Builds the index; `tree` must outlive only this call (the index copies
  /// what it needs).
  static TreeIndex Build(const schema::SchemaTree& tree);

  size_t num_nodes() const { return depth_.size(); }

  /// Lowest common ancestor of u and v.
  schema::NodeId Lca(schema::NodeId u, schema::NodeId v) const;

  /// Path length (number of edges) between u and v — the paper's tree
  /// distance used both in Δpath and as the clustering distance measure.
  int Distance(schema::NodeId u, schema::NodeId v) const;

  /// True if `anc` is `desc` or an ancestor of `desc` (interval labeling).
  bool IsAncestorOrSelf(schema::NodeId anc, schema::NodeId desc) const;

  int depth(schema::NodeId n) const {
    return depth_[static_cast<size_t>(n)];
  }

  /// Length of the longest simple path in the tree. Used to derive the
  /// paper's K normalization constant ("determined using other constraints
  /// in the system, e.g., the maximum length of a path").
  int diameter() const { return diameter_; }

  /// Maximum node depth (tree height in edges).
  int height() const { return height_; }

  /// Binary serialization hook for the snapshot store: the traversal
  /// products (Euler tour, rank arrays, depth aggregates) verbatim, so a
  /// load never walks the tree again. The RMQ sparse table — a pure
  /// function of the tour — is rebuilt on load rather than stored:
  /// recomputing it is cheaper than decoding and validating it, and it is
  /// then consistent by construction.
  void SerializeTo(wire::Writer* out) const;

  /// Inverse of SerializeTo. `expected_nodes` is the size of the tree this
  /// index must label; any dimensional or range inconsistency (which would
  /// otherwise be out-of-bounds reads in Lca/Distance) fails with
  /// Corruption.
  static Result<TreeIndex> DeserializeBinary(wire::Reader* in,
                                             size_t expected_nodes);

 private:
  // Euler tour arrays.
  std::vector<int32_t> euler_;        // node at each tour position
  std::vector<int32_t> first_pos_;    // first tour position of node
  std::vector<int32_t> euler_depth_;  // depth at each tour position
  // Sparse table over euler_depth_: sparse_[k][i] = position of the minimum
  // depth in tour window [i, i + 2^k).
  std::vector<std::vector<int32_t>> sparse_;
  std::vector<int32_t> log2_;  // floor(log2(i)) lookup

  std::vector<int32_t> depth_;
  std::vector<int32_t> pre_;   // pre-order rank
  std::vector<int32_t> post_;  // post-order rank
  int diameter_ = 0;
  int height_ = 0;
};

/// Per-tree indexes for a whole forest, plus forest-level aggregates.
/// Distances across trees are "infinite": the clustering and the generator
/// never combine nodes of different trees.
///
/// Tree indexes are held as shared_ptr<const TreeIndex>, so an index built
/// incrementally for a successor forest shares the untouched trees' labeling
/// structures with its predecessor instead of rebuilding them.
class ForestIndex {
 public:
  /// How much of an incremental build was actually reused.
  struct IncrementalStats {
    size_t trees_reused = 0;   ///< TreeIndex shared from the previous index
    size_t trees_rebuilt = 0;  ///< TreeIndex::Build actually ran
  };

  ForestIndex() = default;

  static ForestIndex Build(const schema::SchemaForest& forest);

  /// Builds the index for `forest` reusing `previous` where possible:
  /// `reuse_map[t]` names the tree of the previous forest that new tree `t`
  /// is (the identical frozen payload), or -1 when `t` is new or changed
  /// and must be labeled from scratch. The result is equivalent to
  /// Build(forest); only the work differs. `stats` (may be null) reports
  /// the reuse split.
  static ForestIndex BuildIncremental(
      const schema::SchemaForest& forest, const ForestIndex& previous,
      const std::vector<schema::TreeId>& reuse_map,
      IncrementalStats* stats = nullptr);

  /// Assembles a forest index from already-built per-tree indexes (in
  /// TreeId order) without labeling anything. A K > 1 service::Matcher
  /// uses this to federate K shard indexes into one global-view index: the
  /// per-tree structures are shared, so the assembly is O(num_trees)
  /// pointer copies and the result is equivalent to Build over the
  /// concatenated forest.
  static ForestIndex FromParts(
      std::vector<std::shared_ptr<const TreeIndex>> parts);

  const TreeIndex& tree(schema::TreeId id) const {
    return *indexes_[static_cast<size_t>(id)];
  }
  /// Shared handle of one tree's index (identity across generations is
  /// observable through pointer equality).
  const std::shared_ptr<const TreeIndex>& tree_ptr(schema::TreeId id) const {
    return indexes_[static_cast<size_t>(id)];
  }
  size_t num_trees() const { return indexes_.size(); }

  /// Sentinel distance for nodes in different trees.
  static constexpr int kInfiniteDistance = 1 << 28;

  /// Tree distance if `a` and `b` are in the same tree, kInfiniteDistance
  /// otherwise.
  int Distance(schema::NodeRef a, schema::NodeRef b) const {
    if (a.tree != b.tree) return kInfiniteDistance;
    return tree(a.tree).Distance(a.node, b.node);
  }

  /// Largest diameter over all member trees.
  int max_diameter() const { return max_diameter_; }

  /// Binary serialization hooks for the snapshot store (per-tree
  /// TreeIndex::SerializeTo in TreeId order). Deserialization validates
  /// each index against the corresponding tree of `forest`.
  void SerializeTo(wire::Writer* out) const;
  static Result<ForestIndex> DeserializeBinary(
      wire::Reader* in, const schema::SchemaForest& forest);

 private:
  std::vector<std::shared_ptr<const TreeIndex>> indexes_;
  int max_diameter_ = 0;
};

}  // namespace xsm::label

#endif  // XSM_LABEL_TREE_INDEX_H_
