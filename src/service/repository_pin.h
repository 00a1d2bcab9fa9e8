// RepositoryPin: the "one repository generation" handle, at any shard count.
//
// Callers that format results, enumerate trees, or record provenance used
// to hold a shared_ptr<const RepositorySnapshot> — which ties them to one
// shard. A pin is the part of that contract every shard count can honor:
// an immutable forest view plus the generation / fingerprint identity,
// alive for as long as the pin is held. A K = 1 service::Matcher's pin
// *is* its RepositorySnapshot; at K > 1 the pin is a federated view over
// the K shard snapshots (the forest is materialized from shared tree
// payloads, so holding it costs pointers, not copies).
#ifndef XSM_SERVICE_REPOSITORY_PIN_H_
#define XSM_SERVICE_REPOSITORY_PIN_H_

#include <cstdint>
#include <memory>

#include "schema/schema_forest.h"

namespace xsm::service {

/// Immutable, shareable view of one repository generation. Implementations
/// guarantee that everything reachable through forest() stays valid while
/// the pin is held, regardless of concurrent deltas.
class RepositoryPin {
 public:
  virtual ~RepositoryPin() = default;

  /// The pinned forest (tree payloads + sources). Never mutated.
  virtual const schema::SchemaForest& forest() const = 0;

  /// Position in the publication chain (0 before any delta).
  virtual uint64_t generation() const = 0;

  /// Content fingerprint of the pinned repository. Two pins with equal
  /// fingerprints hold equal forests, whatever their generations or shard
  /// counts — the K > 1 fingerprint composes per-tree fingerprints with
  /// the same mix as a snapshot's, so equal content always means equal
  /// fingerprints.
  virtual uint64_t fingerprint() const = 0;

  /// Content hash of one tree (independent of its TreeId).
  virtual uint64_t tree_fingerprint(schema::TreeId id) const = 0;

  size_t num_trees() const { return forest().num_trees(); }
  size_t total_nodes() const { return forest().total_nodes(); }
};

using RepositoryPinPtr = std::shared_ptr<const RepositoryPin>;

}  // namespace xsm::service

#endif  // XSM_SERVICE_REPOSITORY_PIN_H_
