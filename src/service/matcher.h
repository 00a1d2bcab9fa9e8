// Matcher: the serving backend. Where core::Bellflower solves one matching
// problem, the Matcher executes *traffic*: single queries, batches and async
// submissions run concurrently on a fixed thread pool against an immutable
// repository generation, and the expensive preprocessing (element matching
// + clustering) is amortized across queries through a ClusterIndexCache —
// reclustering with the same (personal schema, clustering parameters) key
// happens at most once per repository content.
//
//   auto matcher = service::Matcher::Create(std::move(forest));
//   Result<MatchOutcome> out = (*matcher)->Run(request);          // terminal
//   MatchHandle h = (*matcher)->Submit((*matcher)->Pin(), request); // async
//   h.Cancel();                                       // cooperative stop
//   (*matcher)->RunOn(pin, request, control, &observer);  // streaming
//   BatchMatchResult batch = (*matcher)->RunBatch(requests);  // one pin
//
// Every call runs against an explicit RepositoryPin, so the caller and the
// engine provably see the same repository generation. ApplyDelta publishes
// the next generation atomically; a query finishes against the pin it
// started with, and cluster caches are namespaced by content fingerprint,
// so a stale cluster state can never serve a changed repository.
//
// Shards. The repository may be partitioned into K >= 1 shards
// (MatchServiceOptions::shards), each its own RepositorySnapshot chain. The
// results are exact at every K — byte-identical mappings, ranks and scores:
//   - The shard plan is a contiguous cut of the TreeId space
//     (shard/shard_plan.h), so concatenating per-shard element-matching
//     results in shard order, each shard's tree ids offset by its first
//     global tree, reproduces the global NodeRef-sorted mapping-element
//     sets bit for bit (element matching is per (personal node, repository
//     node), and clusters never span trees).
//   - Clustering runs once, globally, over the merged matching
//     (Bellflower::ClusterFromMatching against a global view that shares
//     every tree payload and TreeIndex with the shards), because k-means
//     has global couplings: MEmin seeding, convergence, the RNG.
//   - Generation scatters per owning shard through MatchWithState's
//     cluster_subset against the shared global state: disjoint subsets emit
//     exactly the mappings of one unrestricted run, and the final
//     sort(MappingOrder) + top-N cut is the engine's own reduction.
//     Streaming runs and configurations whose adaptive state couples
//     clusters (adaptive top-N with partial mappings, the pre-clustering
//     structural baseline) generate unscattered on the global view.
// K changes nothing else. At K = 1 the pin is the RepositorySnapshot
// itself, cluster states come from snapshot->matcher().BuildClusterState,
// no fan-out pool or per-shard cache exists, and SaveSnapshot writes one
// snapshot file. At K > 1 SaveSnapshot writes K shard files
// (`path + ".shard<i>"`) and then a manifest at `path`, the commit point;
// AttachWal journals per shard under `wal_path + ".shard<i>"`; ApplyDelta
// routes ops to owning shards (adds go to the last) and rebalances when the
// node imbalance exceeds kRebalanceThreshold.
#ifndef XSM_SERVICE_MATCHER_H_
#define XSM_SERVICE_MATCHER_H_

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/bellflower.h"
#include "core/execution_control.h"
#include "core/match_observer.h"
#include "live/repository_delta.h"
#include "live/repository_manager.h"
#include "obs/metrics.h"
#include "schema/schema_forest.h"
#include "schema/schema_tree.h"
#include "service/cluster_index_cache.h"
#include "service/repository_pin.h"
#include "service/repository_snapshot.h"
#include "store/snapshot_store.h"
#include "util/io.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace xsm::service {

/// One unit of service work: a personal schema plus the matching knobs.
struct MatchRequest {
  /// Stable identity of the request. Labels results and — for randomized
  /// clustering initializations — seeds the per-query RNG, so re-running a
  /// request with the same id reproduces its result exactly regardless of
  /// concurrency (see MatchServiceOptions::derive_seeds).
  std::string id;
  schema::SchemaTree personal;
  core::MatchOptions options;
};

/// Validated construction of a MatchRequest: setters collect the knobs
/// every serving layer sets, and Build() runs the complete validation
/// once, up front. A request that Build() returns is accepted by Matcher.
class MatchRequestBuilder {
 public:
  MatchRequestBuilder& id(std::string id) {
    request_.id = std::move(id);
    return *this;
  }
  MatchRequestBuilder& personal(schema::SchemaTree personal) {
    request_.personal = std::move(personal);
    return *this;
  }
  /// Adopts a full options block (defaults for a serving layer), on top of
  /// which the knob setters below apply.
  MatchRequestBuilder& options(const core::MatchOptions& options) {
    request_.options = options;
    return *this;
  }
  MatchRequestBuilder& delta(double delta) {
    request_.options.delta = delta;
    return *this;
  }
  MatchRequestBuilder& top_n(size_t top_n) {
    request_.options.top_n = top_n;
    return *this;
  }
  MatchRequestBuilder& threshold(double threshold) {
    request_.options.element.threshold = threshold;
    return *this;
  }
  MatchRequestBuilder& alpha(double alpha) {
    request_.options.objective.alpha = alpha;
    return *this;
  }
  MatchRequestBuilder& clustering(core::ClusteringMode mode) {
    request_.options.clustering = mode;
    return *this;
  }
  MatchRequestBuilder& join_reclustering(bool enabled) {
    request_.options.kmeans.join_reclustering = enabled;
    return *this;
  }
  MatchRequestBuilder& include_partial_mappings(bool enabled) {
    request_.options.include_partial_mappings = enabled;
    return *this;
  }

  /// Access to the request under construction (for knobs without setters).
  MatchRequest& request() { return request_; }

  /// Validates every field the Matcher would otherwise reject mid-flight:
  /// non-empty well-formed personal schema, δ and element threshold in
  /// [0,1], objective and k-means parameters. Returns the finished request
  /// by value; the builder may be reused afterwards.
  Result<MatchRequest> Build() const;

 private:
  MatchRequest request_;
};

/// Base seed mixed with request ids by SeedForQuery (see derive_seeds).
inline constexpr uint64_t kQuerySeedBase = 42;

struct MatchServiceOptions {
  /// Shards Create partitions a forest into (K >= 1). WarmStart and Recover
  /// take K from the file they boot; the constructors adopting one
  /// snapshot or manager serve K = 1. options().shards reports the K in
  /// use.
  size_t shards = 1;
  /// Worker threads executing Submit / RunBatch work; 0 means
  /// ThreadPool::DefaultThreadCount().
  size_t num_threads = 0;
  /// Worker threads for the element-matching stage of cluster-state builds
  /// (dictionary shards; see match::ElementMatchingOptions::pool). A
  /// dedicated pool, separate from `num_threads`: queries executing on the
  /// main pool fan their matching out here, so they can never deadlock
  /// waiting on their own workers. 0 scores serially on the query's thread
  /// — the right default when the main pool already saturates the machine.
  size_t matching_threads = 0;
  /// Capacity of each cluster-state cache namespace in entries (distinct
  /// (personal schema, clustering options) keys); 0 disables caching.
  size_t cluster_cache_capacity = 64;
  /// Cluster caches are namespaced by snapshot fingerprint (repository
  /// content), so ApplyDelta can never let a stale cluster state serve a
  /// changed repository. This many *non-current* fingerprints' caches are
  /// retained alongside the current one: queries pinned to a recent
  /// generation stay warm across small deltas, and a delta that restores
  /// earlier content (equal fingerprint) gets its warm cache back.
  size_t cache_retained_generations = 1;
  /// When a request's clustering consumes randomness (CentroidInit::kRandom
  /// / kFarthestFirst), replace its k-means seed with
  /// SeedForQuery(kQuerySeedBase, request.id) so results are a pure
  /// function of the request, not of thread interleaving. The default
  /// kMinSet initialization is deterministic and ignores the seed, so
  /// those requests share cache entries across ids.
  bool derive_seeds = true;
  /// Per-query wall-clock deadline in seconds, applied to every request
  /// whose ExecutionControl carries no deadline of its own; 0 disables. The
  /// clock starts when the request is submitted (Submit) or executed
  /// (Run / RunBatch members), so pool queue wait counts against it. An
  /// expired request returns the mappings found so far with
  /// MatchResult::execution == kDeadlineExceeded.
  double default_deadline_seconds = 0;
  /// Registry this backend's metric series live in — shared across
  /// components (the HTTP front-end passes one registry to every tenant's
  /// backend) so one `/metrics` scrape covers the process. nullptr: the
  /// backend creates a private registry (metrics() exposes it either way).
  obs::MetricsRegistry* metrics = nullptr;
  /// Value of the `tenant` label on this backend's series; empty emits
  /// unlabeled series (single-tenant processes).
  std::string metrics_tenant;
  /// false disables the per-query instrumentation added beyond the
  /// counters — latency histogram, slow-query accounting — giving
  /// benchmarks an uninstrumented baseline to measure overhead against.
  bool enable_metrics = true;
  /// Queries slower than this many wall-clock milliseconds count into
  /// xsm_slow_queries_total, and serving layers log them (ServeSession
  /// emits a "slow_query" NDJSON event). 0 disables.
  double slow_query_ms = 0;
};

/// Result of one RunBatch call: the per-request results in input order plus
/// the provenance of the pin the whole batch ran against. Callers recording
/// where results came from (integration provenance) read the
/// generation/fingerprint instead of racing CurrentGeneration() against
/// concurrent deltas.
struct BatchMatchResult {
  /// Generation number of the pin that served every batch member.
  uint64_t generation = 0;
  /// Content fingerprint of that pin.
  uint64_t fingerprint = 0;
  /// Per-request results, in input order.
  std::vector<Result<core::MatchResult>> results;
};

/// Terminal result of one Run call: the engine result plus the provenance
/// of the repository content that produced it.
struct MatchOutcome {
  core::MatchResult result;
  uint64_t generation = 0;
  uint64_t fingerprint = 0;
};

struct ServiceStats {
  uint64_t queries = 0;  ///< executed requests (batch members included)
  uint64_t batches = 0;  ///< RunBatch() calls
  // Queries cut short by execution control (terminal status != kCompleted).
  uint64_t cancelled = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t early_stopped = 0;
  // Evolving-repository state.
  uint64_t generation = 0;       ///< current repository generation
  uint64_t deltas_applied = 0;   ///< successful ApplyDelta calls
  /// Queries whose wall-clock time exceeded MatchServiceOptions::
  /// slow_query_ms (0 while that threshold is disabled).
  uint64_t slow_queries = 0;
  size_t cache_namespaces = 0;   ///< retained per-fingerprint caches
  /// Cluster-cache counters aggregated over every namespace this backend
  /// ever held (dropped namespaces' counters are folded in, and their
  /// resident entries at drop time count as evictions).
  ClusterIndexCache::Stats cache;
};

/// One shard of the repository, as reported by Matcher::Shards(). At K = 1
/// the one shard covers everything.
struct ShardDescriptor {
  size_t shard = 0;            ///< shard index in [0, K)
  uint64_t generation = 0;     ///< the shard's own generation chain position
  uint64_t fingerprint = 0;    ///< content fingerprint of the shard's forest
  size_t trees = 0;            ///< trees owned by this shard
  size_t nodes = 0;            ///< total nodes across those trees
  schema::TreeId first_tree = 0;  ///< first global TreeId the shard owns
};

/// Handle to one in-flight Submit request. Cancel() requests cooperative
/// cancellation — the request still resolves normally (Status-OK) with the
/// mappings found so far and execution == kCancelled. Move-only; Get() may
/// be called once.
class MatchHandle {
 public:
  MatchHandle() = default;
  MatchHandle(core::CancelToken token,
              std::future<Result<core::MatchResult>> future)
      : token_(std::move(token)), future_(std::move(future)) {}

  /// Requests cancellation; safe from any thread, idempotent, and a no-op
  /// once the request finished.
  void Cancel() const { token_.Cancel(); }

  /// Blocks until the request finishes and returns its result.
  Result<core::MatchResult> Get() { return future_.get(); }

  /// True until Get() consumes the result.
  bool valid() const { return future_.valid(); }

  /// The underlying future, for callers that need wait_for/wait_until.
  std::future<Result<core::MatchResult>>& future() { return future_; }

  const core::CancelToken& token() const { return token_; }

 private:
  core::CancelToken token_;
  std::future<Result<core::MatchResult>> future_;
};

/// Thread-safe: one instance serves arbitrarily many concurrent callers.
class Matcher {
 public:
  /// ApplyDelta rebalances a K > 1 layout when the node imbalance (max
  /// shard nodes over the per-shard mean) exceeds this factor and a better
  /// balanced plan exists.
  static constexpr double kRebalanceThreshold = 1.5;

  /// Serves `repository` in options.shards node-balanced shards (K = 1:
  /// one snapshot, validated and indexed once; K > 1: shard snapshots
  /// built in parallel).
  static Result<std::unique_ptr<Matcher>> Create(
      schema::SchemaForest repository,
      const MatchServiceOptions& options = MatchServiceOptions());

  /// Serves an already-built snapshot: adopted as is at K = 1, its forest
  /// repartitioned at K > 1.
  static Result<std::unique_ptr<Matcher>> Create(
      std::shared_ptr<const RepositorySnapshot> snapshot,
      const MatchServiceOptions& options = MatchServiceOptions());

  /// Boots from what SaveSnapshot wrote at `path`: a snapshot file (K = 1)
  /// or a shard manifest plus its K shard files. Forests, indexes and
  /// dictionaries are loaded, not rebuilt, and the generation chain
  /// continues from the saved generation. A manifest whose recomputed
  /// fingerprint disagrees with its shard files fails with Corruption.
  /// `env` (null: the default Env) reads the files and later writes the
  /// manifest.
  static Result<std::unique_ptr<Matcher>> WarmStart(
      const std::string& path,
      const MatchServiceOptions& options = MatchServiceOptions(),
      util::io::Env* env = nullptr);

  /// Crash-safe boot from a snapshot file or shard manifest at
  /// `snapshot_path` plus the journal(s) under `wal_path`: loads the
  /// checkpoint, replays each journal's post-checkpoint suffix
  /// (live::RepositoryManager::Recover) and keeps journaling into the same
  /// WAL(s). `report` (may be null) receives the replay accounting. At
  /// K > 1 the recovered generation is the manifest generation plus the
  /// deepest per-shard replay (a delta touches >= 1 shard, so this is a
  /// lower bound on the pre-crash counter; content and fingerprints are
  /// exact regardless).
  static Result<std::unique_ptr<Matcher>> Recover(
      util::io::Env* env, const std::string& snapshot_path,
      const std::string& wal_path,
      const MatchServiceOptions& options = MatchServiceOptions(),
      live::RecoveryReport* report = nullptr);

  /// Serves one snapshot (K = 1).
  explicit Matcher(std::shared_ptr<const RepositorySnapshot> snapshot,
                   const MatchServiceOptions& options = MatchServiceOptions());

  /// Adopts an already-built generation chain (K = 1), WAL attached and
  /// all — e.g. one produced by live::RepositoryManager::Recover.
  explicit Matcher(std::unique_ptr<live::RepositoryManager> manager,
                   const MatchServiceOptions& options = MatchServiceOptions());

  Matcher(const Matcher&) = delete;
  Matcher& operator=(const Matcher&) = delete;

  ~Matcher();

  // --- Repository surface. -----------------------------------------------

  /// Pins the current repository generation. Hold the returned pointer
  /// while touching anything it exposes — a concurrent ApplyDelta retires
  /// the generation once the last holder lets go. At K = 1 the pin is the
  /// current RepositorySnapshot; at K > 1 a federated view over the K
  /// shard snapshots.
  RepositoryPinPtr Pin() const;

  /// Generation number of the current pin (0 until the first delta).
  uint64_t CurrentGeneration() const { return Pin()->generation(); }

  /// Applies a validated delta and atomically publishes the successor
  /// generation. In-flight requests finish against their pins; requests
  /// entering after this returns see the new generation. Serialized with
  /// concurrent ApplyDelta calls; on error nothing changes. `trace` (may
  /// be null) receives the per-stage spans (delta_validate /
  /// snapshot_build / wal_fsync / publish).
  Result<live::ApplyReport> ApplyDelta(const live::RepositoryDelta& delta,
                                       obs::TraceContext* trace = nullptr);

  /// Persists the current repository for a later WarmStart / Recover
  /// (atomic writes; see the header comment for the K > 1 layout). Safe
  /// alongside concurrent queries and deltas. With a journal attached this
  /// is the checkpoint that compacts it. `trace` (may be null) receives
  /// store_save / wal_compact spans. The returned info aggregates over
  /// every file written.
  Result<store::SnapshotFileInfo> SaveSnapshot(
      const std::string& path, obs::TraceContext* trace = nullptr) const;

  /// Write-ahead journals every subsequent ApplyDelta into `wal_path`
  /// (per shard under `wal_path + ".shard<i>"` at K > 1; created fresh,
  /// based at the current generation): appended + fsync'd before the new
  /// generation is published, so an acknowledged delta survives a crash.
  /// `env` also carries every later SaveSnapshot.
  Status AttachWal(util::io::Env* env, const std::string& wal_path);

  /// Whether deltas are currently being journaled.
  bool wal_attached() const;

  /// The shard layout: one descriptor per shard, in shard order.
  std::vector<ShardDescriptor> Shards() const;

  /// Per-shard file under a K > 1 snapshot or journal prefix:
  /// `prefix + ".shard" + i`.
  static std::string ShardFilePath(const std::string& prefix, size_t shard);

  // --- Query surface. ----------------------------------------------------

  /// Executes one request against an explicit pin, on the calling thread,
  /// streaming progress to `observer` (may be null) under `control` (the
  /// default deadline fills in if it has none). The pin must come from
  /// this backend's Pin(). A run no limit interrupts is deterministic for
  /// a fixed (pin fingerprint, request); an interrupted run resolves
  /// Status-OK with the mappings found so far and the typed terminal
  /// status in MatchResult::execution. Cancellation never poisons the
  /// cluster cache: a cluster-state build that has started always
  /// completes; control is checked before it and during generation.
  Result<core::MatchResult> RunOn(const RepositoryPinPtr& pin,
                                  const MatchRequest& request,
                                  const core::ExecutionControl& control,
                                  core::MatchObserver* observer = nullptr);

  /// Terminal convenience: pins the current generation, runs the request,
  /// and wraps the result with the pin's provenance.
  Result<MatchOutcome> Run(
      const MatchRequest& request,
      const core::ExecutionControl& control = core::ExecutionControl(),
      core::MatchObserver* observer = nullptr);

  /// Enqueues one request on the pool against an explicit pin and returns
  /// a cancellable handle; the default deadline starts now (queue wait
  /// counts). `observer` (may be null) must outlive the request; its
  /// callbacks run on the pool thread executing it.
  MatchHandle Submit(RepositoryPinPtr pin, MatchRequest request,
                     core::ExecutionControl control = core::ExecutionControl(),
                     core::MatchObserver* observer = nullptr);

  /// Executes all requests on the pool and returns their results in input
  /// order. The whole batch runs against one pin — the generation current
  /// at the call — so its results are mutually consistent even when deltas
  /// land mid-batch. Blocks until the batch is done; call from outside the
  /// backend's pool.
  BatchMatchResult RunBatch(std::vector<MatchRequest> requests);

  /// The cached cluster state (element matching + clustering) for
  /// `request` against an explicit pin: consults the fingerprint-keyed
  /// cache namespace and computes-once on miss, exactly like the query
  /// path. The build always runs to completion, so the cache can never
  /// hold a partial state. This is the integration engine's
  /// bulk-preprocessing hook.
  Result<ClusterStatePtr> ClusterStateFor(const RepositoryPinPtr& pin,
                                          const MatchRequest& request);

  // --- Introspection. ----------------------------------------------------

  const MatchServiceOptions& options() const { return options_; }
  ThreadPool& pool() { return pool_; }
  ServiceStats stats() const;

  /// The registry this backend's series live in — the shared one from
  /// MatchServiceOptions::metrics or the private fallback. Every stats
  /// surface (`!stats`, `/v1/stats`, `/metrics`) reads values that
  /// originate here, so they can never disagree.
  obs::MetricsRegistry& metrics() const { return *metrics_; }

  /// Drops every cached cluster state in every retained namespace
  /// (measurement / repository tuning).
  void ClearCache();

  /// The options RunOn actually runs for `request` against the current
  /// pin: per-request k-means seed derivation for randomized
  /// initializations, any caller-supplied element.control dropped (cached
  /// builds always run to completion), plus execution plumbing that never
  /// changes results — the matching pool, and at K = 1 the snapshot's name
  /// dictionary unless the request brought its own. Lifetime: that
  /// dictionary lives in the snapshot current at this call — hold Pin()
  /// across any use of the returned options.
  core::MatchOptions EffectiveOptions(const MatchRequest& request) const;

  /// The cluster-cache key for `request`: a canonical fingerprint of its
  /// personal schema and state-determining options. Stable across
  /// generations and shard counts — cross-generation isolation comes from
  /// the fingerprint namespace, not the key.
  std::string ClusterStateKey(const MatchRequest& request) const;

 private:
  /// The K > 1 pin (defined in the .cc).
  class ShardedPin;

  /// Per-fingerprint cluster-cache namespace, kept in publication order.
  struct CacheNamespace {
    uint64_t fingerprint = 0;
    std::shared_ptr<ClusterIndexCache> cache;
  };
  /// One retention domain: the merged-state caches, or (K > 1) one shard's
  /// element-matching caches.
  struct CacheSet {
    std::vector<CacheNamespace> namespaces;
    /// Counters folded in from dropped namespaces, so stats() is
    /// cumulative.
    ClusterIndexCache::Stats retired;
  };

  Matcher(std::vector<std::unique_ptr<live::RepositoryManager>> managers,
          uint64_t generation, const MatchServiceOptions& options);

  size_t num_shards() const { return managers_.size(); }

  /// Checks that `pin` is one of this backend's pins.
  Status CheckPin(const RepositoryPinPtr& pin) const;

  /// The engine over a checked pin's whole forest: the snapshot's at
  /// K = 1, the federated global view's at K > 1.
  const core::Bellflower& EngineOf(const RepositoryPin& pin) const;

  /// Fills in the default deadline when `control` has none.
  core::ExecutionControl ResolveControl(core::ExecutionControl control) const;

  /// Bumps the terminal-status counter for one finished query.
  void CountTerminal(core::ExecutionStatus status);

  /// EffectiveOptions against an explicit (checked) pin.
  core::MatchOptions EffectiveOptionsFor(const MatchRequest& request,
                                         const RepositoryPin& pin) const;

  /// The whole query path, against one checked pin.
  Result<core::MatchResult> Execute(const RepositoryPinPtr& pin,
                                    const MatchRequest& request,
                                    const core::ExecutionControl& control,
                                    core::MatchObserver* observer);

  /// The cached cluster state for (personal, state_options) against a
  /// checked pin; `trace` (may be null) receives the cluster_cache span and
  /// the spans of a build this call runs itself.
  Result<ClusterStatePtr> ClusterState(
      const RepositoryPinPtr& pin, const schema::SchemaTree& personal,
      const core::ClusterStateOptions& state_options, obs::TraceContext* trace);

  /// K > 1 build: per-shard element matching (cached per shard), merged
  /// into global tree-id space, clustered once globally.
  Result<core::ClusterState> BuildShardedState(
      const std::shared_ptr<const ShardedPin>& pin,
      const schema::SchemaTree& personal,
      const core::ClusterStateOptions& state_options, const std::string& key,
      obs::TraceContext* trace);

  /// K > 1 generation: one restricted MatchWithState per owning shard
  /// against the shared global state, merged by the engine's reduction
  /// (one unrestricted run when a single shard owns every cluster).
  Result<core::MatchResult> ScatterGeneration(
      const ShardedPin& pin, const MatchRequest& request,
      const core::ClusterState& state, const core::MatchOptions& effective,
      const core::ExecutionControl& resolved);

  /// The cache namespace for `fingerprint` in cache set `set` (0: merged
  /// states; 1 + s: shard s's element matching), created if absent.
  /// Publication sites (construction, ApplyDelta) pass `enforce_retention`:
  /// they move the namespace to the most-recently-published position and
  /// trim the oldest beyond the retention limit. The query path does
  /// neither, so a long-queued query pinned to an already-retired
  /// generation can neither evict a recent generation's warm cache nor
  /// promote its own stray namespace above one.
  std::shared_ptr<ClusterIndexCache> CacheFor(size_t set, uint64_t fingerprint,
                                              bool enforce_retention = false);

  /// Registers the current generation's cache namespaces (publication).
  void PublishCaches(const RepositoryPin& pin);

  /// K > 1 delta path: routes ops to owning shards, applies, rebalances
  /// and publishes the next federated pin. Caller holds apply_mu_.
  Result<live::ApplyReport> ApplyShardedLocked(
      const live::RepositoryDelta& delta, obs::TraceContext* trace);

  /// Rebalances shards whose ranges changed under a freshly balanced plan
  /// (copy-on-write successors; WAL re-attach; re-checkpoint when a
  /// snapshot prefix is known). Caller holds apply_mu_; updates `shards`.
  Status MaybeRebalance(
      std::vector<std::shared_ptr<const RepositorySnapshot>>* shards,
      obs::TraceContext* trace);

  /// K > 1 save: every shard, then the manifest through env_. Caller holds
  /// apply_mu_.
  Result<store::SnapshotFileInfo> SaveLocked(const std::string& path,
                                             obs::TraceContext* trace) const;

  MatchServiceOptions options_;

  /// Serializes ApplyDelta end to end (publication + cache registration),
  /// so cache publication order always matches generation order; at K > 1
  /// also SaveSnapshot and AttachWal, so a save never mixes shard states
  /// from two generations. Mutable: SaveSnapshot is logically const.
  mutable std::mutex apply_mu_;
  std::vector<std::unique_ptr<live::RepositoryManager>> managers_;
  /// K > 1: global publication counter (+1 per successful ApplyDelta,
  /// whatever subset of shards the delta touched) and the current pin. At
  /// K = 1 the manager's chain is both.
  uint64_t generation_ = 0;
  mutable std::mutex pin_mu_;
  std::shared_ptr<const ShardedPin> pin_;

  ThreadPool pool_;
  /// K > 1 scatter pool: per-query fan-out tasks run here, never on pool_,
  /// so a query executing on pool_ can't deadlock waiting for its own
  /// shard tasks.
  std::unique_ptr<ThreadPool> fanout_pool_;
  /// Element-matching shard pool; null when matching_threads == 0.
  std::unique_ptr<ThreadPool> matching_pool_;

  mutable std::mutex caches_mu_;
  /// [0] = merged-state caches; [1 + s] = shard s's caches (K > 1 only).
  std::vector<CacheSet> cache_sets_;

  /// The Env of the last AttachWal / Recover / WarmStart (null: default):
  /// the manifest and rebalance journals go through it (K > 1).
  util::io::Env* env_ = nullptr;
  std::string wal_prefix_;
  mutable std::string snap_prefix_;

  /// Metric handles, pre-registered at construction (shared registry or
  /// the private fallback); increments are single relaxed fetch_adds, and
  /// the registry is the single source of truth stats() reads back from.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* queries_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Counter* cancelled_ = nullptr;
  obs::Counter* deadline_exceeded_ = nullptr;
  obs::Counter* early_stopped_ = nullptr;
  obs::Counter* deltas_applied_ = nullptr;
  obs::Counter* slow_queries_ = nullptr;
  obs::Counter* fanouts_ = nullptr;     ///< K > 1 only
  obs::Counter* rebalances_ = nullptr;  ///< K > 1 only
  obs::Histogram* query_latency_ms_ = nullptr;
  live::ManagerMetrics manager_metrics_;
  /// Mirrors cache/generation tallies into registry series at scrape
  /// time; removed in the destructor (the hook captures `this`).
  uint64_t scrape_hook_id_ = 0;
};

/// The canonical cluster-cache key (exposed so tests derive keys the same
/// way): a canonical serialization of the personal schema plus the
/// state-determining options.
std::string BuildClusterStateKey(const schema::SchemaTree& personal,
                                 const core::ClusterStateOptions& options);

}  // namespace xsm::service

#endif  // XSM_SERVICE_MATCHER_H_
