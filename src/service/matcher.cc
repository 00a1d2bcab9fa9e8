#include "service/matcher.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>

#include "label/tree_index.h"
#include "match/element_matching.h"
#include "obs/trace.h"
#include "shard/shard_plan.h"
#include "util/random.h"
#include "util/timer.h"

namespace xsm::service {

using shard::ShardPlan;

namespace {

// --- Cluster-state keys. -----------------------------------------------------

void AppendFormat(std::string* out, const char* fmt, ...) {
  char buf[128];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}

/// Appends a string length-prefixed, so names containing the fingerprint's
/// own delimiters (':' is legal in XML names) cannot make two different
/// schemas serialize to one key.
void AppendString(std::string* out, const std::string& s) {
  AppendFormat(out, "%zu=", s.size());
  out->append(s);
}

/// Canonical serialization of the personal schema: every structural and
/// property bit that can influence element matching.
void AppendTreeFingerprint(const schema::SchemaTree& tree, std::string* out) {
  for (schema::NodeId n = 0; n < static_cast<schema::NodeId>(tree.size());
       ++n) {
    const schema::NodeProperties& props = tree.props(n);
    AppendFormat(out, "%d:", tree.parent(n));
    AppendString(out, props.name);
    AppendFormat(out, ":%d:", static_cast<int>(props.kind));
    AppendString(out, props.datatype);
    AppendFormat(out, ":%d%d;", props.repeatable ? 1 : 0,
                 props.optional ? 1 : 0);
  }
}

void AppendStateOptionsFingerprint(const core::ClusterStateOptions& options,
                                   std::string* out) {
  // Element matching stage. A custom matcher is identified by address: two
  // queries share a cache entry only when they pass the same instance. The
  // execution-plumbing fields (dictionary, pool, shards, control) are
  // deliberately absent: they never change the result.
  AppendFormat(out, "|el:%.17g:%d:%p", options.element.threshold,
               options.element.match_attributes ? 1 : 0,
               static_cast<const void*>(options.element.matcher));

  if (options.clustering == core::ClusteringMode::kTreeClusters) {
    out->append("|tree");  // the baseline ignores every k-means knob
    return;
  }
  const cluster::KMeansOptions& km = options.kmeans;
  AppendFormat(out, "|km:%d:%zu", static_cast<int>(km.init),
               km.num_centroids);
  AppendFormat(out, ":%d:%d", km.join_reclustering ? km.join_distance : -1,
               km.remove_reclustering
                   ? static_cast<int>(km.min_cluster_size)
                   : -1);
  AppendFormat(out, ":%zu:%d:%.17g", km.max_cluster_size,
               static_cast<int>(km.distance), km.name_weight);
  AppendFormat(out, ":%.17g:%d", km.convergence_fraction, km.max_iterations);
  // The seed only feeds the randomized initializations; normalizing it to 0
  // for kMinSet lets per-query derived seeds share one cache entry in the
  // common deterministic case.
  uint64_t effective_seed =
      km.init == cluster::CentroidInit::kMinSet ? 0 : km.seed;
  AppendFormat(out, ":%" PRIu64, effective_seed);
}

// --- Shard manifest. ---------------------------------------------------------

constexpr const char* kManifestMagic = "xsm-shard-manifest";
constexpr int kManifestVersion = 1;
/// A manifest is four short text lines; a larger file is a snapshot file,
/// so telling the two apart never reads a whole snapshot.
constexpr uint64_t kMaxManifestBytes = 256;

struct Manifest {
  size_t shards = 0;
  uint64_t generation = 0;
  uint64_t fingerprint = 0;
};

std::string EncodeManifest(const Manifest& m) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s %d\nshards %zu\ngeneration %" PRIu64
                "\nfingerprint %016" PRIx64 "\n",
                kManifestMagic, kManifestVersion, m.shards, m.generation,
                m.fingerprint);
  return buf;
}

Result<Manifest> ParseManifest(const std::string& text) {
  Manifest m;
  int version = 0;
  char magic[32] = {0};
  if (std::sscanf(text.c_str(),
                  "%31s %d\nshards %zu\ngeneration %" SCNu64
                  "\nfingerprint %" SCNx64,
                  magic, &version, &m.shards, &m.generation,
                  &m.fingerprint) != 5 ||
      std::string(magic) != kManifestMagic) {
    return Status::Corruption("not a shard manifest");
  }
  if (version != kManifestVersion) {
    return Status::Corruption("unsupported shard manifest version");
  }
  if (m.shards == 0) {
    return Status::Corruption("shard manifest names zero shards");
  }
  return m;
}

/// The manifest at `path`, or nullopt when `path` holds something else (a
/// snapshot file).
Result<std::optional<Manifest>> ReadManifest(util::io::Env* env,
                                             const std::string& path) {
  XSM_ASSIGN_OR_RETURN(uint64_t size, env->FileSize(path));
  if (size > kMaxManifestBytes) return std::optional<Manifest>();
  XSM_ASSIGN_OR_RETURN(std::string text, env->ReadFileToString(path));
  if (text.compare(0, std::strlen(kManifestMagic), kManifestMagic) != 0) {
    return std::optional<Manifest>();
  }
  XSM_ASSIGN_OR_RETURN(Manifest manifest, ParseManifest(text));
  return std::optional<Manifest>(manifest);
}

// --- Helpers. ----------------------------------------------------------------

/// Terminal-status merge priority: the "most interrupted" shard wins, so
/// a scattered run reports cancellation over a co-occurring deadline, and
/// any interruption over completion.
int StatusRank(core::ExecutionStatus status) {
  switch (status) {
    case core::ExecutionStatus::kCancelled:
      return 3;
    case core::ExecutionStatus::kDeadlineExceeded:
      return 2;
    case core::ExecutionStatus::kEarlyStopped:
      return 1;
    case core::ExecutionStatus::kCompleted:
      return 0;
  }
  return 0;
}

using Managers = std::vector<std::unique_ptr<live::RepositoryManager>>;

Managers OneManager(std::unique_ptr<live::RepositoryManager> manager) {
  Managers managers;
  managers.push_back(std::move(manager));
  return managers;
}

/// Content fingerprint of the shards' concatenated current forests — what a
/// K = 1 snapshot of the same content reports, and what a manifest records.
uint64_t ContentFingerprint(const Managers& managers) {
  std::vector<uint64_t> tree_fps;
  size_t total_nodes = 0;
  for (const auto& manager : managers) {
    std::shared_ptr<const RepositorySnapshot> snap = manager->Current();
    total_nodes += snap->total_nodes();
    for (schema::TreeId t = 0;
         t < static_cast<schema::TreeId>(snap->num_trees()); ++t) {
      tree_fps.push_back(snap->tree_fingerprint(t));
    }
  }
  return CombineForestFingerprint(tree_fps.size(), total_nodes, tree_fps);
}

/// Node-balanced K-way partition of `repository`; the shard snapshots
/// (indexing + dictionary folding, the expensive part of publish) build in
/// parallel.
Result<std::vector<std::shared_ptr<const RepositorySnapshot>>> BuildShards(
    const schema::SchemaForest& repository, size_t k) {
  std::vector<size_t> nodes;
  nodes.reserve(repository.num_trees());
  for (schema::TreeId t = 0;
       t < static_cast<schema::TreeId>(repository.num_trees()); ++t) {
    nodes.push_back(repository.tree(t).size());
  }
  ShardPlan plan = ShardPlan::Balanced(nodes, k);
  ThreadPool build_pool(std::min(k, ThreadPool::DefaultThreadCount()));
  std::vector<std::future<Result<std::shared_ptr<const RepositorySnapshot>>>>
      futures;
  futures.reserve(k);
  for (size_t s = 0; s < k; ++s) {
    futures.push_back(build_pool.Submit(
        [&repository, &plan,
         s]() -> Result<std::shared_ptr<const RepositorySnapshot>> {
          schema::SchemaForest sub;
          const schema::TreeId first = plan.first_tree(s);
          for (schema::TreeId local = 0;
               local < static_cast<schema::TreeId>(plan.shard_trees(s));
               ++local) {
            sub.AddTree(repository.tree_ptr(first + local),
                        repository.source(first + local));
          }
          return RepositorySnapshot::Create(std::move(sub));
        }));
  }
  std::vector<std::shared_ptr<const RepositorySnapshot>> shards;
  shards.reserve(k);
  Status first_error = Status::OK();
  for (auto& future : futures) {
    auto result = future.get();
    if (!result.ok()) {
      if (first_error.ok()) first_error = result.status();
      continue;
    }
    shards.push_back(std::move(result.value()));
  }
  XSM_RETURN_NOT_OK(first_error);
  return shards;
}

}  // namespace

std::string BuildClusterStateKey(const schema::SchemaTree& personal,
                                 const core::ClusterStateOptions& options) {
  std::string key;
  key.reserve(256);
  AppendTreeFingerprint(personal, &key);
  AppendStateOptionsFingerprint(options, &key);
  return key;
}

Result<MatchRequest> MatchRequestBuilder::Build() const {
  if (request_.personal.empty()) {
    return Status::InvalidArgument("personal schema is empty");
  }
  XSM_RETURN_NOT_OK(request_.personal.Validate());
  const core::MatchOptions& options = request_.options;
  if (options.delta < 0.0 || options.delta > 1.0) {
    return Status::InvalidArgument("delta must be in [0,1]");
  }
  if (options.element.threshold < 0.0 || options.element.threshold > 1.0) {
    return Status::InvalidArgument("threshold must be in [0,1]");
  }
  XSM_RETURN_NOT_OK(options.objective.Validate());
  if (options.clustering == core::ClusteringMode::kKMeans) {
    XSM_RETURN_NOT_OK(options.kmeans.Validate());
  }
  return request_;
}

// ---------------------------------------------------------------------------
// ShardedPin: the K > 1 RepositoryPin. Materializes a global-view forest +
// index over the K shard snapshots by sharing every tree payload and
// TreeIndex (O(num_trees) pointer copies), so the global Bellflower — which
// clustering and generation run through — sees exactly the forest a K = 1
// backend would, and the global fingerprint composes the same per-tree
// fingerprints the same way.
// ---------------------------------------------------------------------------

class Matcher::ShardedPin : public RepositoryPin {
 public:
  static std::shared_ptr<const ShardedPin> Build(
      std::vector<std::shared_ptr<const RepositorySnapshot>> shards,
      uint64_t generation) {
    auto pin = std::shared_ptr<ShardedPin>(new ShardedPin());
    pin->shards_ = std::move(shards);
    pin->generation_ = generation;
    std::vector<size_t> counts;
    counts.reserve(pin->shards_.size());
    size_t total_trees = 0;
    for (const auto& shard : pin->shards_) {
      counts.push_back(shard->num_trees());
      total_trees += shard->num_trees();
    }
    pin->plan_ = ShardPlan::FromShardTreeCounts(counts);
    std::vector<std::shared_ptr<const label::TreeIndex>> parts;
    parts.reserve(total_trees);
    pin->tree_fps_.reserve(total_trees);
    for (const auto& shard : pin->shards_) {
      const schema::SchemaForest& forest = shard->forest();
      for (schema::TreeId t = 0;
           t < static_cast<schema::TreeId>(forest.num_trees()); ++t) {
        pin->forest_.AddTree(forest.tree_ptr(t), forest.source(t));
        parts.push_back(shard->index().tree_ptr(t));
        pin->tree_fps_.push_back(shard->tree_fingerprint(t));
      }
    }
    pin->fingerprint_ = CombineForestFingerprint(
        pin->forest_.num_trees(), pin->forest_.total_nodes(), pin->tree_fps_);
    // The forest lives at its final heap address now; the matcher's
    // internal pointer stays valid for the pin's whole life.
    pin->matcher_ = std::make_unique<core::Bellflower>(
        &pin->forest_, label::ForestIndex::FromParts(std::move(parts)));
    return pin;
  }

  const schema::SchemaForest& forest() const override { return forest_; }
  uint64_t generation() const override { return generation_; }
  uint64_t fingerprint() const override { return fingerprint_; }
  uint64_t tree_fingerprint(schema::TreeId id) const override {
    return tree_fps_[static_cast<size_t>(id)];
  }

  const ShardPlan& plan() const { return plan_; }
  size_t num_shards() const { return shards_.size(); }
  const std::shared_ptr<const RepositorySnapshot>& shard(size_t s) const {
    return shards_[s];
  }
  const core::Bellflower& matcher() const { return *matcher_; }

 private:
  ShardedPin() = default;

  schema::SchemaForest forest_;
  std::unique_ptr<core::Bellflower> matcher_;
  ShardPlan plan_;
  std::vector<std::shared_ptr<const RepositorySnapshot>> shards_;
  std::vector<uint64_t> tree_fps_;
  uint64_t generation_ = 0;
  uint64_t fingerprint_ = 0;
};

// ---------------------------------------------------------------------------
// Factories.
// ---------------------------------------------------------------------------

std::string Matcher::ShardFilePath(const std::string& prefix, size_t shard) {
  return prefix + ".shard" + std::to_string(shard);
}

Result<std::unique_ptr<Matcher>> Matcher::Create(
    schema::SchemaForest repository, const MatchServiceOptions& options) {
  if (options.shards == 0) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (options.shards == 1) {
    XSM_ASSIGN_OR_RETURN(std::shared_ptr<const RepositorySnapshot> snapshot,
                         RepositorySnapshot::Create(std::move(repository)));
    return std::make_unique<Matcher>(std::move(snapshot), options);
  }
  XSM_RETURN_NOT_OK(repository.Validate());
  XSM_ASSIGN_OR_RETURN(
      std::vector<std::shared_ptr<const RepositorySnapshot>> shards,
      BuildShards(repository, options.shards));
  Managers managers;
  managers.reserve(shards.size());
  for (auto& shard : shards) {
    managers.push_back(std::make_unique<live::RepositoryManager>(shard));
  }
  return std::unique_ptr<Matcher>(
      new Matcher(std::move(managers), /*generation=*/0, options));
}

Result<std::unique_ptr<Matcher>> Matcher::Create(
    std::shared_ptr<const RepositorySnapshot> snapshot,
    const MatchServiceOptions& options) {
  if (options.shards == 1) {
    return std::make_unique<Matcher>(std::move(snapshot), options);
  }
  return Create(snapshot->forest(), options);
}

Result<std::unique_ptr<Matcher>> Matcher::WarmStart(
    const std::string& path, const MatchServiceOptions& options,
    util::io::Env* env) {
  if (env == nullptr) env = util::io::Env::Default();
  XSM_ASSIGN_OR_RETURN(std::optional<Manifest> manifest,
                       ReadManifest(env, path));
  std::unique_ptr<Matcher> matcher;
  if (!manifest.has_value()) {
    XSM_ASSIGN_OR_RETURN(std::shared_ptr<const RepositorySnapshot> snapshot,
                         store::LoadSnapshotFromFile(path, env));
    matcher = std::make_unique<Matcher>(std::move(snapshot), options);
  } else {
    Managers managers;
    managers.reserve(manifest->shards);
    for (size_t s = 0; s < manifest->shards; ++s) {
      XSM_ASSIGN_OR_RETURN(
          std::shared_ptr<const RepositorySnapshot> shard,
          store::LoadSnapshotFromFile(ShardFilePath(path, s), env));
      managers.push_back(std::make_unique<live::RepositoryManager>(shard));
    }
    // Every shard file verified its own content; this check proves the
    // set of shard files is the set the manifest was written for.
    if (ContentFingerprint(managers) != manifest->fingerprint) {
      return Status::Corruption(
          "shard contents do not match the manifest fingerprint");
    }
    matcher = std::unique_ptr<Matcher>(
        new Matcher(std::move(managers), manifest->generation, options));
    matcher->snap_prefix_ = path;
  }
  matcher->env_ = env;
  return matcher;
}

Result<std::unique_ptr<Matcher>> Matcher::Recover(
    util::io::Env* env, const std::string& snapshot_path,
    const std::string& wal_path, const MatchServiceOptions& options,
    live::RecoveryReport* report) {
  if (env == nullptr) env = util::io::Env::Default();
  XSM_ASSIGN_OR_RETURN(std::optional<Manifest> manifest,
                       ReadManifest(env, snapshot_path));
  std::unique_ptr<Matcher> matcher;
  if (!manifest.has_value()) {
    XSM_ASSIGN_OR_RETURN(
        std::unique_ptr<live::RepositoryManager> manager,
        live::RepositoryManager::Recover(env, snapshot_path, wal_path,
                                         report));
    matcher = std::make_unique<Matcher>(std::move(manager), options);
  } else {
    Managers managers;
    managers.reserve(manifest->shards);
    uint64_t max_replay_depth = 0;
    live::RecoveryReport aggregate;
    for (size_t s = 0; s < manifest->shards; ++s) {
      live::RecoveryReport shard_report;
      XSM_ASSIGN_OR_RETURN(
          std::unique_ptr<live::RepositoryManager> manager,
          live::RepositoryManager::Recover(
              env, ShardFilePath(snapshot_path, s), ShardFilePath(wal_path, s),
              &shard_report));
      max_replay_depth = std::max(
          max_replay_depth, shard_report.recovered_generation -
                                shard_report.snapshot_generation);
      aggregate.records_replayed += shard_report.records_replayed;
      aggregate.records_skipped += shard_report.records_skipped;
      aggregate.torn_tail = aggregate.torn_tail || shard_report.torn_tail;
      aggregate.dropped_bytes += shard_report.dropped_bytes;
      managers.push_back(std::move(manager));
    }
    aggregate.snapshot_generation = manifest->generation;
    aggregate.recovered_generation = manifest->generation + max_replay_depth;
    if (report != nullptr) *report = aggregate;
    // Fingerprints are only comparable when no journal records moved the
    // content past the checkpoint.
    if (max_replay_depth == 0 &&
        ContentFingerprint(managers) != manifest->fingerprint) {
      return Status::Corruption(
          "shard contents do not match the manifest fingerprint");
    }
    matcher = std::unique_ptr<Matcher>(new Matcher(
        std::move(managers), aggregate.recovered_generation, options));
    matcher->snap_prefix_ = snapshot_path;
  }
  matcher->env_ = env;
  matcher->wal_prefix_ = wal_path;
  return matcher;
}

// ---------------------------------------------------------------------------
// Construction / metrics.
// ---------------------------------------------------------------------------

Matcher::Matcher(std::shared_ptr<const RepositorySnapshot> snapshot,
                 const MatchServiceOptions& options)
    : Matcher(std::make_unique<live::RepositoryManager>(std::move(snapshot)),
              options) {}

Matcher::Matcher(std::unique_ptr<live::RepositoryManager> manager,
                 const MatchServiceOptions& options)
    : Matcher(OneManager(std::move(manager)), /*generation=*/0, options) {}

Matcher::Matcher(Managers managers, uint64_t generation,
                 const MatchServiceOptions& options)
    : options_(options),
      managers_(std::move(managers)),
      generation_(generation),
      pool_(options.num_threads == 0 ? ThreadPool::DefaultThreadCount()
                                     : options.num_threads) {
  const size_t k = managers_.size();
  options_.shards = k;
  if (k > 1) {
    std::vector<std::shared_ptr<const RepositorySnapshot>> shards;
    shards.reserve(k);
    for (auto& manager : managers_) shards.push_back(manager->Current());
    pin_ = ShardedPin::Build(std::move(shards), generation_);
    fanout_pool_ = std::make_unique<ThreadPool>(
        std::min(k, ThreadPool::DefaultThreadCount()));
  }
  if (options_.matching_threads > 0) {
    matching_pool_ = std::make_unique<ThreadPool>(options_.matching_threads);
  }
  cache_sets_.resize(k == 1 ? 1 : 1 + k);

  // Metric series: registered once, incremented lock-free ever after.
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  obs::LabelSet labels;
  if (!options_.metrics_tenant.empty()) {
    labels.push_back({"tenant", options_.metrics_tenant});
  }
  queries_ = metrics_->RegisterCounter(
      "xsm_queries_total", "queries executed (batch members included)",
      labels);
  batches_ = metrics_->RegisterCounter("xsm_batches_total", "RunBatch() calls",
                                       labels);
  cancelled_ = metrics_->RegisterCounter(
      "xsm_queries_cancelled_total", "queries stopped by cancellation",
      labels);
  deadline_exceeded_ = metrics_->RegisterCounter(
      "xsm_queries_deadline_exceeded_total",
      "queries stopped by their wall-clock deadline", labels);
  early_stopped_ = metrics_->RegisterCounter(
      "xsm_queries_early_stopped_total",
      "queries stopped by their mapping budget", labels);
  deltas_applied_ = metrics_->RegisterCounter(
      "xsm_deltas_applied_total", "successful ApplyDelta publications",
      labels);
  slow_queries_ = metrics_->RegisterCounter(
      "xsm_slow_queries_total",
      "queries slower than the configured slow-query threshold", labels);
  query_latency_ms_ = metrics_->RegisterHistogram(
      "xsm_query_duration_ms", "wall-clock query latency in milliseconds",
      obs::DefaultLatencyBoundsMs(), labels);

  // Cache and generation tallies live in their own structures (per-
  // namespace counters, the managers' chains); the scrape hook mirrors them
  // into registry series, so `/metrics` and stats() read the same numbers
  // by construction.
  obs::Counter* cache_hits = metrics_->RegisterCounter(
      "xsm_cluster_cache_hits_total", "cluster-state cache hits", labels);
  obs::Counter* cache_shared = metrics_->RegisterCounter(
      "xsm_cluster_cache_shared_total",
      "cluster-state builds shared with a concurrent query", labels);
  obs::Counter* cache_misses = metrics_->RegisterCounter(
      "xsm_cluster_cache_misses_total", "cluster-state cache misses",
      labels);
  obs::Counter* cache_evictions = metrics_->RegisterCounter(
      "xsm_cluster_cache_evictions_total",
      "cluster states dropped by the LRU policy", labels);
  obs::Gauge* cache_entries = metrics_->RegisterGauge(
      "xsm_cluster_cache_entries", "resident cluster states", labels);
  obs::Gauge* cache_namespaces = metrics_->RegisterGauge(
      "xsm_cluster_cache_namespaces",
      "retained per-fingerprint cache namespaces", labels);
  obs::Gauge* generation_gauge = metrics_->RegisterGauge(
      "xsm_repository_generation", "current repository generation", labels);
  // Durability events (WAL appends, checkpoint compactions, snapshot
  // saves) are counted by the managers themselves via these handles.
  manager_metrics_.wal_appends = metrics_->RegisterCounter(
      "xsm_wal_appends_total", "deltas journaled and fsynced before publish",
      labels);
  manager_metrics_.wal_compactions = metrics_->RegisterCounter(
      "xsm_wal_compactions_total",
      "journal compactions after a durable checkpoint", labels);
  manager_metrics_.snapshot_saves = metrics_->RegisterCounter(
      "xsm_snapshot_saves_total", "snapshots persisted to disk", labels);
  for (auto& manager : managers_) manager->SetMetrics(manager_metrics_);

  // K > 1 only: scatter/rebalance counters and per-shard layout gauges.
  std::vector<obs::Gauge*> shard_trees, shard_nodes, shard_generations;
  if (k > 1) {
    fanouts_ = metrics_->RegisterCounter(
        "xsm_shard_fanouts_total",
        "queries whose generation phase scattered across >1 shard", labels);
    rebalances_ = metrics_->RegisterCounter(
        "xsm_shard_rebalances_total", "shard plan rebalances after deltas",
        labels);
    for (size_t s = 0; s < k; ++s) {
      obs::LabelSet shard_labels = labels;
      shard_labels.push_back({"shard", std::to_string(s)});
      shard_trees.push_back(metrics_->RegisterGauge(
          "xsm_shard_trees", "trees owned by the shard", shard_labels));
      shard_nodes.push_back(metrics_->RegisterGauge(
          "xsm_shard_nodes", "total nodes owned by the shard", shard_labels));
      shard_generations.push_back(metrics_->RegisterGauge(
          "xsm_shard_generation", "the shard's own chain generation",
          shard_labels));
    }
  }

  scrape_hook_id_ = metrics_->AddScrapeHook(
      [this, cache_hits, cache_shared, cache_misses, cache_evictions,
       cache_entries, cache_namespaces, generation_gauge, shard_trees,
       shard_nodes, shard_generations]() {
        ServiceStats s = stats();
        cache_hits->Set(s.cache.hits);
        cache_shared->Set(s.cache.shared);
        cache_misses->Set(s.cache.misses);
        cache_evictions->Set(s.cache.evictions);
        cache_entries->Set(static_cast<double>(s.cache.entries));
        cache_namespaces->Set(static_cast<double>(s.cache_namespaces));
        generation_gauge->Set(static_cast<double>(s.generation));
        if (shard_trees.empty()) return;
        for (const ShardDescriptor& d : Shards()) {
          shard_trees[d.shard]->Set(static_cast<double>(d.trees));
          shard_nodes[d.shard]->Set(static_cast<double>(d.nodes));
          shard_generations[d.shard]->Set(static_cast<double>(d.generation));
        }
      });

  // Materialize the initial generation's cache namespaces so the first
  // queries don't race to create them.
  PublishCaches(*Pin());
}

Matcher::~Matcher() {
  // The scrape hook captures `this`; detach it before members go away.
  metrics_->RemoveScrapeHook(scrape_hook_id_);
}

// ---------------------------------------------------------------------------
// Pins.
// ---------------------------------------------------------------------------

RepositoryPinPtr Matcher::Pin() const {
  // K = 1: the current snapshot is the pin, no translation layer.
  if (num_shards() == 1) return managers_[0]->Current();
  std::lock_guard<std::mutex> lock(pin_mu_);
  return pin_;
}

Status Matcher::CheckPin(const RepositoryPinPtr& pin) const {
  // A pin from a different kind of backend (or a null one) is a caller bug
  // surfaced as InvalidArgument instead of undefined behaviour.
  const bool ours =
      num_shards() == 1
          ? dynamic_cast<const RepositorySnapshot*>(pin.get()) != nullptr
          : dynamic_cast<const ShardedPin*>(pin.get()) != nullptr;
  if (!ours) {
    return Status::InvalidArgument(
        "pin does not come from this backend's chain");
  }
  return Status::OK();
}

const core::Bellflower& Matcher::EngineOf(const RepositoryPin& pin) const {
  return num_shards() == 1
             ? static_cast<const RepositorySnapshot&>(pin).matcher()
             : static_cast<const ShardedPin&>(pin).matcher();
}

std::vector<ShardDescriptor> Matcher::Shards() const {
  RepositoryPinPtr pin = Pin();
  if (num_shards() == 1) {
    ShardDescriptor d;
    d.generation = pin->generation();
    d.fingerprint = pin->fingerprint();
    d.trees = pin->num_trees();
    d.nodes = pin->total_nodes();
    return {d};
  }
  const auto& sharded = static_cast<const ShardedPin&>(*pin);
  std::vector<ShardDescriptor> out;
  out.reserve(sharded.num_shards());
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    ShardDescriptor d;
    d.shard = s;
    d.generation = sharded.shard(s)->generation();
    d.fingerprint = sharded.shard(s)->fingerprint();
    d.trees = sharded.shard(s)->num_trees();
    d.nodes = sharded.shard(s)->total_nodes();
    d.first_tree = sharded.plan().first_tree(s);
    out.push_back(d);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Effective options / keys / control.
// ---------------------------------------------------------------------------

core::MatchOptions Matcher::EffectiveOptions(
    const MatchRequest& request) const {
  return EffectiveOptionsFor(request, *Pin());
}

core::MatchOptions Matcher::EffectiveOptionsFor(
    const MatchRequest& request, const RepositoryPin& pin) const {
  core::MatchOptions effective = request.options;
  const bool randomized =
      effective.clustering == core::ClusteringMode::kKMeans &&
      effective.kmeans.init != cluster::CentroidInit::kMinSet;
  if (options_.derive_seeds && randomized) {
    effective.kmeans.seed = SeedForQuery(kQuerySeedBase, request.id);
  }
  // A request-supplied element.control is dropped, not honored: cached
  // cluster-state builds must always run to completion — a cancelled build
  // would fail every concurrent request sharing it in-flight (the cache key
  // excludes control on purpose). Cancellation and deadlines bound the
  // generation phase through the RunOn control instead.
  effective.element.control = nullptr;
  // Element-matching execution plumbing. Results never depend on these (the
  // engine is bit-identical with or without them), so the cluster-state key
  // ignores them and cached states stay shareable across configurations.
  // At K > 1 each shard's dictionary is injected by the scatter.
  if (num_shards() == 1 && effective.element.dictionary == nullptr) {
    effective.element.dictionary =
        &static_cast<const RepositorySnapshot&>(pin).name_dictionary();
  }
  if (effective.element.pool == nullptr && matching_pool_ != nullptr) {
    effective.element.pool = matching_pool_.get();
  }
  return effective;
}

std::string Matcher::ClusterStateKey(const MatchRequest& request) const {
  return BuildClusterStateKey(
      request.personal,
      core::ClusterStateOptions::From(EffectiveOptions(request)));
}

core::ExecutionControl Matcher::ResolveControl(
    core::ExecutionControl control) const {
  if (!control.deadline.has_value() && options_.default_deadline_seconds > 0) {
    control.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options_.default_deadline_seconds));
  }
  return control;
}

void Matcher::CountTerminal(core::ExecutionStatus status) {
  switch (status) {
    case core::ExecutionStatus::kCompleted:
      break;
    case core::ExecutionStatus::kCancelled:
      cancelled_->Increment();
      break;
    case core::ExecutionStatus::kDeadlineExceeded:
      deadline_exceeded_->Increment();
      break;
    case core::ExecutionStatus::kEarlyStopped:
      early_stopped_->Increment();
      break;
  }
}

// ---------------------------------------------------------------------------
// Cluster states.
// ---------------------------------------------------------------------------

Result<ClusterStatePtr> Matcher::ClusterState(
    const RepositoryPinPtr& pin, const schema::SchemaTree& personal,
    const core::ClusterStateOptions& state_options, obs::TraceContext* trace) {
  // The cache namespace is the pin's fingerprint: a state built for one
  // repository content can only ever serve that content, whatever
  // generations come and go while this query runs.
  std::shared_ptr<ClusterIndexCache> cache = CacheFor(0, pin->fingerprint());
  const std::string key = BuildClusterStateKey(personal, state_options);
  obs::ScopedSpan cache_span(trace, "cluster_cache");
  ClusterIndexCache::Fetch fetch = ClusterIndexCache::Fetch::kMiss;
  // The factory takes no cancellation: a cluster-state build that starts
  // always completes, so the cache only ever holds fully built entries and
  // concurrent queries sharing the in-flight build are never failed by
  // someone else's cancellation. Its trace-only control lands the spans of
  // a build this query runs itself in its trace.
  Result<ClusterStatePtr> state = cache->GetOrCompute(
      key,
      [&]() -> Result<core::ClusterState> {
        if (num_shards() > 1) {
          return BuildShardedState(std::static_pointer_cast<const ShardedPin>(
                                       pin),
                                   personal, state_options, key, trace);
        }
        core::ExecutionControl build_control;
        build_control.trace = trace;
        return EngineOf(*pin).BuildClusterState(personal, state_options,
                                                &build_control);
      },
      &fetch);
  if (trace != nullptr) {
    switch (fetch) {
      case ClusterIndexCache::Fetch::kHit:
        cache_span.set_note("hit");
        break;
      case ClusterIndexCache::Fetch::kShared:
        cache_span.set_note("shared");
        break;
      case ClusterIndexCache::Fetch::kMiss:
        cache_span.set_note("miss");
        break;
    }
  }
  return state;
}

Result<core::ClusterState> Matcher::BuildShardedState(
    const std::shared_ptr<const ShardedPin>& pin,
    const schema::SchemaTree& personal,
    const core::ClusterStateOptions& state_options, const std::string& key,
    obs::TraceContext* trace) {
  // Scatter element matching per shard. Each shard matches against its own
  // forest with its own dictionary; per-shard results are cached in the
  // shard's fingerprint-namespaced cache (matching-only ClusterStates), so
  // a delta touching one shard recomputes one shard.
  obs::ScopedSpan fan_span(trace, "shard_fanout");
  // Trace-only: the shard builds' dict_score / dict_broadcast spans land in
  // this query's trace (TraceContext is mutex-guarded), while cancellation
  // stays stripped — a started build always completes, so a cached shard
  // result is never partial.
  core::ExecutionControl build_control;
  build_control.trace = trace;
  std::vector<size_t> shard_ids;
  std::vector<std::future<Result<ClusterStatePtr>>> futures;
  for (size_t s = 0; s < pin->num_shards(); ++s) {
    if (pin->shard(s)->num_trees() == 0) continue;
    shard_ids.push_back(s);
    futures.push_back(fanout_pool_->Submit(
        [this, &pin, &personal, &state_options, &key, &build_control,
         s]() -> Result<ClusterStatePtr> {
          const auto& snap = pin->shard(s);
          std::shared_ptr<ClusterIndexCache> shard_cache =
              CacheFor(1 + s, snap->fingerprint());
          return shard_cache->GetOrCompute(
              key, [&]() -> Result<core::ClusterState> {
                match::ElementMatchingOptions mo = state_options.element;
                mo.dictionary = &snap->name_dictionary();
                if (mo.pool == nullptr && matching_pool_ != nullptr) {
                  mo.pool = matching_pool_.get();
                }
                mo.control = &build_control;
                Timer timer;
                XSM_ASSIGN_OR_RETURN(
                    match::ElementMatchingResult matched,
                    match::MatchElements(personal, snap->forest(), mo));
                core::ClusterState partial;
                partial.matching = std::move(matched);
                partial.time_matching_seconds = timer.ElapsedSeconds();
                return partial;
              });
        }));
  }
  std::vector<ClusterStatePtr> parts;
  parts.reserve(futures.size());
  Status first_error = Status::OK();
  for (auto& future : futures) {
    auto part = future.get();
    if (!part.ok()) {
      if (first_error.ok()) first_error = part.status();
      continue;
    }
    parts.push_back(std::move(part.value()));
  }
  XSM_RETURN_NOT_OK(first_error);
  if (trace != nullptr) {
    fan_span.set_note(std::to_string(parts.size()) + " shards");
  }

  // Gather: concatenate in shard order with each shard's tree ids offset by
  // its first global tree. Per-shard element lists are NodeRef-sorted and
  // shard tree ranges are increasing, so plain concatenation reproduces
  // the global sorted order bit for bit.
  match::ElementMatchingResult merged;
  merged.sets.resize(personal.size());
  for (schema::NodeId n = 0; n < static_cast<schema::NodeId>(personal.size());
       ++n) {
    merged.sets[static_cast<size_t>(n)].personal_node = n;
  }
  double matching_seconds = 0;
  for (size_t i = 0; i < parts.size(); ++i) {
    const schema::TreeId offset = pin->plan().first_tree(shard_ids[i]);
    const match::ElementMatchingResult& part = parts[i]->matching;
    matching_seconds += parts[i]->time_matching_seconds;
    for (size_t n = 0; n < part.sets.size(); ++n) {
      auto& out = merged.sets[n].elements;
      for (const match::MappingElement& element : part.sets[n].elements) {
        out.push_back(
            {{element.node.tree + offset, element.node.node}, element.score});
      }
    }
    for (size_t d = 0; d < part.distinct_nodes.size(); ++d) {
      merged.distinct_nodes.push_back(
          {part.distinct_nodes[d].tree + offset, part.distinct_nodes[d].node});
      merged.masks.push_back(part.masks[d]);
    }
  }

  // Cluster once, globally: k-means' global couplings (MEmin seeding,
  // convergence, the RNG) see exactly what the K = 1 pipeline would see.
  return pin->matcher().ClusterFromMatching(personal, std::move(merged),
                                            matching_seconds, state_options,
                                            &build_control);
}

// ---------------------------------------------------------------------------
// Query path.
// ---------------------------------------------------------------------------

Result<core::MatchResult> Matcher::RunOn(const RepositoryPinPtr& pin,
                                         const MatchRequest& request,
                                         const core::ExecutionControl& control,
                                         core::MatchObserver* observer) {
  XSM_RETURN_NOT_OK(CheckPin(pin));
  return Execute(pin, request, control, observer);
}

Result<MatchOutcome> Matcher::Run(const MatchRequest& request,
                                  const core::ExecutionControl& control,
                                  core::MatchObserver* observer) {
  RepositoryPinPtr pin = Pin();
  MatchOutcome outcome;
  outcome.generation = pin->generation();
  outcome.fingerprint = pin->fingerprint();
  XSM_ASSIGN_OR_RETURN(outcome.result,
                       Execute(pin, request, control, observer));
  return outcome;
}

Result<core::MatchResult> Matcher::Execute(
    const RepositoryPinPtr& pin, const MatchRequest& request,
    const core::ExecutionControl& control, core::MatchObserver* observer) {
  queries_->Increment();
  // Latency instrumentation (histogram + slow-query accounting) is the
  // per-query work enable_metrics == false strips, giving benchmarks an
  // uninstrumented baseline.
  const bool instrument = options_.enable_metrics;
  Timer latency_timer;
  auto record_latency = [&]() {
    if (!instrument) return;
    const double elapsed_ms = latency_timer.ElapsedSeconds() * 1e3;
    query_latency_ms_->Observe(elapsed_ms);
    if (options_.slow_query_ms > 0 && elapsed_ms >= options_.slow_query_ms) {
      slow_queries_->Increment();
    }
  };
  core::MatchOptions effective = EffectiveOptionsFor(request, *pin);
  // Reject invalid generation options up front (mirroring Bellflower::Match)
  // so a bad query cannot pay for — or cache — a cluster-state build.
  XSM_RETURN_NOT_OK(effective.objective.Validate());
  if (effective.delta < 0.0 || effective.delta > 1.0) {
    return Status::InvalidArgument("delta must be in [0,1]");
  }
  core::ExecutionControl resolved = ResolveControl(control);

  // A query that is already cancelled / past its deadline pays for nothing.
  core::ExecutionMonitor pre(resolved);
  if (pre.ShouldStop()) {
    core::MatchResult result;
    result.stats.repository_nodes = pin->forest().total_nodes();
    result.stats.repository_trees = pin->forest().num_trees();
    result.execution = pre.status();
    CountTerminal(result.execution);
    if (observer != nullptr) observer->OnFinish(result);
    record_latency();
    return result;
  }

  XSM_ASSIGN_OR_RETURN(
      ClusterStatePtr state,
      ClusterState(pin, request.personal,
                   core::ClusterStateOptions::From(effective), resolved.trace));

  // Configurations whose per-run adaptive state couples clusters across
  // shards generate in one unscattered (still exact) global run: the
  // adaptive-δ ratchet reclassifies cluster usefulness when partials are
  // also enumerated, and the pre-clustering structural baseline re-scores
  // every element per run. So do streaming runs: the observer sees one
  // ordered stream.
  const bool coupled =
      (effective.include_partial_mappings && effective.adaptive_top_n &&
       effective.top_n > 0) ||
      (effective.structural_matcher != nullptr &&
       !effective.structural_within_clusters_only);
  Result<core::MatchResult> run =
      num_shards() > 1 && observer == nullptr && !coupled
          ? ScatterGeneration(static_cast<const ShardedPin&>(*pin), request,
                              *state, effective, resolved)
          : EngineOf(*pin).MatchWithState(request.personal, *state, effective,
                                          resolved, observer);
  if (run.ok()) CountTerminal(run->execution);
  record_latency();
  return run;
}

Result<core::MatchResult> Matcher::ScatterGeneration(
    const ShardedPin& pin, const MatchRequest& request,
    const core::ClusterState& state, const core::MatchOptions& effective,
    const core::ExecutionControl& resolved) {
  const core::Bellflower& matcher = pin.matcher();
  // Partition the global cluster list by owning shard (clusters never span
  // trees, so every cluster has exactly one owner).
  const size_t k = pin.num_shards();
  std::vector<std::vector<size_t>> subsets(k);
  size_t active = 0;
  for (size_t ci = 0; ci < state.clustering.clusters.size(); ++ci) {
    const size_t s = pin.plan().shard_of(state.clustering.clusters[ci].tree);
    if (subsets[s].empty()) ++active;
    subsets[s].push_back(ci);
  }
  if (active <= 1) {
    return matcher.MatchWithState(request.personal, state, effective,
                                  resolved);
  }

  // Scatter generation: one restricted MatchWithState per owning shard
  // against the shared global state. Exactness: disjoint subsets emit
  // exactly the mappings of one unrestricted run, and any mapping a shard's
  // adaptive ratchet (or the shared δ floor below) prunes is provably
  // outside the global top N.
  fanouts_->Increment();
  Timer generation_timer;
  std::vector<Result<core::MatchResult>> shard_results;
  {
    obs::ScopedSpan fan_span(resolved.trace, "shard_fanout");
    if (resolved.trace != nullptr) {
      fan_span.set_note(std::to_string(active) + "/" + std::to_string(k) +
                        " shards");
    }
    // Shared adaptive-δ floor: once the merged results hold top_n mappings,
    // shard tasks starting later raise their δ to the global N-th best —
    // pure work savings, the top N is unchanged.
    const bool share_floor = effective.adaptive_top_n &&
                             effective.top_n > 0 &&
                             !effective.include_partial_mappings;
    std::mutex floor_mu;
    double floor = effective.delta;
    std::vector<double> top_deltas;
    auto read_floor = [&]() {
      if (!share_floor) return effective.delta;
      std::lock_guard<std::mutex> lock(floor_mu);
      return floor;
    };
    auto publish_deltas = [&](const std::vector<generate::SchemaMapping>& ms) {
      if (!share_floor) return;
      std::lock_guard<std::mutex> lock(floor_mu);
      for (const generate::SchemaMapping& m : ms) {
        top_deltas.insert(std::upper_bound(top_deltas.begin(),
                                           top_deltas.end(), m.delta,
                                           std::greater<double>()),
                          m.delta);
        if (top_deltas.size() > effective.top_n) top_deltas.pop_back();
      }
      if (top_deltas.size() == effective.top_n) {
        floor = std::max(floor, top_deltas.back());
      }
    };

    std::vector<std::future<Result<core::MatchResult>>> futures;
    futures.reserve(active);
    for (size_t s = 0; s < k; ++s) {
      if (subsets[s].empty()) continue;
      futures.push_back(fanout_pool_->Submit(
          [&, s]() -> Result<core::MatchResult> {
            core::MatchOptions task_options = effective;
            task_options.delta = std::max(task_options.delta, read_floor());
            core::ExecutionControl task_control = resolved;
            // The shard_fanout span times the scatter as a whole; per-shard
            // generation spans would repeat once per active shard.
            task_control.trace = nullptr;
            Result<core::MatchResult> run = matcher.MatchWithState(
                request.personal, state, task_options, task_control,
                /*observer=*/nullptr, &subsets[s]);
            if (run.ok()) publish_deltas(run->mappings);
            return run;
          }));
    }
    shard_results.reserve(futures.size());
    for (auto& future : futures) {
      shard_results.push_back(future.get());
    }
  }
  for (const auto& run : shard_results) {
    XSM_RETURN_NOT_OK(run.status());
  }

  // Gather: the same deterministic reduction the engine performs as its
  // stage ⑤ (sort by MappingOrder, truncate to top N).
  obs::ScopedSpan merge_span(resolved.trace, "shard_merge");
  core::MatchResult merged;
  // State-wide stats fields are identical in every restricted run; start
  // from the first and re-accumulate the per-run ones.
  merged.stats = shard_results[0].value().stats;
  merged.stats.num_clusters = state.clustering.clusters.size();
  merged.stats.num_useful_clusters = 0;
  merged.stats.search_space = 0;
  merged.stats.generator = {};
  merged.stats.partial_generator = {};
  merged.stats.structural_evaluations = 0;
  merged.stats.time_structural_seconds = 0;
  merged.stats.partials_until_first_mapping = 0;
  merged.stats.clusters_until_first_mapping = 0;
  merged.stats.num_mappings = 0;
  merged.stats.clusters_skipped_by_bound = 0;
  merged.stats.cluster_summaries.clear();
  double useful_pairs = 0;
  for (auto& run : shard_results) {
    core::MatchResult& r = run.value();
    if (StatusRank(r.execution) > StatusRank(merged.execution)) {
      merged.execution = r.execution;
    }
    std::move(r.mappings.begin(), r.mappings.end(),
              std::back_inserter(merged.mappings));
    std::move(r.partial_mappings.begin(), r.partial_mappings.end(),
              std::back_inserter(merged.partial_mappings));
    merged.stats.num_useful_clusters += r.stats.num_useful_clusters;
    merged.stats.search_space += r.stats.search_space;
    // num_mappings counts what generation materialized before the final
    // top-N cut, so sum the per-run pre-truncation counts rather than
    // sizing the merged (per-shard already truncated) list. Without
    // adaptive pruning the sum equals the K = 1 count exactly (disjoint
    // subsets); with adaptive top-N it may exceed it slightly — each
    // shard's δ ratchet sees only its own clusters — which is pure work
    // accounting: the merged top N is unchanged.
    merged.stats.num_mappings += r.stats.num_mappings;
    merged.stats.clusters_skipped_by_bound +=
        r.stats.clusters_skipped_by_bound;
    useful_pairs += r.stats.avg_elements_per_useful_cluster *
                    static_cast<double>(r.stats.num_useful_clusters);
    merged.stats.generator += r.stats.generator;
    merged.stats.partial_generator += r.stats.partial_generator;
    merged.stats.structural_evaluations += r.stats.structural_evaluations;
    merged.stats.time_structural_seconds += r.stats.time_structural_seconds;
    merged.stats.partials_until_first_mapping +=
        r.stats.partials_until_first_mapping;
    merged.stats.clusters_until_first_mapping +=
        r.stats.clusters_until_first_mapping;
    std::move(r.stats.cluster_summaries.begin(),
              r.stats.cluster_summaries.end(),
              std::back_inserter(merged.stats.cluster_summaries));
  }
  merged.stats.avg_elements_per_useful_cluster =
      merged.stats.num_useful_clusters == 0
          ? 0.0
          : useful_pairs /
                static_cast<double>(merged.stats.num_useful_clusters);
  std::sort(merged.mappings.begin(), merged.mappings.end(),
            generate::MappingOrder());
  if (effective.top_n > 0 && merged.mappings.size() > effective.top_n) {
    merged.mappings.resize(effective.top_n);
  }
  std::sort(merged.partial_mappings.begin(), merged.partial_mappings.end(),
            generate::PartialMappingOrder());
  merged.stats.num_partial_mappings = merged.partial_mappings.size();
  merged.stats.time_generation_seconds = generation_timer.ElapsedSeconds();
  return merged;
}

MatchHandle Matcher::Submit(RepositoryPinPtr pin, MatchRequest request,
                            core::ExecutionControl control,
                            core::MatchObserver* observer) {
  Status checked = CheckPin(pin);
  if (!checked.ok()) {
    std::promise<Result<core::MatchResult>> failed;
    failed.set_value(checked);
    return MatchHandle(core::CancelToken(), failed.get_future());
  }
  // Resolve the default deadline now: time spent queued counts against it.
  control = ResolveControl(std::move(control));
  core::CancelToken token = control.cancel;
  // Pool queue wait is the admission-side span: it starts now and ends
  // when a worker picks the request up.
  const double submitted_ms =
      control.trace != nullptr ? control.trace->NowMs() : 0;
  std::future<Result<core::MatchResult>> future =
      pool_.Submit([this, pin = std::move(pin), request = std::move(request),
                    control = std::move(control), submitted_ms, observer]() {
        if (control.trace != nullptr) {
          control.trace->AddSpan("queue_wait", "", submitted_ms,
                                 control.trace->NowMs() - submitted_ms);
        }
        return Execute(pin, request, control, observer);
      });
  return MatchHandle(std::move(token), std::move(future));
}

BatchMatchResult Matcher::RunBatch(std::vector<MatchRequest> requests) {
  batches_->Increment();
  // One pin for the whole batch: all members run against the same
  // generation, so the result set is internally consistent even when
  // deltas land mid-batch — and the result records which generation that
  // was, so provenance never has to race CurrentGeneration().
  RepositoryPinPtr pin = Pin();
  BatchMatchResult batch;
  batch.generation = pin->generation();
  batch.fingerprint = pin->fingerprint();
  std::vector<std::future<Result<core::MatchResult>>> futures;
  futures.reserve(requests.size());
  for (MatchRequest& request : requests) {
    futures.push_back(pool_.Submit([this, pin, request = std::move(request)]() {
      return Execute(pin, request, core::ExecutionControl(), nullptr);
    }));
  }
  batch.results.reserve(futures.size());
  for (auto& future : futures) {
    batch.results.push_back(future.get());
  }
  return batch;
}

Result<ClusterStatePtr> Matcher::ClusterStateFor(const RepositoryPinPtr& pin,
                                                 const MatchRequest& request) {
  XSM_RETURN_NOT_OK(CheckPin(pin));
  return ClusterState(
      pin, request.personal,
      core::ClusterStateOptions::From(EffectiveOptionsFor(request, *pin)),
      /*trace=*/nullptr);
}

// ---------------------------------------------------------------------------
// Deltas / rebalancing.
// ---------------------------------------------------------------------------

Result<live::ApplyReport> Matcher::ApplyDelta(
    const live::RepositoryDelta& delta, obs::TraceContext* trace) {
  // One critical section across publication *and* cache registration:
  // without it two ApplyDelta callers could register their namespaces in
  // the opposite order, leaving a superseded generation in the
  // most-recently-published slot and trimming the current one.
  std::lock_guard<std::mutex> lock(apply_mu_);
  live::ApplyReport report;
  if (num_shards() == 1) {
    XSM_ASSIGN_OR_RETURN(report, managers_[0]->Apply(delta, trace));
  } else {
    XSM_ASSIGN_OR_RETURN(report, ApplyShardedLocked(delta, trace));
  }
  deltas_applied_->Increment();
  // Materialize (or revive) the new generation's cache namespaces and let
  // the retention policy retire the oldest ones.
  PublishCaches(*Pin());
  return report;
}

Result<live::ApplyReport> Matcher::ApplyShardedLocked(
    const live::RepositoryDelta& delta, obs::TraceContext* trace) {
  std::shared_ptr<const ShardedPin> pin;
  {
    std::lock_guard<std::mutex> pin_lock(pin_mu_);
    pin = pin_;
  }
  const ShardPlan& plan = pin->plan();
  const size_t k = managers_.size();
  const auto num_global = static_cast<schema::TreeId>(plan.num_trees());

  // Route every op to its owning shard (adds go to the last shard; the
  // rebalance pass below restores balance when they pile up), validating
  // all targets before anything is applied.
  std::vector<live::DeltaBuilder> builders(k);
  std::vector<bool> has_ops(k, false);
  for (const live::DeltaOp& op : delta.ops()) {
    switch (op.kind) {
      case live::DeltaOpKind::kAdd: {
        builders[k - 1].AddTree(op.tree, op.source);
        has_ops[k - 1] = true;
        break;
      }
      case live::DeltaOpKind::kReplace: {
        if (op.target < 0 || op.target >= num_global) {
          return Status::InvalidArgument("replace targets a nonexistent tree");
        }
        const size_t s = plan.shard_of(op.target);
        builders[s].ReplaceTree(plan.to_local(op.target), op.tree, op.source);
        has_ops[s] = true;
        break;
      }
      case live::DeltaOpKind::kRemove: {
        if (op.target < 0 || op.target >= num_global) {
          return Status::InvalidArgument("remove targets a nonexistent tree");
        }
        const size_t s = plan.shard_of(op.target);
        builders[s].RemoveTree(plan.to_local(op.target));
        has_ops[s] = true;
        break;
      }
    }
  }
  // Build (and thereby validate) every shard delta before applying any, so
  // a malformed delta leaves all shards untouched.
  std::vector<std::pair<size_t, live::RepositoryDelta>> shard_deltas;
  for (size_t s = 0; s < k; ++s) {
    if (!has_ops[s]) continue;
    XSM_ASSIGN_OR_RETURN(live::RepositoryDelta shard_delta,
                         builders[s].Build());
    shard_deltas.emplace_back(s, std::move(shard_delta));
  }

  // Apply shard by shard. Per-shard removals close gaps within the shard,
  // so the concatenated global ordering matches what a K = 1 manager would
  // publish. A WAL failure mid-sequence leaves the same state a crash
  // between per-shard journal appends would — Recover heals it.
  live::ApplyReport merged;
  for (auto& [s, shard_delta] : shard_deltas) {
    XSM_ASSIGN_OR_RETURN(live::ApplyReport report,
                         managers_[s]->Apply(shard_delta, trace));
    merged.trees_reused += report.trees_reused;
    merged.trees_rebuilt += report.trees_rebuilt;
    merged.name_entries_copied += report.name_entries_copied;
    merged.name_entries_computed += report.name_entries_computed;
    merged.build_seconds += report.build_seconds;
  }
  ++generation_;

  std::vector<std::shared_ptr<const RepositorySnapshot>> shards;
  shards.reserve(k);
  for (auto& manager : managers_) {
    shards.push_back(manager->Current());
  }
  XSM_RETURN_NOT_OK(MaybeRebalance(&shards, trace));

  auto new_pin = ShardedPin::Build(std::move(shards), generation_);
  {
    std::lock_guard<std::mutex> pin_lock(pin_mu_);
    pin_ = new_pin;
  }
  merged.generation = generation_;
  merged.fingerprint = new_pin->fingerprint();
  merged.trees_total = new_pin->forest().num_trees();
  // merged.snapshot stays null: there is no single snapshot object for the
  // federated view; callers read the scalar fields.
  return merged;
}

Status Matcher::MaybeRebalance(
    std::vector<std::shared_ptr<const RepositorySnapshot>>* shards,
    obs::TraceContext* trace) {
  const size_t k = shards->size();
  std::vector<size_t> counts;
  std::vector<size_t> nodes;
  std::vector<std::shared_ptr<const schema::SchemaTree>> payloads;
  std::vector<std::string> sources;
  counts.reserve(k);
  for (const auto& shard : *shards) {
    const schema::SchemaForest& forest = shard->forest();
    counts.push_back(forest.num_trees());
    for (schema::TreeId t = 0;
         t < static_cast<schema::TreeId>(forest.num_trees()); ++t) {
      nodes.push_back(forest.tree(t).size());
      payloads.push_back(forest.tree_ptr(t));
      sources.push_back(forest.source(t));
    }
  }
  ShardPlan current = ShardPlan::FromShardTreeCounts(counts);
  if (current.Imbalance(nodes) <= kRebalanceThreshold) {
    return Status::OK();
  }
  ShardPlan target = ShardPlan::Balanced(nodes, k);
  if (target == current) return Status::OK();

  obs::ScopedSpan rebalance_span(trace, "shard_rebalance");
  for (size_t s = 0; s < k; ++s) {
    if (target.first_tree(s) == current.first_tree(s) &&
        target.shard_trees(s) == current.shard_trees(s)) {
      continue;  // range unchanged: keep the manager (and its WAL) as is
    }
    // Copy-on-write successor for the shard's new range: trees that stay
    // in the shard reuse its index/dictionary state (payload pointer
    // equality is the certificate); trees migrating in are rebuilt.
    const std::shared_ptr<const RepositorySnapshot>& previous = (*shards)[s];
    std::unordered_map<const schema::SchemaTree*, schema::TreeId> prev_ids;
    for (schema::TreeId t = 0;
         t < static_cast<schema::TreeId>(previous->num_trees()); ++t) {
      prev_ids[previous->forest().tree_ptr(t).get()] = t;
    }
    schema::SchemaForest sub;
    std::vector<schema::TreeId> reuse;
    reuse.reserve(target.shard_trees(s));
    for (size_t g = static_cast<size_t>(target.first_tree(s));
         g < static_cast<size_t>(target.first_tree(s)) + target.shard_trees(s);
         ++g) {
      sub.AddTree(payloads[g], sources[g]);
      auto it = prev_ids.find(payloads[g].get());
      reuse.push_back(it == prev_ids.end() ? -1 : it->second);
    }
    XSM_ASSIGN_OR_RETURN(
        std::shared_ptr<const RepositorySnapshot> successor,
        RepositorySnapshot::CreateSuccessor(previous, std::move(sub), reuse));
    auto manager = std::make_unique<live::RepositoryManager>(successor);
    manager->SetMetrics(manager_metrics_);
    if (!wal_prefix_.empty()) {
      // The shard's journal base moved with its chain; a fresh journal at
      // the successor generation replaces it (the re-checkpoint below
      // makes recovery consistent again).
      XSM_RETURN_NOT_OK(
          manager->AttachWal(env_, ShardFilePath(wal_prefix_, s)));
    }
    managers_[s] = std::move(manager);
    (*shards)[s] = std::move(successor);
  }
  rebalances_->Increment();
  // Re-checkpoint so on-disk shard snapshots describe the new plan (the
  // rebalanced shards' journals restarted above).
  if (!snap_prefix_.empty()) {
    XSM_RETURN_NOT_OK(SaveLocked(snap_prefix_, trace).status());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Persistence.
// ---------------------------------------------------------------------------

Result<store::SnapshotFileInfo> Matcher::SaveSnapshot(
    const std::string& path, obs::TraceContext* trace) const {
  // K = 1: the manager saves the snapshot pinned at entry, whole and
  // consistent, alongside concurrent queries and deltas.
  if (num_shards() == 1) return managers_[0]->SaveSnapshot(path, trace);
  std::lock_guard<std::mutex> lock(apply_mu_);
  XSM_ASSIGN_OR_RETURN(store::SnapshotFileInfo info, SaveLocked(path, trace));
  snap_prefix_ = path;
  return info;
}

Result<store::SnapshotFileInfo> Matcher::SaveLocked(
    const std::string& path, obs::TraceContext* trace) const {
  store::SnapshotFileInfo aggregate;
  for (size_t s = 0; s < managers_.size(); ++s) {
    XSM_ASSIGN_OR_RETURN(
        store::SnapshotFileInfo info,
        managers_[s]->SaveSnapshot(ShardFilePath(path, s), trace));
    aggregate.format_version = info.format_version;
    aggregate.trees += info.trees;
    aggregate.total_nodes += info.total_nodes;
    aggregate.total_bytes += info.total_bytes;
  }
  Manifest manifest;
  manifest.shards = managers_.size();
  manifest.generation = generation_;
  manifest.fingerprint = ContentFingerprint(managers_);
  // Shard files first, manifest last: the manifest is the commit point of
  // the whole multi-file save, written through the same Env as the shards.
  XSM_RETURN_NOT_OK(util::io::AtomicFileWriter::WriteFileAtomic(
      env_ != nullptr ? env_ : util::io::Env::Default(), path,
      EncodeManifest(manifest)));
  aggregate.generation = manifest.generation;
  aggregate.fingerprint = manifest.fingerprint;
  return aggregate;
}

Status Matcher::AttachWal(util::io::Env* env, const std::string& wal_path) {
  std::lock_guard<std::mutex> lock(apply_mu_);
  for (size_t s = 0; s < managers_.size(); ++s) {
    XSM_RETURN_NOT_OK(managers_[s]->AttachWal(
        env, num_shards() == 1 ? wal_path : ShardFilePath(wal_path, s)));
  }
  env_ = env;
  wal_prefix_ = wal_path;
  return Status::OK();
}

bool Matcher::wal_attached() const {
  std::lock_guard<std::mutex> lock(apply_mu_);
  for (const auto& manager : managers_) {
    if (!manager->wal_attached()) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Caches / stats.
// ---------------------------------------------------------------------------

std::shared_ptr<ClusterIndexCache> Matcher::CacheFor(size_t set,
                                                     uint64_t fingerprint,
                                                     bool enforce_retention) {
  std::lock_guard<std::mutex> lock(caches_mu_);
  CacheSet& cs = cache_sets_[set];
  // Namespaces are ordered by publication recency (most recent last), and
  // only publication sites reorder: a query touch must not let a stale
  // straggler's namespace outrank — and later outlive — a recently
  // published generation's warm cache.
  std::shared_ptr<ClusterIndexCache> cache;
  for (size_t i = 0; i < cs.namespaces.size(); ++i) {
    if (cs.namespaces[i].fingerprint != fingerprint) continue;
    cache = cs.namespaces[i].cache;
    if (enforce_retention && i + 1 != cs.namespaces.size()) {
      // Re-published (e.g. a delta restored this content): move to back.
      CacheNamespace ns = std::move(cs.namespaces[i]);
      cs.namespaces.erase(cs.namespaces.begin() + static_cast<ptrdiff_t>(i));
      cs.namespaces.push_back(std::move(ns));
    }
    break;
  }
  if (cache == nullptr) {
    CacheNamespace ns;
    ns.fingerprint = fingerprint;
    ns.cache =
        std::make_shared<ClusterIndexCache>(options_.cluster_cache_capacity);
    cache = ns.cache;
    if (enforce_retention) {
      cs.namespaces.push_back(std::move(ns));
    } else {
      // Query-path creation (a query pinned to an already-retired
      // generation): least-retained position, first to be trimmed.
      cs.namespaces.insert(cs.namespaces.begin(), std::move(ns));
    }
  }
  if (enforce_retention) {
    const size_t limit = 1 + options_.cache_retained_generations;
    while (cs.namespaces.size() > limit) {
      // Retire the least recently published namespace, keeping its
      // counters (and counting its resident states as evictions) so
      // stats() stays cumulative. The namespace just touched sits at the
      // back, so the one being published is never the one retired.
      ClusterIndexCache::Stats dropped = cs.namespaces.front().cache->stats();
      cs.retired.hits += dropped.hits;
      cs.retired.shared += dropped.shared;
      cs.retired.misses += dropped.misses;
      cs.retired.evictions += dropped.evictions + dropped.entries;
      cs.namespaces.erase(cs.namespaces.begin());
    }
  }
  return cache;
}

void Matcher::PublishCaches(const RepositoryPin& pin) {
  CacheFor(0, pin.fingerprint(), /*enforce_retention=*/true);
  if (num_shards() == 1) return;
  const auto& sharded = static_cast<const ShardedPin&>(pin);
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    CacheFor(1 + s, sharded.shard(s)->fingerprint(),
             /*enforce_retention=*/true);
  }
}

void Matcher::ClearCache() {
  std::lock_guard<std::mutex> lock(caches_mu_);
  for (CacheSet& cs : cache_sets_) {
    for (CacheNamespace& ns : cs.namespaces) {
      ns.cache->Clear();
    }
  }
}

ServiceStats Matcher::stats() const {
  ServiceStats s;
  s.queries = queries_->value();
  s.batches = batches_->value();
  s.cancelled = cancelled_->value();
  s.deadline_exceeded = deadline_exceeded_->value();
  s.early_stopped = early_stopped_->value();
  s.generation = CurrentGeneration();
  s.deltas_applied = deltas_applied_->value();
  s.slow_queries = slow_queries_->value();
  std::lock_guard<std::mutex> lock(caches_mu_);
  for (const CacheSet& cs : cache_sets_) {
    s.cache_namespaces += cs.namespaces.size();
    s.cache.hits += cs.retired.hits;
    s.cache.shared += cs.retired.shared;
    s.cache.misses += cs.retired.misses;
    s.cache.evictions += cs.retired.evictions;
    for (const CacheNamespace& ns : cs.namespaces) {
      ClusterIndexCache::Stats live = ns.cache->stats();
      s.cache.hits += live.hits;
      s.cache.shared += live.shared;
      s.cache.misses += live.misses;
      s.cache.evictions += live.evictions;
      s.cache.entries += live.entries;
    }
  }
  return s;
}

}  // namespace xsm::service
