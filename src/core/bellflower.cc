#include "core/bellflower.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>

#include "core/match_observer.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace xsm::core {

using generate::SchemaMapping;
using schema::NodeRef;

namespace {

// The best `capacity` mappings of one run so far (capacity 0 = all of
// them), held as indices into the run's output vector in MappingOrder. It
// ranks each new mapping as it is emitted and, once full, names the N-th
// best Δ — the adaptive top-N floor — in O(1).
class RunningTopN {
 public:
  RunningTopN(const std::vector<SchemaMapping>* mappings, size_t capacity)
      : mappings_(mappings), capacity_(capacity) {}

  // Records mappings->back(). Returns its 1-based rank among every mapping
  // recorded so far, or 0 when that rank exceeds the capacity. A kept rank
  // is exact: everything outside the kept set ranks below the worst kept.
  size_t Add() {
    const size_t index = mappings_->size() - 1;
    auto before = [this](size_t a, size_t b) {
      return generate::MappingOrder()((*mappings_)[a], (*mappings_)[b]);
    };
    if (full() && !before(index, order_.back())) return 0;
    auto pos = std::upper_bound(order_.begin(), order_.end(), index, before);
    const size_t rank = static_cast<size_t>(pos - order_.begin()) + 1;
    order_.insert(pos, index);
    if (capacity_ > 0 && order_.size() > capacity_) order_.pop_back();
    return rank;
  }

  bool full() const { return capacity_ > 0 && order_.size() == capacity_; }

  // Δ of the worst kept mapping: the N-th best Δ so far once full().
  double floor_delta() const { return (*mappings_)[order_.back()].delta; }

 private:
  const std::vector<SchemaMapping>* mappings_;
  size_t capacity_;
  std::vector<size_t> order_;
};

// Merges each ME_n (NodeRef-sorted) against the sorted points and charges
// every element to its point's cluster: O(m·|points| + |ME|) time, with a
// point → cluster map as the only temporary.
ClusterProfile ProfileClusters(const match::ElementMatchingResult& matching,
                               const std::vector<cluster::ClusterPoint>& points,
                               const cluster::ClusteringResult& clustering) {
  const size_t m = matching.sets.size();
  ClusterProfile profile;
  profile.num_personal_nodes = m;
  profile.counts.assign(clustering.clusters.size() * m, 0);
  profile.max_scores.assign(clustering.clusters.size() * m, 0.0);
  constexpr size_t kNoCluster = std::numeric_limits<size_t>::max();
  std::vector<size_t> cluster_of(points.size(), kNoCluster);
  for (size_t ci = 0; ci < clustering.clusters.size(); ++ci) {
    for (int32_t member : clustering.clusters[ci].members) {
      cluster_of[static_cast<size_t>(member)] = ci;
    }
  }
  for (size_t n = 0; n < m; ++n) {
    size_t p = 0;
    for (const match::MappingElement& element : matching.sets[n].elements) {
      while (p < points.size() && points[p].node < element.node) ++p;
      if (p == points.size()) break;
      if (points[p].node != element.node || cluster_of[p] == kNoCluster) {
        continue;
      }
      const size_t slot = cluster_of[p] * m + n;
      ++profile.counts[slot];
      profile.max_scores[slot] =
          std::max(profile.max_scores[slot], element.score);
    }
  }
  return profile;
}

// The admissible Δ bound of cluster `ci` (see Bellflower::ClusterDeltaBound);
// `node_bound` is scratch space.
double ClusterBound(const ClusterProfile& profile, size_t ci,
                    const MatchOptions& options,
                    const generate::MappingGenerator& generator,
                    std::vector<double>* node_bound) {
  const size_t m = profile.num_personal_nodes;
  const double* best = profile.max_scores.data() + ci * m;
  node_bound->assign(best, best + m);
  if (options.structural_matcher != nullptr) {
    // Rescoring computes (1 − w)·score + w·structural. With w ∈ [0,1] and
    // structural ≤ 1 the same operations on (best, 1) bound it; w·1 == w.
    const double w = options.structural_weight;
    if (!(w >= 0.0 && w <= 1.0)) {
      return std::numeric_limits<double>::infinity();
    }
    for (double& b : *node_bound) b = (1.0 - w) * b + w;
  }
  return generator.DeltaBound(*node_bound);
}

}  // namespace

Bellflower::Bellflower(const schema::SchemaForest* repository)
    : repository_(repository) {
  index_ = label::ForestIndex::Build(*repository);
}

Bellflower::Bellflower(const schema::SchemaForest* repository,
                       label::ForestIndex index)
    : repository_(repository), index_(std::move(index)) {
  assert(index_.num_trees() == repository_->num_trees());
}

double Bellflower::ResolveK(const objective::ObjectiveParams& params) const {
  if (params.k_norm > 0) return params.k_norm;
  return std::max(1, index_.max_diameter() - 1);
}

objective::BellflowerObjective Bellflower::Objective(
    const schema::SchemaTree& personal, const MatchOptions& options) const {
  return objective::BellflowerObjective(
      options.objective.alpha, ResolveK(options.objective),
      static_cast<int>(personal.size()),
      static_cast<int>(personal.num_edges()));
}

generate::ClusterCandidates BuildClusterCandidates(
    const cluster::Cluster& cluster,
    const std::vector<cluster::ClusterPoint>& points,
    const match::ElementMatchingResult& matching) {
  generate::ClusterCandidates cands;
  cands.tree = cluster.tree;
  cands.candidates.resize(matching.sets.size());
  std::vector<int32_t> members = cluster.members;
  std::sort(members.begin(), members.end(), [&points](int32_t a, int32_t b) {
    return points[static_cast<size_t>(a)].node <
           points[static_cast<size_t>(b)].node;
  });
  auto node_less = [](const match::MappingElement& e, const NodeRef& node) {
    return e.node < node;
  };
  for (size_t n = 0; n < matching.sets.size(); ++n) {
    // Bit n of a member's mask says it is in ME_n; members ascend, so each
    // search resumes where the previous one ended.
    const auto& me = matching.sets[n].elements;
    auto& dst = cands.candidates[n];
    auto from = me.begin();
    for (int32_t m : members) {
      const cluster::ClusterPoint& point = points[static_cast<size_t>(m)];
      if ((point.personal_mask >> n & 1u) == 0) continue;
      from = std::lower_bound(from, me.end(), point.node, node_less);
      if (from == me.end()) break;
      if (from->node == point.node) dst.push_back(*from++);
    }
  }
  return cands;
}

Result<MatchResult> Bellflower::Match(const schema::SchemaTree& personal,
                                      const MatchOptions& options) const {
  XSM_RETURN_NOT_OK(options.objective.Validate());
  if (options.delta < 0.0 || options.delta > 1.0) {
    return Status::InvalidArgument("delta must be in [0,1]");
  }
  XSM_ASSIGN_OR_RETURN(
      ClusterState state,
      BuildClusterState(personal, ClusterStateOptions::From(options)));
  return MatchWithStateImpl(personal, state, options, nullptr, nullptr);
}

Result<MatchResult> Bellflower::Match(const schema::SchemaTree& personal,
                                      const MatchOptions& options,
                                      const ExecutionControl& control,
                                      MatchObserver* observer) const {
  XSM_RETURN_NOT_OK(options.objective.Validate());
  if (options.delta < 0.0 || options.delta > 1.0) {
    return Status::InvalidArgument("delta must be in [0,1]");
  }
  // Already cancelled / past deadline: don't pay for preprocessing.
  ExecutionMonitor pre(control);
  if (pre.ShouldStop()) {
    MatchResult result;
    result.stats.repository_nodes = repository_->total_nodes();
    result.stats.repository_trees = repository_->num_trees();
    result.execution = pre.status();
    if (observer != nullptr) observer->OnFinish(result);
    return result;
  }
  // The element-matching stage polls `control` too; a build it stops comes
  // back as kCancelled / kDeadlineExceeded and is folded into the same
  // partial-result contract as a stop during generation.
  Result<ClusterState> built =
      BuildClusterState(personal, ClusterStateOptions::From(options),
                        &control);
  if (!built.ok()) {
    const StatusCode code = built.status().code();
    if (code == StatusCode::kCancelled ||
        code == StatusCode::kDeadlineExceeded) {
      MatchResult result;
      result.stats.repository_nodes = repository_->total_nodes();
      result.stats.repository_trees = repository_->num_trees();
      result.execution = code == StatusCode::kCancelled
                             ? ExecutionStatus::kCancelled
                             : ExecutionStatus::kDeadlineExceeded;
      if (observer != nullptr) observer->OnFinish(result);
      return result;
    }
    return built.status();
  }
  return MatchWithStateImpl(personal, built.value(), options, &control,
                            observer);
}

Result<ClusterState> Bellflower::BuildClusterState(
    const schema::SchemaTree& personal, const ClusterStateOptions& options,
    const ExecutionControl* control) const {
  if (personal.empty()) {
    return Status::InvalidArgument("personal schema is empty");
  }
  XSM_RETURN_NOT_OK(personal.Validate());

  ClusterState state;

  // --- Stage ②③: element matching. ---------------------------------------
  Timer timer;
  match::ElementMatchingOptions element = options.element;
  if (element.control == nullptr) element.control = control;
  obs::TraceContext* trace =
      element.control != nullptr ? element.control->trace : nullptr;
  {
    obs::ScopedSpan span(trace, "element_match");
    XSM_ASSIGN_OR_RETURN(
        state.matching,
        match::MatchElements(personal, *repository_, element));
  }
  return ClusterFromMatching(personal, std::move(state.matching),
                             timer.ElapsedSeconds(), options, control);
}

Result<ClusterState> Bellflower::ClusterFromMatching(
    const schema::SchemaTree& personal, match::ElementMatchingResult matching,
    double matching_seconds, const ClusterStateOptions& options,
    const ExecutionControl* control) const {
  ClusterState state;
  state.matching = std::move(matching);
  state.time_matching_seconds = matching_seconds;
  obs::TraceContext* trace = control != nullptr ? control->trace : nullptr;
  if (trace == nullptr && options.element.control != nullptr) {
    trace = options.element.control->trace;
  }

  if (state.matching.distinct_nodes.empty()) {
    return state;  // No mapping elements anywhere: nothing to cluster.
  }

  // Cluster points = distinct matched repository nodes. Element scores are
  // deliberately not part of a point: clustering depends only on node
  // positions and masks, which is what makes the state reusable across
  // generation-phase option changes (δ, top-N, structural matchers, ...).
  state.points.reserve(state.matching.distinct_nodes.size());
  for (size_t i = 0; i < state.matching.distinct_nodes.size(); ++i) {
    state.points.push_back(
        {state.matching.distinct_nodes[i], state.matching.masks[i]});
  }

  // --- Stage ⓒ: clustering. ----------------------------------------------
  Timer timer;
  obs::ScopedSpan cluster_span(trace, "clustering");
  if (options.clustering == ClusteringMode::kTreeClusters) {
    state.clustering = cluster::TreeClusters(state.points);
  } else {
    std::vector<size_t> set_sizes(personal.size());
    for (size_t i = 0; i < personal.size(); ++i) {
      set_sizes[i] = state.matching.sets[i].size();
    }
    cluster::KMeansClusterer clusterer(repository_, &index_);
    XSM_ASSIGN_OR_RETURN(
        state.clustering,
        clusterer.Cluster(state.points, set_sizes, options.kmeans));
  }
  state.time_clustering_seconds = timer.ElapsedSeconds();
  state.profile =
      ProfileClusters(state.matching, state.points, state.clustering);
  return state;
}

Result<MatchResult> Bellflower::MatchWithState(
    const schema::SchemaTree& personal, const ClusterState& state,
    const MatchOptions& options) const {
  return MatchWithStateImpl(personal, state, options, nullptr, nullptr);
}

Result<MatchResult> Bellflower::MatchWithState(
    const schema::SchemaTree& personal, const ClusterState& state,
    const MatchOptions& options, const ExecutionControl& control,
    MatchObserver* observer,
    const std::vector<size_t>* cluster_subset) const {
  return MatchWithStateImpl(personal, state, options, &control, observer,
                            cluster_subset);
}

Result<double> Bellflower::ClusterDeltaBound(
    const schema::SchemaTree& personal, const ClusterState& state,
    size_t cluster_index, const MatchOptions& options) const {
  XSM_RETURN_NOT_OK(options.objective.Validate());
  if (personal.empty()) {
    return Status::InvalidArgument("personal schema is empty");
  }
  if (!state.profile.Fits(state.clustering.clusters.size(), personal.size())) {
    return Status::InvalidArgument(
        "cluster state has no profile of its clustering");
  }
  if (cluster_index >= state.clustering.clusters.size()) {
    return Status::InvalidArgument("cluster index out of range");
  }
  generate::GeneratorOptions gen_options = options.generator;
  gen_options.delta = options.delta;
  const generate::MappingGenerator generator(
      personal, Objective(personal, options), gen_options);
  std::vector<double> node_bound;
  return ClusterBound(state.profile, cluster_index, options, generator,
                      &node_bound);
}

Result<MatchResult> Bellflower::MatchWithStateImpl(
    const schema::SchemaTree& personal, const ClusterState& state,
    const MatchOptions& options, const ExecutionControl* control,
    MatchObserver* observer,
    const std::vector<size_t>* cluster_subset) const {
  XSM_RETURN_NOT_OK(options.objective.Validate());
  if (options.delta < 0.0 || options.delta > 1.0) {
    return Status::InvalidArgument("delta must be in [0,1]");
  }
  if (personal.empty()) {
    return Status::InvalidArgument("personal schema is empty");
  }
  if (state.matching.sets.size() != personal.size()) {
    return Status::InvalidArgument(
        "cluster state was built for a different personal schema");
  }

  MatchResult result;
  MatchStats& stats = result.stats;
  stats.repository_nodes = repository_->total_nodes();
  stats.repository_trees = repository_->num_trees();
  stats.time_matching_seconds = state.time_matching_seconds;
  stats.total_mapping_elements = state.matching.total_mapping_elements();
  stats.distinct_mapping_nodes = state.matching.distinct_nodes.size();

  if (state.matching.distinct_nodes.empty()) {
    // No mapping elements anywhere: empty solution list.
    if (observer != nullptr) observer->OnFinish(result);
    return result;
  }

  // Cooperative execution: one monitor is shared by every generator call of
  // this run, so the cancel/deadline/early-exit verdict is checked at node-
  // expansion granularity and the emitted-mapping budget is global across
  // clusters. A null `control` never stops.
  ExecutionMonitor monitor;
  if (control != nullptr) monitor = ExecutionMonitor(*control);
  // With top_n > 0 one bounded running top-N ranks every emitted mapping,
  // observer or not: it feeds the adaptive floor below, so the search (and
  // its counters) is the same with and without an observer, and the
  // observer hears only mappings whose running rank is ≤ N — a superset of
  // the final top N. With top_n == 0 it is unbounded and every mapping
  // streams.
  const bool adaptive =
      options.adaptive_top_n && options.top_n > 0 &&
      options.generator.algorithm == generate::Algorithm::kBranchAndBound;
  RunningTopN running(&result.mappings, options.top_n);
  if (observer != nullptr || adaptive) {
    // The generators append to result.mappings and then fire the hook, so
    // the new mapping is always the last element. Under adaptive top-N the
    // floor the generator reads rises the moment the N-th best improves.
    monitor.on_emit = [&result, &running, &monitor, observer, adaptive]() {
      const size_t rank = running.Add();
      if (rank == 0) return;
      if (observer != nullptr) {
        observer->OnMapping(result.mappings.back(), rank);
      }
      if (adaptive && running.full()) {
        monitor.RaiseDeltaFloor(running.floor_delta());
      }
    };
  }
  if (observer != nullptr) {
    monitor.on_partial_emit = [&result, observer]() {
      observer->OnPartialMapping(result.partial_mappings.back());
    };
  }

  const std::vector<cluster::ClusterPoint>& points = state.points;
  const cluster::ClusteringResult& clustering = state.clustering;
  const ClusterProfile& profile = state.profile;
  const size_t m = personal.size();
  if (!profile.Fits(clustering.clusters.size(), m)) {
    return Status::InvalidArgument(
        "cluster state has no profile of its clustering");
  }
  stats.time_clustering_seconds = state.time_clustering_seconds;
  stats.kmeans = clustering.stats;
  // With a cluster subset, run-level stats describe the subset's share of
  // the work so per-shard stats sum to (roughly) the global run.
  const size_t num_considered = cluster_subset != nullptr
                                    ? cluster_subset->size()
                                    : clustering.clusters.size();
  stats.num_clusters = num_considered;
  if (cluster_subset != nullptr) {
    for (size_t ci : *cluster_subset) {
      if (ci >= clustering.clusters.size()) {
        return Status::InvalidArgument("cluster_subset index out of range");
      }
    }
  }

  // Two-phase baseline: structural matchers applied to *every* mapping
  // element (structural_within_clusters_only == false). Scores never
  // influence clustering, so rescoring a local copy here — after the
  // clustering stage — produces the same mappings as the historical
  // rescore-before-clustering order while keeping `state` immutable.
  const match::ElementMatchingResult* matching = &state.matching;
  match::ElementMatchingResult rescored;
  if (options.structural_matcher != nullptr &&
      !options.structural_within_clusters_only) {
    rescored = state.matching;
    Timer structural_timer;
    const double w = options.structural_weight;
    for (auto& set : rescored.sets) {
      if (monitor.ShouldStop()) break;
      for (auto& element : set.elements) {
        double structural = options.structural_matcher->Score(
            personal, set.personal_node, repository_->tree(element.node.tree),
            element.node.node);
        element.score = (1.0 - w) * element.score + w * structural;
        ++stats.structural_evaluations;
      }
    }
    stats.time_structural_seconds = structural_timer.ElapsedSeconds();
    matching = &rescored;
  }

  // --- Stage ④: per-cluster mapping generation. --------------------------
  Timer timer;
  obs::TraceContext* trace = control != nullptr ? control->trace : nullptr;
  std::optional<obs::ScopedSpan> generate_span;
  generate_span.emplace(trace, "generate");
  const objective::BellflowerObjective objective = Objective(personal, options);
  generate::GeneratorOptions gen_options = options.generator;
  gen_options.delta = options.delta;
  const generate::MappingGenerator generator(personal, objective, gen_options);

  // First pass: cluster summaries, O(m) per cluster from the profile.
  stats.cluster_summaries.reserve(num_considered);
  size_t useful_pairs = 0;
  std::vector<size_t> useful_order;
  std::vector<size_t> non_useful;
  // Summaries are pushed in iteration order; under a subset that order is
  // not the cluster index, so keep the ci → summary position map explicit.
  std::vector<size_t> summary_index(clustering.clusters.size(), 0);

  for (size_t pos = 0; pos < num_considered; ++pos) {
    const size_t ci = cluster_subset != nullptr ? (*cluster_subset)[pos] : pos;
    // A stop here leaves later clusters out of useful_order / non_useful,
    // so the generation loops skip them too.
    if (monitor.ShouldStop()) break;
    const cluster::Cluster& c = clustering.clusters[ci];
    ClusterSummary summary;
    summary.tree = c.tree;
    summary.num_points = c.members.size();
    summary.useful = true;
    double search_space = 1;  // ClusterCandidates::SearchSpaceSize's product
    for (size_t n = 0; n < m; ++n) {
      const uint32_t count = profile.counts[ci * m + n];
      summary.num_mapping_elements += count;
      summary.useful = summary.useful && count > 0;
      search_space *= static_cast<double>(count);
    }
    if (summary.useful) {
      summary.search_space = search_space;
      ++stats.num_useful_clusters;
      useful_pairs += summary.num_mapping_elements;
      stats.search_space += summary.search_space;
      useful_order.push_back(ci);
    } else {
      non_useful.push_back(ci);
    }
    summary_index[ci] = stats.cluster_summaries.size();
    stats.cluster_summaries.push_back(std::move(summary));
  }

  // Candidate lists are built where they are first read, once per cluster:
  // by the cluster's generation, by quality ordering (every useful cluster)
  // and by the partial-mapping generator (non-useful clusters). A cluster
  // skipped by bound never builds them.
  std::vector<generate::ClusterCandidates> all_candidates(
      clustering.clusters.size());
  auto candidates_of = [&](size_t ci) -> const generate::ClusterCandidates& {
    generate::ClusterCandidates& cands = all_candidates[ci];
    if (!cands.candidates.empty()) return cands;
    cands = BuildClusterCandidates(clustering.clusters[ci], points, *matching);
    if (options.structural_matcher != nullptr &&
        options.structural_within_clusters_only &&
        stats.cluster_summaries[summary_index[ci]].useful) {
      // The paper's two-phase technique: the structural matcher group only
      // sees elements inside (useful) clusters.
      Timer structural_timer;
      const double w = options.structural_weight;
      const schema::SchemaTree& repo_tree = repository_->tree(cands.tree);
      for (size_t n = 0; n < cands.candidates.size(); ++n) {
        for (auto& element : cands.candidates[n]) {
          double structural = options.structural_matcher->Score(
              personal, static_cast<schema::NodeId>(n), repo_tree,
              element.node.node);
          element.score = (1.0 - w) * element.score + w * structural;
          ++stats.structural_evaluations;
        }
      }
      stats.time_structural_seconds += structural_timer.ElapsedSeconds();
    }
    return cands;
  };

  // Cluster ordering (§7 future work): optimistic-Δ estimate per cluster.
  if (options.cluster_order == ClusterOrder::kQualityDescending &&
      !monitor.stopped()) {
    std::vector<schema::NodeId> order = personal.PreOrder();
    std::vector<double> quality(clustering.clusters.size(), 0.0);
    for (size_t ci : useful_order) {
      if (monitor.ShouldStop()) break;
      const generate::ClusterCandidates& cands = candidates_of(ci);
      double sim = 0;
      for (const auto& list : cands.candidates) {
        double mx = 0;
        for (const auto& e : list) mx = std::max(mx, e.score);
        sim += mx;
      }
      // Lower bound of the total path excess: per personal edge, the
      // minimum distance between the two candidate sets (≥ 1).
      const label::TreeIndex& tidx = index_.tree(cands.tree);
      int64_t excess = 0;
      for (schema::NodeId n : order) {
        if (personal.parent(n) == schema::kInvalidNode) continue;
        const auto& child_cands =
            cands.candidates[static_cast<size_t>(n)];
        const auto& parent_cands =
            cands.candidates[static_cast<size_t>(personal.parent(n))];
        int64_t best = label::ForestIndex::kInfiniteDistance;
        for (const auto& a : parent_cands) {
          for (const auto& b : child_cands) {
            if (a.node == b.node) continue;
            best = std::min<int64_t>(
                best, tidx.Distance(a.node.node, b.node.node));
            if (best <= 1) break;
          }
          if (best <= 1) break;
        }
        if (best < 1) best = 1;
        excess += best - 1;
      }
      quality[ci] = objective.UpperBound(
          0.0, sim, static_cast<int64_t>(personal.num_edges()) + excess,
          static_cast<int>(personal.num_edges()));
    }
    std::stable_sort(useful_order.begin(), useful_order.end(),
                     [&](size_t a, size_t b) {
                       return quality[a] > quality[b];
                     });
  }

  // Second pass: generate, tracking time-to-first-result. Under adaptive
  // top-N a cluster whose admissible bound is strictly below the floor
  // cannot place a mapping in the top N (ties at the floor still can), so
  // it is skipped whole; its start/finish events still fire.
  bool first_seen = false;
  const size_t total_useful = useful_order.size();
  size_t sequence = 0;
  std::vector<double> node_bound;
  for (size_t ci : useful_order) {
    if (monitor.ShouldStop()) break;
    const ClusterSummary& summary = stats.cluster_summaries[summary_index[ci]];
    if (observer != nullptr) {
      observer->OnClusterStart(sequence, total_useful, summary);
    }
    if (adaptive && running.full() &&
        ClusterBound(profile, ci, options, generator, &node_bound) <
            running.floor_delta()) {
      ++stats.clusters_skipped_by_bound;
    } else {
      const generate::ClusterCandidates& cands = candidates_of(ci);
      XSM_RETURN_NOT_OK(generator.Generate(cands, index_.tree(cands.tree),
                                           &result.mappings,
                                           &stats.generator, &monitor));
    }
    if (!first_seen) {
      ++stats.clusters_until_first_mapping;
      if (!result.mappings.empty()) {
        first_seen = true;
        stats.partials_until_first_mapping =
            stats.generator.partial_mappings;
      }
    }
    if (observer != nullptr) {
      stats.num_mappings = result.mappings.size();  // incremental snapshot
      observer->OnClusterFinish(sequence, total_useful, summary, stats);
    }
    ++sequence;
  }
  if (!first_seen) {
    stats.partials_until_first_mapping = stats.generator.partial_mappings;
  }

  // Partial mappings from non-useful clusters (§2.3 extension).
  if (options.include_partial_mappings) {
    generate::PartialMappingGenerator partial_generator(personal, objective,
                                                        options.partial);
    for (size_t ci : non_useful) {
      if (monitor.ShouldStop()) break;
      const generate::ClusterCandidates& cands = candidates_of(ci);
      XSM_RETURN_NOT_OK(partial_generator.Generate(
          cands, index_.tree(cands.tree), &result.partial_mappings,
          &stats.partial_generator, &monitor));
    }
    std::sort(result.partial_mappings.begin(),
              result.partial_mappings.end(),
              generate::PartialMappingOrder());
    stats.num_partial_mappings = result.partial_mappings.size();
  }

  stats.time_generation_seconds = timer.ElapsedSeconds();

  stats.avg_elements_per_useful_cluster =
      stats.num_useful_clusters == 0
          ? 0.0
          : static_cast<double>(useful_pairs) /
                static_cast<double>(stats.num_useful_clusters);

  // --- Stage ⑤: one ranked list. ------------------------------------------
  generate_span.reset();
  obs::ScopedSpan merge_span(trace, "topk_merge");
  stats.num_mappings = result.mappings.size();
  if (options.top_n > 0 && result.mappings.size() > options.top_n) {
    const auto kept = result.mappings.begin() +
                      static_cast<std::ptrdiff_t>(options.top_n);
    std::partial_sort(result.mappings.begin(), kept, result.mappings.end(),
                      generate::MappingOrder());
    result.mappings.erase(kept, result.mappings.end());
  } else {
    std::sort(result.mappings.begin(), result.mappings.end(),
              generate::MappingOrder());
  }
  result.execution = monitor.status();
  if (observer != nullptr) observer->OnFinish(result);
  return result;
}

}  // namespace xsm::core
