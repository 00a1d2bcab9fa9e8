// Adaptive top-N's cluster-level bound skip and live Δ floor. A cluster is
// skipped whole when its admissible bound (Bellflower::ClusterDeltaBound)
// is strictly below the N-th best Δ already found, and the branch-and-bound
// search reads that floor live. Neither may change what the caller sees:
// the top N, its Δs and the OnMapping stream equal the non-adaptive run's,
// and only the work counters fall.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "core/bellflower.h"
#include "core/execution_control.h"
#include "core/match_observer.h"
#include "generate/mapping_generator.h"
#include "label/tree_index.h"
#include "match/structural_matcher.h"
#include "objective/objective.h"
#include "repo/synthetic.h"
#include "schema/schema_forest.h"
#include "schema/schema_tree.h"

namespace xsm::core {
namespace {

using generate::SchemaMapping;
using schema::NodeId;
using schema::NodeRef;

// One mapping whose Δ the search's inner bound rounds below. Personal and
// repository tree are r(a(x),b), built r, a, b, x so that NodeIds are not in
// pre-order (r, a, x, b); each node's only candidate is its own copy, so
// every edge maps to a length-1 path. With these scores the pre-order sum
// rounds one ulp above the NodeId-order and reverse sums, and above the
// B&B bound at the root, which adds the right-folded tail to r's score.
struct OneMappingScenario {
  OneMappingScenario() {
    auto named = [](const char* name) {
      schema::NodeProperties props;
      props.name = name;
      return props;
    };
    const NodeId r = tree.AddNode(schema::kInvalidNode, named("r"));
    const NodeId a = tree.AddNode(r, named("a"));
    tree.AddNode(r, named("b"));
    tree.AddNode(a, named("x"));
    index = label::TreeIndex::Build(tree);
    cands.tree = 0;
    cands.candidates.resize(4);
    for (NodeId n = 0; n < 4; ++n) {
      cands.candidates[static_cast<size_t>(n)] = {
          {NodeRef{0, n}, scores[static_cast<size_t>(n)]}};
    }
  }

  schema::SchemaTree tree;  // personal schema and repository tree
  label::TreeIndex index;
  const std::vector<double> scores = {0.1, 0.2, 0.6, 0.9};
  generate::ClusterCandidates cands;
  objective::BellflowerObjective objective{0.5, 2.0, 4, 3};
};

// The bound sums the node scores in the search's pre-order with the
// search's own operations, so a mapping that attains every node's bound has
// exactly the bound as its Δ.
TEST(DeltaBoundTest, IsTheSearchsOwnSum) {
  OneMappingScenario s;
  ASSERT_EQ(s.tree.PreOrder(), (std::vector<NodeId>{0, 1, 3, 2}));
  generate::GeneratorOptions options;
  options.algorithm = generate::Algorithm::kExhaustive;
  options.delta = 0.0;
  generate::MappingGenerator generator(s.tree, s.objective, options);
  std::vector<SchemaMapping> out;
  generate::GeneratorCounters counters;
  ASSERT_TRUE(generator.Generate(s.cands, s.index, &out, &counters).ok());
  ASSERT_EQ(out.size(), 1u);
  const double bound = generator.DeltaBound(s.scores);
  EXPECT_LE(out[0].delta, bound);
  EXPECT_EQ(out[0].delta, bound);
}

// A mapping tying the live floor may still enter the top N (MappingOrder
// breaks the tie), so the search must not prune it, even where its inner
// bound rounds an ulp below its Δ.
TEST(DeltaBoundTest, LiveFloorKeepsATieTheInnerBoundRoundsBelow) {
  OneMappingScenario s;
  generate::GeneratorOptions options;  // branch and bound
  options.delta = 0.0;
  generate::MappingGenerator generator(s.tree, s.objective, options);
  const double tie = generator.DeltaBound(s.scores);
  ExecutionMonitor monitor;
  monitor.RaiseDeltaFloor(tie);
  std::vector<SchemaMapping> out;
  generate::GeneratorCounters counters;
  ASSERT_TRUE(
      generator.Generate(s.cands, s.index, &out, &counters, &monitor).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].delta, tie);

  // Strictly above the tie, the floor prunes it.
  monitor.RaiseDeltaFloor(std::nextafter(tie, 1.0));
  out.clear();
  ASSERT_TRUE(
      generator.Generate(s.cands, s.index, &out, &counters, &monitor).ok());
  EXPECT_TRUE(out.empty());
}

struct Event {
  SchemaMapping mapping;
  size_t rank = 0;
};

class Recorder : public MatchObserver {
 public:
  void OnClusterStart(size_t sequence, size_t total,
                      const ClusterSummary& summary) override {
    starts.emplace_back(sequence, total, summary.tree);
  }
  void OnClusterFinish(size_t sequence, size_t total,
                       const ClusterSummary& summary,
                       const MatchStats& stats_so_far) override {
    (void)stats_so_far;
    finishes.emplace_back(sequence, total, summary.tree);
  }
  void OnMapping(const SchemaMapping& mapping, size_t running_rank) override {
    events.push_back({mapping, running_rank});
  }
  std::vector<std::tuple<size_t, size_t, schema::TreeId>> starts;
  std::vector<std::tuple<size_t, size_t, schema::TreeId>> finishes;
  std::vector<Event> events;
};

using MappingKey = std::tuple<double, schema::TreeId, std::vector<NodeId>>;

MappingKey Key(const SchemaMapping& m) { return {m.delta, m.tree, m.images}; }

std::vector<MappingKey> Keys(const std::vector<SchemaMapping>& mappings) {
  std::vector<MappingKey> keys;
  for (const SchemaMapping& m : mappings) keys.push_back(Key(m));
  return keys;
}

std::vector<std::pair<MappingKey, size_t>> Stream(
    const std::vector<Event>& events, size_t max_rank) {
  std::vector<std::pair<MappingKey, size_t>> stream;
  for (const Event& e : events) {
    if (e.rank <= max_rank) stream.emplace_back(Key(e.mapping), e.rank);
  }
  return stream;
}

// N = 100 exceeds most result lists: the running top N never fills, so
// nothing may be skipped.
constexpr size_t kTopNs[] = {1, 3, 10, 100};

std::vector<size_t> AllClustersReversed(const ClusterState& state) {
  std::vector<size_t> order(state.clustering.clusters.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = order.size() - 1 - i;
  return order;
}

class ClusterBoundTest : public ::testing::Test {
 protected:
  // Synthetic corpora with four copies of one fixed tree appended. The
  // copies tie: person(name,phone) maps perfectly into each, so its
  // clusters' bounds equal the best Δ exactly, and ties at rank N occur.
  static void SetUpTestSuite() {
    for (uint64_t seed : {2u, 9u, 31u}) {
      repo::SyntheticRepoOptions options;
      options.target_elements = 1500;
      options.seed = seed;
      auto forest = repo::GenerateSyntheticRepository(options);
      ASSERT_TRUE(forest.ok()) << forest.status().ToString();
      for (int copy = 0; copy < 4; ++copy) {
        forest->AddTree(*schema::ParseTreeSpec(
            "contacts(person(name,phone,address,email),"
            "entry(name,email,phone))"));
      }
      forests_.push_back(
          std::make_unique<schema::SchemaForest>(std::move(*forest)));
    }
  }

  static void TearDownTestSuite() { forests_.clear(); }

  static MatchOptions Base(ClusteringMode mode) {
    MatchOptions options;
    options.element.threshold = 0.5;
    options.delta = 0.7;
    options.clustering = mode;
    return options;
  }

  // Every option the skip and the floor interact with.
  static std::vector<MatchOptions> Variants() {
    static const match::PathContextMatcher structural;
    std::vector<MatchOptions> variants;
    variants.push_back(Base(ClusteringMode::kKMeans));
    variants.push_back(Base(ClusteringMode::kTreeClusters));
    for (bool within : {true, false}) {
      MatchOptions o = Base(ClusteringMode::kKMeans);
      o.structural_matcher = &structural;
      o.structural_within_clusters_only = within;
      o.delta = 0.5;
      variants.push_back(o);
    }
    MatchOptions partial = Base(ClusteringMode::kKMeans);
    partial.include_partial_mappings = true;
    partial.partial.delta = 0.5;
    variants.push_back(partial);
    MatchOptions quality = Base(ClusteringMode::kKMeans);
    quality.cluster_order = ClusterOrder::kQualityDescending;
    variants.push_back(quality);
    MatchOptions quality_tree = Base(ClusteringMode::kTreeClusters);
    quality_tree.cluster_order = ClusterOrder::kQualityDescending;
    variants.push_back(quality_tree);
    return variants;
  }

  static std::vector<schema::SchemaTree> Personals() {
    std::vector<schema::SchemaTree> personals;
    for (const char* spec :
         {"person(name,phone)", "name(address,email)",
          "order(customer(name,address),item(price,quantity))"}) {
      personals.push_back(*schema::ParseTreeSpec(spec));
    }
    return personals;
  }

  static std::vector<std::unique_ptr<schema::SchemaForest>> forests_;
};

std::vector<std::unique_ptr<schema::SchemaForest>> ClusterBoundTest::forests_;

TEST_F(ClusterBoundTest, BoundDominatesEveryMappingOfItsCluster) {
  static const match::PathContextMatcher structural;
  size_t clusters_checked = 0;
  size_t bounds_attained = 0;
  for (const auto& forest : forests_) {
    Bellflower system(forest.get());
    for (const char* spec : {"person(name,phone)", "name(address,email)"}) {
      const schema::SchemaTree personal = *schema::ParseTreeSpec(spec);
      for (ClusteringMode mode :
           {ClusteringMode::kKMeans, ClusteringMode::kTreeClusters}) {
        auto state = system.BuildClusterState(
            personal, ClusterStateOptions::From(Base(mode)));
        ASSERT_TRUE(state.ok()) << state.status().ToString();
        for (int structural_mode = 0; structural_mode < 3; ++structural_mode) {
          MatchOptions options = Base(mode);
          options.generator.algorithm = generate::Algorithm::kExhaustive;
          options.delta = 0.0;
          if (structural_mode > 0) {
            options.structural_matcher = &structural;
            options.structural_within_clusters_only = structural_mode == 1;
          }
          for (size_t ci = 0; ci < state->clustering.clusters.size(); ++ci) {
            const std::vector<size_t> only = {ci};
            auto run = system.MatchWithState(personal, *state, options,
                                             ExecutionControl(), nullptr,
                                             &only);
            ASSERT_TRUE(run.ok()) << run.status().ToString();
            ASSERT_FALSE(run->stats.generator.truncated);
            if (!run->stats.cluster_summaries[0].useful) continue;
            auto bound = system.ClusterDeltaBound(personal, *state, ci,
                                                  options);
            ASSERT_TRUE(bound.ok()) << bound.status().ToString();
            ++clusters_checked;
            for (const SchemaMapping& m : run->mappings) {
              // Raw doubles, no epsilon: the skip compares them the same
              // way.
              EXPECT_LE(m.delta, *bound)
                  << spec << " cluster " << ci << " structural "
                  << structural_mode;
              if (m.delta == *bound) ++bounds_attained;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(clusters_checked, 100u);
  EXPECT_GT(bounds_attained, 0u) << "no cluster attains its bound";
}

TEST_F(ClusterBoundTest, AdaptiveTopNEqualsTruncatedRun) {
  size_t ties_at_n = 0;
  size_t skipped = 0;
  for (const auto& forest : forests_) {
    Bellflower system(forest.get());
    for (const schema::SchemaTree& personal : Personals()) {
      for (const MatchOptions& base : Variants()) {
        auto state =
            system.BuildClusterState(personal, ClusterStateOptions::From(base));
        ASSERT_TRUE(state.ok()) << state.status().ToString();
        auto all = system.MatchWithState(personal, *state, base);
        ASSERT_TRUE(all.ok()) << all.status().ToString();
        const std::vector<size_t> reversed = AllClustersReversed(*state);
        std::vector<size_t> halves[2];
        for (size_t ci = 0; ci < state->clustering.clusters.size(); ++ci) {
          halves[ci % 2].push_back(ci);
        }
        for (size_t n : kTopNs) {
          MatchOptions exact = base;
          exact.top_n = n;
          exact.adaptive_top_n = false;
          MatchOptions adaptive = exact;
          adaptive.adaptive_top_n = true;
          auto want = system.MatchWithState(personal, *state, exact);
          auto got = system.MatchWithState(personal, *state, adaptive);
          ASSERT_TRUE(want.ok());
          ASSERT_TRUE(got.ok());
          std::vector<SchemaMapping> truncated = all->mappings;
          if (truncated.size() > n) truncated.resize(n);
          ASSERT_EQ(Keys(want->mappings), Keys(truncated));
          EXPECT_EQ(Keys(got->mappings), Keys(want->mappings)) << "N=" << n;
          for (const SchemaMapping& m : got->mappings) {
            EXPECT_GE(m.delta, base.delta);
          }
          ASSERT_EQ(got->partial_mappings.size(),
                    want->partial_mappings.size());
          for (size_t i = 0; i < want->partial_mappings.size(); ++i) {
            EXPECT_EQ(got->partial_mappings[i].images,
                      want->partial_mappings[i].images);
            EXPECT_EQ(got->partial_mappings[i].delta,
                      want->partial_mappings[i].delta);
          }
          ASSERT_EQ(got->stats.cluster_summaries.size(),
                    want->stats.cluster_summaries.size());
          for (size_t i = 0; i < want->stats.cluster_summaries.size(); ++i) {
            const ClusterSummary& g = got->stats.cluster_summaries[i];
            const ClusterSummary& w = want->stats.cluster_summaries[i];
            EXPECT_EQ(g.tree, w.tree);
            EXPECT_EQ(g.num_mapping_elements, w.num_mapping_elements);
            EXPECT_EQ(g.useful, w.useful);
            EXPECT_EQ(g.search_space, w.search_space);
          }
          EXPECT_EQ(got->stats.search_space, want->stats.search_space);
          // Only the work falls.
          EXPECT_LE(got->stats.generator.partial_mappings,
                    want->stats.generator.partial_mappings);
          EXPECT_LE(got->stats.num_mappings, want->stats.num_mappings);
          EXPECT_EQ(want->stats.clusters_skipped_by_bound, 0u);
          skipped += got->stats.clusters_skipped_by_bound;
          if (all->mappings.size() > n &&
              all->mappings[n - 1].delta == all->mappings[n].delta) {
            ++ties_at_n;
          }

          // Reversed generation order: later-generated clusters now win
          // ties at the floor, which a skip at bound == floor would lose.
          auto got_reversed = system.MatchWithState(
              personal, *state, adaptive, ExecutionControl(), nullptr,
              &reversed);
          ASSERT_TRUE(got_reversed.ok());
          EXPECT_EQ(Keys(got_reversed->mappings), Keys(want->mappings))
              << "reversed, N=" << n;

          // A two-way cluster_subset split: the union of the halves' top N
          // holds the full top N.
          std::vector<SchemaMapping> merged;
          for (const std::vector<size_t>& half : halves) {
            auto part = system.MatchWithState(personal, *state, adaptive,
                                              ExecutionControl(), nullptr,
                                              &half);
            ASSERT_TRUE(part.ok());
            merged.insert(merged.end(), part->mappings.begin(),
                          part->mappings.end());
          }
          std::sort(merged.begin(), merged.end(), generate::MappingOrder());
          if (merged.size() > n) merged.resize(n);
          EXPECT_EQ(Keys(merged), Keys(want->mappings)) << "split, N=" << n;
        }
        EXPECT_EQ(all->stats.clusters_skipped_by_bound, 0u);
      }
    }
  }
  EXPECT_GT(ties_at_n, 0u) << "corpora produced no tie at rank N";
  EXPECT_GT(skipped, 0u) << "no cluster was ever skipped by bound";
}

TEST_F(ClusterBoundTest, StreamIsTheNonAdaptiveStreamFilteredToRankN) {
  for (const auto& forest : forests_) {
    Bellflower system(forest.get());
    for (const schema::SchemaTree& personal : Personals()) {
      for (const MatchOptions& base : Variants()) {
        Recorder unbounded;
        ASSERT_TRUE(
            system.Match(personal, base, ExecutionControl(), &unbounded).ok());
        for (size_t n : kTopNs) {
          MatchOptions exact = base;
          exact.top_n = n;
          exact.adaptive_top_n = false;
          MatchOptions adaptive = exact;
          adaptive.adaptive_top_n = true;
          Recorder want;
          Recorder got;
          ASSERT_TRUE(
              system.Match(personal, exact, ExecutionControl(), &want).ok());
          ASSERT_TRUE(
              system.Match(personal, adaptive, ExecutionControl(), &got).ok());
          EXPECT_EQ(Stream(got.events, n), Stream(unbounded.events, n))
              << "N=" << n;
          EXPECT_EQ(Stream(got.events, n), Stream(want.events, n));
          EXPECT_EQ(got.events.size(), Stream(got.events, n).size());
          for (const Event& e : got.events) {
            EXPECT_GE(e.mapping.delta, base.delta);
          }
          // Skipped clusters still start and finish: seq and total hold.
          EXPECT_EQ(got.starts, want.starts);
          EXPECT_EQ(got.finishes, want.finishes);
        }
      }
    }
  }
}

TEST_F(ClusterBoundTest, StateWithoutFittingProfileIsRefused) {
  Bellflower system(forests_[0].get());
  const schema::SchemaTree personal =
      *schema::ParseTreeSpec("person(name,phone)");
  const MatchOptions options = Base(ClusteringMode::kKMeans);
  auto state =
      system.BuildClusterState(personal, ClusterStateOptions::From(options));
  ASSERT_TRUE(state.ok());
  ASSERT_FALSE(state->clustering.clusters.empty());
  EXPECT_TRUE(
      state->profile.Fits(state->clustering.clusters.size(), personal.size()));

  ClusterState unprofiled = *state;
  unprofiled.profile = ClusterProfile();
  auto run = system.MatchWithState(personal, unprofiled, options);
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(system.ClusterDeltaBound(personal, unprofiled, 0, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  ClusterState stale = *state;
  stale.clustering.clusters.pop_back();
  EXPECT_EQ(system.MatchWithState(personal, stale, options).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace xsm::core
