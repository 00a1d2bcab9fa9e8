// Equivalence of cluster-proportional candidate building with the linear
// merge it replaced. BuildClusterCandidates looks up each member of a
// cluster in the ME_n its mask names; the reference below walks every ME_n
// from its first element against the cluster's sorted member list, which is
// O(|ME_n|) per cluster. Both must produce the same candidate lists, so the
// cluster summaries and ranked mappings of a run built on either agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <tuple>
#include <vector>

#include "core/bellflower.h"
#include "generate/mapping_generator.h"
#include "generate/partial_generator.h"
#include "match/structural_matcher.h"
#include "repo/synthetic.h"
#include "schema/schema_forest.h"
#include "schema/schema_tree.h"

namespace xsm::core {
namespace {

using generate::ClusterCandidates;
using generate::SchemaMapping;
using schema::NodeRef;

// The linear-merge builder: ME_n ∩ cluster with both sides sorted by
// NodeRef.
ClusterCandidates ReferenceCandidates(
    const cluster::Cluster& c, const std::vector<cluster::ClusterPoint>& points,
    const match::ElementMatchingResult& matching) {
  std::vector<NodeRef> member_nodes;
  member_nodes.reserve(c.members.size());
  for (int32_t m : c.members) {
    member_nodes.push_back(points[static_cast<size_t>(m)].node);
  }
  std::sort(member_nodes.begin(), member_nodes.end());

  ClusterCandidates cands;
  cands.tree = c.tree;
  cands.candidates.resize(matching.sets.size());
  for (size_t n = 0; n < matching.sets.size(); ++n) {
    const auto& me = matching.sets[n].elements;
    auto& dst = cands.candidates[n];
    size_t i = 0;
    size_t j = 0;
    while (i < me.size() && j < member_nodes.size()) {
      if (me[i].node < member_nodes[j]) {
        ++i;
      } else if (member_nodes[j] < me[i].node) {
        ++j;
      } else {
        dst.push_back(me[i]);
        ++i;
        ++j;
      }
    }
  }
  return cands;
}

// Reference run over the reference candidates: every cluster in index
// order, no adaptive δ, the full ranked list (the engine's top_n == 0
// result) and the partial mappings of the non-useful clusters.
struct ReferenceRun {
  std::vector<ClusterSummary> summaries;
  std::vector<SchemaMapping> mappings;
  std::vector<generate::PartialMapping> partials;
};

ReferenceRun RunReference(const Bellflower& system,
                          const schema::SchemaTree& personal,
                          const ClusterState& state,
                          const MatchOptions& options) {
  match::ElementMatchingResult matching = state.matching;
  const match::StructuralMatcher* structural = options.structural_matcher;
  const double w = options.structural_weight;
  if (structural != nullptr && !options.structural_within_clusters_only) {
    for (auto& set : matching.sets) {
      for (auto& element : set.elements) {
        element.score =
            (1.0 - w) * element.score +
            w * structural->Score(personal, set.personal_node,
                                  system.repository().tree(element.node.tree),
                                  element.node.node);
      }
    }
  }
  objective::BellflowerObjective objective(
      options.objective.alpha, system.ResolveK(options.objective),
      static_cast<int>(personal.size()),
      static_cast<int>(personal.num_edges()));
  generate::GeneratorOptions gen_options = options.generator;
  gen_options.delta = options.delta;
  generate::MappingGenerator generator(personal, objective, gen_options);
  generate::PartialMappingGenerator partial_generator(personal, objective,
                                                     options.partial);
  generate::GeneratorCounters counters;

  ReferenceRun run;
  for (const cluster::Cluster& c : state.clustering.clusters) {
    ClusterSummary summary;
    summary.tree = c.tree;
    summary.num_points = c.members.size();
    summary.useful = c.useful(matching.FullMask());
    for (int32_t m : c.members) {
      summary.num_mapping_elements += static_cast<size_t>(std::popcount(
          state.points[static_cast<size_t>(m)].personal_mask));
    }
    ClusterCandidates cands = ReferenceCandidates(c, state.points, matching);
    const schema::SchemaTree& tree = system.repository().tree(c.tree);
    if (summary.useful && cands.useful()) {
      if (structural != nullptr && options.structural_within_clusters_only) {
        for (size_t n = 0; n < cands.candidates.size(); ++n) {
          for (auto& element : cands.candidates[n]) {
            element.score =
                (1.0 - w) * element.score +
                w * structural->Score(personal,
                                      static_cast<schema::NodeId>(n), tree,
                                      element.node.node);
          }
        }
      }
      summary.search_space = cands.SearchSpaceSize();
      EXPECT_TRUE(generator
                      .Generate(cands, system.index().tree(c.tree),
                                &run.mappings, &counters)
                      .ok());
    } else {
      summary.useful = false;
      if (options.include_partial_mappings) {
        EXPECT_TRUE(partial_generator
                        .Generate(cands, system.index().tree(c.tree),
                                  &run.partials, &counters)
                        .ok());
      }
    }
    run.summaries.push_back(summary);
  }
  std::sort(run.mappings.begin(), run.mappings.end(),
            generate::MappingOrder());
  std::sort(run.partials.begin(), run.partials.end(),
            generate::PartialMappingOrder());
  return run;
}

using MappingKey =
    std::tuple<double, schema::TreeId, std::vector<schema::NodeId>>;

std::vector<MappingKey> Keys(const std::vector<SchemaMapping>& mappings) {
  std::vector<MappingKey> keys;
  for (const SchemaMapping& m : mappings) {
    keys.emplace_back(m.delta, m.tree, m.images);
  }
  return keys;
}

void ExpectSameSummary(const ClusterSummary& got, const ClusterSummary& want,
                       size_t ci) {
  EXPECT_EQ(got.tree, want.tree) << "cluster " << ci;
  EXPECT_EQ(got.num_points, want.num_points) << "cluster " << ci;
  EXPECT_EQ(got.num_mapping_elements, want.num_mapping_elements)
      << "cluster " << ci;
  EXPECT_EQ(got.useful, want.useful) << "cluster " << ci;
  EXPECT_EQ(got.search_space, want.search_space) << "cluster " << ci;
}

class CandidateBuildingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    for (uint64_t seed : {5u, 23u}) {
      repo::SyntheticRepoOptions options;
      options.target_elements = 2000;
      options.seed = seed;
      auto forest = repo::GenerateSyntheticRepository(options);
      ASSERT_TRUE(forest.ok()) << forest.status().ToString();
      forests_.push_back(
          std::make_unique<schema::SchemaForest>(std::move(*forest)));
    }
  }

  static void TearDownTestSuite() { forests_.clear(); }

  static MatchOptions Options(ClusteringMode mode) {
    MatchOptions options;
    options.element.threshold = 0.5;
    options.delta = 0.7;
    options.clustering = mode;
    return options;
  }

  static std::vector<schema::SchemaTree> Personals() {
    std::vector<schema::SchemaTree> personals;
    for (const char* spec :
         {"name(address,email)", "person(name,phone)",
          "order(customer(name,address),item(price,quantity))"}) {
      personals.push_back(*schema::ParseTreeSpec(spec));
    }
    return personals;
  }

  // Checks one option combination on every corpus and personal schema:
  // candidate lists per cluster, summaries, ranked and top-N mappings, and
  // partial mappings against the reference run.
  static void CheckAgainstReference(const MatchOptions& options) {
    for (const auto& forest : forests_) {
      Bellflower system(forest.get());
      for (const schema::SchemaTree& personal : Personals()) {
        auto state = system.BuildClusterState(
            personal, ClusterStateOptions::From(options));
        ASSERT_TRUE(state.ok()) << state.status().ToString();
        for (const cluster::Cluster& c : state->clustering.clusters) {
          ClusterCandidates got =
              BuildClusterCandidates(c, state->points, state->matching);
          ClusterCandidates want =
              ReferenceCandidates(c, state->points, state->matching);
          ASSERT_EQ(got.tree, want.tree);
          ASSERT_EQ(got.candidates.size(), want.candidates.size());
          for (size_t n = 0; n < got.candidates.size(); ++n) {
            ASSERT_EQ(got.candidates[n].size(), want.candidates[n].size());
            for (size_t i = 0; i < got.candidates[n].size(); ++i) {
              EXPECT_EQ(got.candidates[n][i].node, want.candidates[n][i].node);
              EXPECT_EQ(got.candidates[n][i].score,
                        want.candidates[n][i].score);
            }
          }
        }

        ReferenceRun reference =
            RunReference(system, personal, *state, options);
        auto run = system.MatchWithState(personal, *state, options);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        ASSERT_EQ(run->stats.cluster_summaries.size(),
                  reference.summaries.size());
        for (size_t ci = 0; ci < reference.summaries.size(); ++ci) {
          ExpectSameSummary(run->stats.cluster_summaries[ci],
                            reference.summaries[ci], ci);
        }
        EXPECT_EQ(run->stats.num_mappings, reference.mappings.size());
        EXPECT_EQ(Keys(run->mappings), Keys(reference.mappings));
        ASSERT_EQ(run->partial_mappings.size(), reference.partials.size());
        for (size_t i = 0; i < reference.partials.size(); ++i) {
          EXPECT_EQ(run->partial_mappings[i].tree, reference.partials[i].tree);
          EXPECT_EQ(run->partial_mappings[i].images,
                    reference.partials[i].images);
          EXPECT_EQ(run->partial_mappings[i].delta,
                    reference.partials[i].delta);
        }

        // Top N, adaptive δ on: the reference list's first N.
        MatchOptions top = options;
        top.top_n = 10;
        auto top_run = system.MatchWithState(personal, *state, top);
        ASSERT_TRUE(top_run.ok());
        std::vector<SchemaMapping> want_top = reference.mappings;
        if (want_top.size() > top.top_n) want_top.resize(top.top_n);
        EXPECT_EQ(Keys(top_run->mappings), Keys(want_top));
      }
    }
  }

  static std::vector<std::unique_ptr<schema::SchemaForest>> forests_;
};

std::vector<std::unique_ptr<schema::SchemaForest>>
    CandidateBuildingTest::forests_;

TEST_F(CandidateBuildingTest, KMeansMatchesLinearMerge) {
  CheckAgainstReference(Options(ClusteringMode::kKMeans));
}

TEST_F(CandidateBuildingTest, TreeClustersMatchLinearMerge) {
  CheckAgainstReference(Options(ClusteringMode::kTreeClusters));
}

TEST_F(CandidateBuildingTest, StructuralWithinAndOutsideClusters) {
  match::PathContextMatcher structural;
  for (bool within : {true, false}) {
    for (ClusteringMode mode :
         {ClusteringMode::kKMeans, ClusteringMode::kTreeClusters}) {
      MatchOptions options = Options(mode);
      options.structural_matcher = &structural;
      options.structural_within_clusters_only = within;
      CheckAgainstReference(options);
    }
  }
}

TEST_F(CandidateBuildingTest, PartialMappingsFromNonUsefulClusters) {
  for (ClusteringMode mode :
       {ClusteringMode::kKMeans, ClusteringMode::kTreeClusters}) {
    MatchOptions options = Options(mode);
    options.include_partial_mappings = true;
    options.partial.delta = 0.5;
    CheckAgainstReference(options);
  }
}

TEST_F(CandidateBuildingTest, ClusterSubsetSplitUnionsToFullRun) {
  const MatchOptions options = Options(ClusteringMode::kKMeans);
  const schema::SchemaTree personal =
      *schema::ParseTreeSpec("name(address,email)");
  for (const auto& forest : forests_) {
    Bellflower system(forest.get());
    auto state = system.BuildClusterState(personal,
                                          ClusterStateOptions::From(options));
    ASSERT_TRUE(state.ok());
    ReferenceRun reference = RunReference(system, personal, *state, options);

    // Alternate clusters between two subsets, so each subset's summary
    // order differs from the cluster index order.
    std::vector<size_t> subsets[2];
    for (size_t ci = 0; ci < state->clustering.clusters.size(); ++ci) {
      subsets[ci % 2].push_back(ci);
    }
    std::vector<SchemaMapping> merged;
    size_t num_mappings = 0;
    for (const std::vector<size_t>& subset : subsets) {
      auto run = system.MatchWithState(personal, *state, options,
                                       ExecutionControl(), nullptr, &subset);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ASSERT_EQ(run->stats.cluster_summaries.size(), subset.size());
      for (size_t pos = 0; pos < subset.size(); ++pos) {
        ExpectSameSummary(run->stats.cluster_summaries[pos],
                          reference.summaries[subset[pos]], subset[pos]);
      }
      num_mappings += run->stats.num_mappings;
      merged.insert(merged.end(), run->mappings.begin(), run->mappings.end());
    }
    std::sort(merged.begin(), merged.end(), generate::MappingOrder());
    EXPECT_EQ(num_mappings, reference.mappings.size());
    EXPECT_EQ(Keys(merged), Keys(reference.mappings));
    EXPECT_FALSE(reference.mappings.empty());
  }
}

}  // namespace
}  // namespace xsm::core
