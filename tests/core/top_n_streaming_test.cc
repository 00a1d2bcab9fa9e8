// The MatchObserver streaming contract under top_n. With top_n = N > 0 the
// observer hears a mapping only when its running rank is ≤ N, which always
// includes the final top N; with top_n = 0 it hears every mapping with its
// running rank among all mappings so far. Either way the run itself — its
// search counters, num_mappings and final list — does not depend on whether
// an observer is attached.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/bellflower.h"
#include "core/execution_control.h"
#include "core/match_observer.h"
#include "repo/synthetic.h"
#include "schema/schema_forest.h"
#include "schema/schema_tree.h"

namespace xsm::core {
namespace {

using generate::SchemaMapping;

struct Event {
  SchemaMapping mapping;
  size_t rank = 0;
};

class EventRecorder : public MatchObserver {
 public:
  void OnMapping(const SchemaMapping& mapping, size_t running_rank) override {
    events.push_back({mapping, running_rank});
  }
  std::vector<Event> events;
};

using Assignment = std::pair<schema::TreeId, std::vector<schema::NodeId>>;

Assignment Key(const SchemaMapping& m) { return {m.tree, m.images}; }

bool SameEvents(const std::vector<Event>& a, const std::vector<Event>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].rank != b[i].rank || Key(a[i].mapping) != Key(b[i].mapping) ||
        a[i].mapping.delta != b[i].mapping.delta) {
      return false;
    }
  }
  return true;
}

void ExpectSameCounters(const MatchStats& a, const MatchStats& b) {
  EXPECT_EQ(a.generator.partial_mappings, b.generator.partial_mappings);
  EXPECT_EQ(a.generator.complete_mappings, b.generator.complete_mappings);
  EXPECT_EQ(a.generator.pruned_by_bound, b.generator.pruned_by_bound);
  EXPECT_EQ(a.generator.emitted, b.generator.emitted);
  EXPECT_EQ(a.generator.truncated, b.generator.truncated);
  EXPECT_EQ(a.num_mappings, b.num_mappings);
  EXPECT_EQ(a.num_useful_clusters, b.num_useful_clusters);
}

class TopNStreamingTest : public ::testing::Test {
 protected:
  // Synthetic corpora (the randomized part) with four copies of one fixed
  // tree appended: the copies yield mappings of identical Δ, so the final
  // lists have ties at many ranks, rank N included.
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

  static std::vector<MatchOptions> OptionVariants() {
    std::vector<MatchOptions> variants;
    MatchOptions kmeans;
    kmeans.element.threshold = 0.5;
    kmeans.delta = 0.7;
    variants.push_back(kmeans);
    MatchOptions tree = kmeans;
    tree.clustering = ClusteringMode::kTreeClusters;
    variants.push_back(tree);
    MatchOptions quality = kmeans;
    quality.cluster_order = ClusterOrder::kQualityDescending;
    variants.push_back(quality);
    return variants;
  }

  static std::vector<schema::SchemaTree> Personals() {
    std::vector<schema::SchemaTree> personals;
    for (const char* spec : {"name(address,email)", "person(name,phone)"}) {
      personals.push_back(*schema::ParseTreeSpec(spec));
    }
    return personals;
  }

  static std::vector<std::unique_ptr<schema::SchemaForest>> forests_;
};

std::vector<std::unique_ptr<schema::SchemaForest>> TopNStreamingTest::forests_;

TEST_F(TopNStreamingTest, UnboundedStreamIsOneEventPerMappingWithRunningRank) {
  for (const auto& forest : forests_) {
    Bellflower system(forest.get());
    for (const schema::SchemaTree& personal : Personals()) {
      for (const MatchOptions& options : OptionVariants()) {
        EventRecorder recorder;
        auto run = system.Match(personal, options, ExecutionControl(),
                                &recorder);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        ASSERT_EQ(recorder.events.size(), run->stats.num_mappings);
        ASSERT_EQ(recorder.events.size(), run->mappings.size());
        // Each rank is 1 + the number of earlier mappings that do not rank
        // below the new one (ties go after the earlier mapping).
        std::vector<SchemaMapping> earlier;
        for (size_t i = 0; i < recorder.events.size(); ++i) {
          const SchemaMapping& m = recorder.events[i].mapping;
          auto pos = std::upper_bound(earlier.begin(), earlier.end(), m,
                                      generate::MappingOrder());
          EXPECT_EQ(recorder.events[i].rank,
                    static_cast<size_t>(pos - earlier.begin()) + 1)
              << "event " << i;
          earlier.insert(pos, m);
        }
        std::multiset<Assignment> streamed;
        std::multiset<Assignment> returned;
        for (const Event& e : recorder.events) streamed.insert(Key(e.mapping));
        for (const SchemaMapping& m : run->mappings) returned.insert(Key(m));
        EXPECT_EQ(streamed, returned);
      }
    }
  }
}

TEST_F(TopNStreamingTest, BoundedStreamCarriesTheFinalTopN) {
  size_t cases_with_tie_at_n = 0;
  for (const auto& forest : forests_) {
    Bellflower system(forest.get());
    for (const schema::SchemaTree& personal : Personals()) {
      for (const MatchOptions& base : OptionVariants()) {
        EventRecorder unbounded;
        ASSERT_TRUE(
            system.Match(personal, base, ExecutionControl(), &unbounded).ok());
        for (size_t n : {1u, 3u, 10u}) {
          MatchOptions options = base;
          options.top_n = n;
          EventRecorder recorder;
          auto run = system.Match(personal, options, ExecutionControl(),
                                  &recorder);
          ASSERT_TRUE(run.ok()) << run.status().ToString();

          std::set<Assignment> streamed;
          for (const Event& e : recorder.events) {
            EXPECT_GE(e.rank, 1u);
            EXPECT_LE(e.rank, n);
            streamed.insert(Key(e.mapping));
          }
          for (const SchemaMapping& m : run->mappings) {
            EXPECT_EQ(streamed.count(Key(m)), 1u)
                << "final top-" << n << " mapping never streamed";
          }
          // The bounded stream is the unbounded one filtered to rank ≤ N:
          // the adaptive δ prunes only mappings that rank below N anyway.
          std::vector<Event> filtered;
          for (const Event& e : unbounded.events) {
            if (e.rank <= n) filtered.push_back(e);
          }
          EXPECT_TRUE(SameEvents(recorder.events, filtered)) << "N=" << n;

          // Ties at rank N: the N-th and (N+1)-th of the full list share Δ.
          if (unbounded.events.size() > n) {
            std::vector<SchemaMapping> all;
            for (const Event& e : unbounded.events) all.push_back(e.mapping);
            std::sort(all.begin(), all.end(), generate::MappingOrder());
            if (all[n - 1].delta == all[n].delta) ++cases_with_tie_at_n;
          }
        }
      }
    }
  }
  EXPECT_GT(cases_with_tie_at_n, 0u) << "corpora produced no tie at rank N";
}

TEST_F(TopNStreamingTest, ObserverDoesNotChangeTheRun) {
  for (const auto& forest : forests_) {
    Bellflower system(forest.get());
    for (const schema::SchemaTree& personal : Personals()) {
      for (const MatchOptions& base : OptionVariants()) {
        for (size_t n : {0u, 1u, 3u, 10u}) {
          MatchOptions options = base;
          options.top_n = n;
          EventRecorder recorder;
          auto observed = system.Match(personal, options, ExecutionControl(),
                                       &recorder);
          auto plain = system.Match(personal, options);
          ASSERT_TRUE(observed.ok());
          ASSERT_TRUE(plain.ok());
          ExpectSameCounters(observed->stats, plain->stats);
          ASSERT_EQ(observed->mappings.size(), plain->mappings.size());
          for (size_t i = 0; i < plain->mappings.size(); ++i) {
            EXPECT_EQ(Key(observed->mappings[i]), Key(plain->mappings[i]));
            EXPECT_EQ(observed->mappings[i].delta, plain->mappings[i].delta);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace xsm::core
