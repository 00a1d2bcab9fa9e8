// Holistic integration benchmark: end-to-end IntegrationEngine runs over a
// planted-correspondence corpus across repository scales.
//
// The corpus is constructed so ground truth is exact: every "planted" group
// is one token name (eight repeats of one letter) placed in every tree but
// the first, and all other nodes carry noise names built from a disjoint
// alphabet whose pairwise similarity stays below the correspondence
// threshold. The only edges the engine can find are the planted repeats, so
//   - planted recall (every group recovered as exactly its planted member
//     set) must be 1.0 — a hard gate, smoke included, and
//   - the mediated schema is known independently of the engine.
//
// For each scale the harness measures:
//   - cold integration latency on a fresh service (cluster cache empty)
//   - warm integration latency re-running on the same service (every slice
//     state served from the fingerprint-namespaced cluster cache);
//     speedup_warm_vs_cold is the tracked headline ratio
//   - cluster/correspondence counts as a sanity surface
// and, at the largest scale, re-runs the integration on fresh services with
// 1 / 2 / 8 threads, comparing SerializeIntegration bytes — the determinism
// contract (byte-identical result for fixed fingerprint + seed) as a hard
// gate.
//
// Emits a machine-readable JSON trajectory point (default:
// BENCH_integration.json) consumed by check_bench_regression's
// "integration" profile.
//
// Usage: bench_integration [--smoke] [--out PATH]
//   --smoke   smaller scale series, fewer repeats (CI exercise of the
//             integration path); both correctness gates still apply.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "experiment_common.h"
#include "integrate/integration_engine.h"
#include "integrate/integration_io.h"
#include "schema/schema_forest.h"
#include "schema/schema_tree.h"
#include "service/matcher.h"
#include "util/random.h"
#include "util/timer.h"

namespace xsm {
namespace {

constexpr size_t kGroups = 8;  // planted synonym groups per corpus

/// Planted group token: eight repeats of one letter from 'a'..'l'. Two
/// distinct tokens share no characters, so their similarity is 0.
std::string GroupToken(size_t g) { return std::string(8, 'a' + g); }

/// Noise name: three blocks of four identical characters drawn from the
/// disjoint alphabet 'm'..'z' (base-14 digits of a counter). Any two noise
/// names differ in at least one whole block (similarity <= 2/3, below the
/// 0.75 threshold), and noise never matches a group token. Only 14^3
/// counter values yield distinct names; past that the digits wrap and a
/// duplicate would plant an unintended correspondence, so overflow aborts.
std::string NoiseName(size_t* counter) {
  size_t value = (*counter)++;
  if (value >= 14 * 14 * 14) {
    std::fprintf(stderr, "noise namespace exhausted (corpus too large)\n");
    std::exit(2);
  }
  std::string name;
  for (int block = 0; block < 3; ++block) {
    name.append(4, static_cast<char>('m' + value % 14));
    value /= 14;
  }
  return name;
}

/// `num_trees` trees; tree 0 is noise-only, every other tree contains all
/// kGroups tokens plus 27 noise nodes in shuffled order under random
/// parents (28 noise names per tree including the root keeps the largest
/// 96-tree corpus inside the 14^3 noise namespace). Expected clustering:
/// kGroups clusters of (num_trees - 1) members each.
schema::SchemaForest BuildCorpus(uint64_t seed, size_t num_trees) {
  schema::SchemaForest forest;
  size_t counter = 0;
  Rng rng(seed);
  for (size_t t = 0; t < num_trees; ++t) {
    std::vector<std::string> names;
    for (size_t n = 0; n < 27; ++n) names.push_back(NoiseName(&counter));
    if (t != 0) {
      for (size_t g = 0; g < kGroups; ++g) names.push_back(GroupToken(g));
    }
    rng.Shuffle(&names);

    schema::SchemaTree tree;
    schema::NodeProperties root;
    root.name = NoiseName(&counter);
    tree.AddNode(schema::kInvalidNode, root);
    for (const std::string& name : names) {
      schema::NodeProperties props;
      props.name = name;
      schema::NodeId parent = static_cast<schema::NodeId>(
          rng.Uniform(static_cast<uint64_t>(tree.size())));
      tree.AddNode(parent, props);
    }
    forest.AddTree(std::move(tree), "bench:" + std::to_string(t));
  }
  return forest;
}

std::unique_ptr<service::Matcher> ServiceOver(
    const schema::SchemaForest& forest, size_t num_threads) {
  service::MatchServiceOptions options;
  options.num_threads = num_threads;
  options.cluster_cache_capacity = 4096;
  auto service = service::Matcher::Create(forest, options);
  if (!service.ok()) {
    std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*service);
}

integrate::IntegrationResult Integrate(service::Matcher* service) {
  integrate::IntegrationEngine engine(service);
  auto result = engine.Integrate(integrate::IntegrationOptions());
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*result);
}

/// True iff every planted group surfaces as a cluster with exactly its
/// planted member set (num_trees - 1 members, all named by the token).
bool PlantedRecallExact(const integrate::IntegrationResult& result,
                        size_t num_trees) {
  if (result.clusters.size() != kGroups) return false;
  for (size_t g = 0; g < kGroups; ++g) {
    const std::string token = GroupToken(g);
    bool found = false;
    for (const integrate::CorrespondenceCluster& cluster : result.clusters) {
      if (cluster.name != token) continue;
      found = cluster.members.size() == num_trees - 1 &&
              cluster.schemas == num_trees - 1;
      break;
    }
    if (!found) return false;
  }
  return true;
}

struct ScaleReport {
  size_t trees = 0;
  size_t elements = 0;
  size_t clusters = 0;
  size_t correspondences = 0;
  double cold_seconds = 0;  ///< best-of-repeats fresh-service run
  double warm_seconds = 0;  ///< best-of-repeats cache-warm re-run
  bool recall_ok = false;
};

}  // namespace
}  // namespace xsm

int main(int argc, char** argv) {
  using namespace xsm;

  bool smoke = false;
  std::string out_path = "BENCH_integration.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_integration [--smoke] [--out PATH]\n");
      return 2;
    }
  }
  const std::vector<size_t> scales =
      smoke ? std::vector<size_t>{8, 16, 32}
            : std::vector<size_t>{16, 32, 64, 96};
  const int repeats = smoke ? 1 : 3;
  const size_t num_threads = 4;

  std::printf(
      "holistic integration: cold vs cache-warm engine runs "
      "(%zu planted groups, %zu threads, repeat=%d)\n\n",
      kGroups, num_threads, repeats);
  std::printf("%6s %9s %9s %7s  %10s %10s %8s  %7s\n", "trees", "elements",
              "clusters", "edges", "cold ms", "warm ms", "speedup", "recall");

  bool all_recall_ok = true;
  std::vector<ScaleReport> reports;
  for (size_t scale : scales) {
    schema::SchemaForest forest =
        BuildCorpus(bench::kExperimentSeed + scale, scale);
    ScaleReport report;
    report.trees = scale;
    report.elements = forest.total_nodes();
    for (int r = 0; r < repeats; ++r) {
      auto service = ServiceOver(forest, num_threads);
      Timer cold_timer;
      integrate::IntegrationResult cold = Integrate(service.get());
      double cold_seconds = cold_timer.ElapsedSeconds();
      Timer warm_timer;
      integrate::IntegrationResult warm = Integrate(service.get());
      double warm_seconds = warm_timer.ElapsedSeconds();
      if (r == 0) {
        report.clusters = cold.clusters.size();
        report.correspondences = cold.stats.correspondences;
        report.recall_ok = PlantedRecallExact(cold, scale) &&
                           integrate::SerializeIntegration(warm) ==
                               integrate::SerializeIntegration(cold);
        report.cold_seconds = cold_seconds;
        report.warm_seconds = warm_seconds;
      } else {
        report.cold_seconds = std::min(report.cold_seconds, cold_seconds);
        report.warm_seconds = std::min(report.warm_seconds, warm_seconds);
      }
    }
    all_recall_ok = all_recall_ok && report.recall_ok;
    std::printf("%6zu %9zu %9zu %7zu  %10.3f %10.3f %7.2fx  %7s\n",
                report.trees, report.elements, report.clusters,
                report.correspondences, 1e3 * report.cold_seconds,
                1e3 * report.warm_seconds,
                report.cold_seconds / report.warm_seconds,
                report.recall_ok ? "exact" : "MISS");
    reports.push_back(report);
  }

  // Determinism across thread counts at the largest scale: fresh service
  // per thread count, byte-compared serializations.
  bool determinism_ok = true;
  {
    schema::SchemaForest forest =
        BuildCorpus(bench::kExperimentSeed + scales.back(), scales.back());
    std::string reference;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      auto service = ServiceOver(forest, threads);
      std::string bytes =
          integrate::SerializeIntegration(Integrate(service.get()));
      if (reference.empty()) {
        reference = std::move(bytes);
      } else {
        determinism_ok = determinism_ok && bytes == reference;
      }
    }
  }
  std::printf("\ndeterminism across 1/2/8 threads: %s\n",
              determinism_ok ? "byte-identical" : "DIVERGED");

  // --- JSON trajectory point. ----------------------------------------------
  std::string json;
  char buf[512];
  json += "{\n";
  json += "  \"bench\": \"integration\",\n";
  json += smoke ? "  \"mode\": \"smoke\",\n" : "  \"mode\": \"full\",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"groups\": %zu,\n  \"threads\": %zu,\n"
                "  \"repeat\": %d,\n  \"scales\": [\n",
                kGroups, num_threads, repeats);
  json += buf;
  for (size_t i = 0; i < reports.size(); ++i) {
    const ScaleReport& r = reports[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"trees\": %zu, \"elements\": %zu, \"clusters\": %zu, "
        "\"correspondences\": %zu,\n"
        "      \"cold_ms\": %.4f, \"warm_ms\": %.4f, "
        "\"speedup_warm_vs_cold\": %.3f, \"planted_recall_exact\": %s}%s\n",
        r.trees, r.elements, r.clusters, r.correspondences,
        1e3 * r.cold_seconds, 1e3 * r.warm_seconds,
        r.cold_seconds / r.warm_seconds, r.recall_ok ? "true" : "false",
        i + 1 < reports.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"determinism_verified\": %s,\n"
                "  \"planted_recall_ok\": %s\n}\n",
                determinism_ok ? "true" : "false",
                all_recall_ok ? "true" : "false");
  json += buf;

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }

  // Hard gates, smoke included: correctness properties of the integration
  // pipeline, not performance targets.
  if (!all_recall_ok) {
    std::printf("PLANTED RECALL MISS: a known cluster was not recovered\n");
    return 1;
  }
  if (!determinism_ok) {
    std::printf("DETERMINISM VIOLATION across thread counts\n");
    return 1;
  }
  std::printf("integration verified: planted clusters recovered exactly; "
              "results byte-identical across thread counts\n");
  return 0;
}
