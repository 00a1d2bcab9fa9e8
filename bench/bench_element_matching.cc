// Element-matching engine benchmark: the seed all-pairs sweep
// (MatchElementsReference) versus the candidate-pruned dictionary engine,
// serial and sharded across a thread pool, on synthetic corpora of
// increasing size. The dictionary is built once per corpus outside the
// timed region — the warm, snapshot-resident configuration service::Matcher
// runs — and every engine's output is checked bit-identical to the seed
// before anything is timed.
//
// Emits a machine-readable JSON trajectory point (default:
// BENCH_element_matching.json) so speedups are tracked across commits.
//
// Usage: bench_element_matching [--smoke] [--out PATH] [corpus_elements...]
//   --smoke   small corpus, one repeat, no speedup gate (CI exercise of the
//             fast path and the JSON emitter)
//   full runs gate on >= 5x for the warm-dictionary multi-thread engine at
//   the default threshold versus the seed path.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "experiment_common.h"
#include "match/element_matching.h"
#include "match/name_dictionary.h"
#include "repo/synthetic.h"
#include "schema/schema_forest.h"
#include "schema/schema_tree.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace xsm {
namespace {

constexpr double kThreshold = 0.5;  // the experiments' default
constexpr double kTargetSpeedup = 5.0;

const char* kSpecs[] = {
    "name(address,email)",
    "person(name,phone)",
    "book(title,author)",
    "order(item(price),customer)",
    "customer(name,address(city,zip))",
    "article(title,publisher)",
    "employee(name,department,email)",
    "product(name,price,@id)",
};
constexpr size_t kNumSpecs = sizeof(kSpecs) / sizeof(kSpecs[0]);

struct EngineTiming {
  double seconds = 0;
  size_t mapping_elements = 0;
};

bool Identical(const match::ElementMatchingResult& a,
               const match::ElementMatchingResult& b) {
  if (a.distinct_nodes != b.distinct_nodes || a.masks != b.masks ||
      a.sets.size() != b.sets.size()) {
    return false;
  }
  for (size_t i = 0; i < a.sets.size(); ++i) {
    if (a.sets[i].size() != b.sets[i].size()) return false;
    for (size_t j = 0; j < a.sets[i].elements.size(); ++j) {
      if (a.sets[i].elements[j].node != b.sets[i].elements[j].node ||
          a.sets[i].elements[j].score != b.sets[i].elements[j].score) {
        return false;
      }
    }
  }
  return true;
}

/// Runs `fn(personal)` for every personal schema `repeat` times and returns
/// the total wall-clock plus the (per-pass) mapping-element count.
template <typename Fn>
EngineTiming Measure(const std::vector<schema::SchemaTree>& personals,
                     int repeat, Fn&& fn) {
  EngineTiming timing;
  Timer timer;
  for (int r = 0; r < repeat; ++r) {
    timing.mapping_elements = 0;
    for (const schema::SchemaTree& personal : personals) {
      auto result = fn(personal);
      if (!result.ok()) {
        std::fprintf(stderr, "engine failed: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
      timing.mapping_elements += result->total_mapping_elements();
    }
  }
  timing.seconds = timer.ElapsedSeconds();
  return timing;
}

struct ConfigReport {
  size_t target_elements = 0;
  repo::RepositoryStats stats;
  double dictionary_build_seconds = 0;
  EngineTiming seed;
  EngineTiming pruned;
  EngineTiming parallel;
};

void AppendEngineJson(std::string* out, const char* name,
                      const EngineTiming& timing, int repeat,
                      size_t queries_per_pass) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "        \"%s\": {\"seconds\": %.6f, \"per_query_ms\": %.4f, "
                "\"mapping_elements\": %zu}",
                name, timing.seconds,
                1e3 * timing.seconds /
                    (static_cast<double>(repeat) *
                     static_cast<double>(queries_per_pass)),
                timing.mapping_elements);
  out->append(buf);
}

}  // namespace
}  // namespace xsm

int main(int argc, char** argv) {
  using namespace xsm;

  bool smoke = false;
  std::string out_path = "BENCH_element_matching.json";
  std::vector<size_t> corpus_sizes;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      corpus_sizes.push_back(static_cast<size_t>(std::atol(argv[i])));
    }
  }
  if (corpus_sizes.empty()) {
    corpus_sizes = smoke ? std::vector<size_t>{1500}
                         : std::vector<size_t>{2500, 6000, 12000};
  }
  const int repeat = smoke ? 1 : 5;
  const size_t threads = ThreadPool::DefaultThreadCount();
  ThreadPool pool(threads);

  std::vector<schema::SchemaTree> personals;
  for (const char* spec : kSpecs) {
    personals.push_back(*schema::ParseTreeSpec(spec));
  }

  std::printf(
      "element matching: seed sweep vs pruned dictionary engine "
      "(threshold %.2f, %zu personal schemas, repeat=%d, %zu threads)\n\n",
      kThreshold, kNumSpecs, repeat, threads);
  std::printf("%9s %8s %7s %9s  %9s %9s %9s  %8s %8s\n", "elements", "trees",
              "names", "dict ms", "seed ms", "pruned ms", "par ms",
              "pruned x", "par x");

  std::vector<ConfigReport> reports;
  double best_parallel_speedup = 0;
  bool all_identical = true;
  for (size_t target : corpus_sizes) {
    repo::SyntheticRepoOptions repo_options;
    repo_options.target_elements = target;
    repo_options.seed = bench::kExperimentSeed;
    auto forest = repo::GenerateSyntheticRepository(repo_options);
    if (!forest.ok()) {
      std::fprintf(stderr, "%s\n", forest.status().ToString().c_str());
      return 1;
    }

    ConfigReport report;
    report.target_elements = target;
    report.stats = repo::ComputeStats(*forest);

    Timer dict_timer;
    match::NameDictionary dictionary = match::NameDictionary::Build(*forest);
    report.dictionary_build_seconds = dict_timer.ElapsedSeconds();

    match::ElementMatchingOptions seed_options;
    seed_options.threshold = kThreshold;

    match::ElementMatchingOptions pruned_options = seed_options;
    pruned_options.dictionary = &dictionary;

    match::ElementMatchingOptions parallel_options = pruned_options;
    parallel_options.pool = &pool;

    // Correctness first: every engine must agree with the seed sweep.
    for (const schema::SchemaTree& personal : personals) {
      auto expected = match::MatchElementsReference(personal, *forest,
                                                    seed_options);
      auto got_pruned = match::MatchElements(personal, *forest,
                                             pruned_options);
      auto got_parallel = match::MatchElements(personal, *forest,
                                               parallel_options);
      if (!expected.ok() || !got_pruned.ok() || !got_parallel.ok() ||
          !Identical(*expected, *got_pruned) ||
          !Identical(*expected, *got_parallel)) {
        std::fprintf(stderr,
                     "ENGINE MISMATCH on corpus %zu, personal %s\n", target,
                     personal.name(0).c_str());
        all_identical = false;
      }
    }

    report.seed = Measure(personals, repeat,
                          [&](const schema::SchemaTree& personal) {
                            return match::MatchElementsReference(
                                personal, *forest, seed_options);
                          });
    report.pruned = Measure(personals, repeat,
                            [&](const schema::SchemaTree& personal) {
                              return match::MatchElements(personal, *forest,
                                                          pruned_options);
                            });
    report.parallel = Measure(personals, repeat,
                              [&](const schema::SchemaTree& personal) {
                                return match::MatchElements(
                                    personal, *forest, parallel_options);
                              });

    const double pruned_x = report.seed.seconds / report.pruned.seconds;
    const double parallel_x = report.seed.seconds / report.parallel.seconds;
    best_parallel_speedup = std::max(best_parallel_speedup, parallel_x);
    std::printf("%9zu %8zu %7zu %9.2f  %9.2f %9.2f %9.2f  %7.2fx %7.2fx\n",
                report.stats.nodes, report.stats.trees,
                report.stats.distinct_names,
                1e3 * report.dictionary_build_seconds,
                1e3 * report.seed.seconds, 1e3 * report.pruned.seconds,
                1e3 * report.parallel.seconds, pruned_x, parallel_x);
    reports.push_back(report);
  }

  // --- JSON trajectory point. ----------------------------------------------
  std::string json;
  json += "{\n";
  json += "  \"bench\": \"element_matching\",\n";
  json += smoke ? "  \"mode\": \"smoke\",\n" : "  \"mode\": \"full\",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"threshold\": %.2f,\n  \"threads\": %zu,\n"
                "  \"repeat\": %d,\n  \"personal_schemas\": %zu,\n",
                kThreshold, threads, repeat, kNumSpecs);
  json += buf;
  json += "  \"configs\": [\n";
  for (size_t c = 0; c < reports.size(); ++c) {
    const ConfigReport& r = reports[c];
    std::snprintf(buf, sizeof(buf),
                  "    {\"target_elements\": %zu, \"nodes\": %zu, "
                  "\"trees\": %zu, \"distinct_names\": %zu,\n"
                  "      \"dictionary_build_seconds\": %.6f,\n"
                  "      \"engines\": {\n",
                  r.target_elements, r.stats.nodes, r.stats.trees,
                  r.stats.distinct_names, r.dictionary_build_seconds);
    json += buf;
    AppendEngineJson(&json, "seed", r.seed, repeat, kNumSpecs);
    json += ",\n";
    AppendEngineJson(&json, "pruned", r.pruned, repeat, kNumSpecs);
    json += ",\n";
    AppendEngineJson(&json, "pruned_parallel", r.parallel, repeat, kNumSpecs);
    json += "\n      },\n";
    std::snprintf(buf, sizeof(buf),
                  "      \"speedup_pruned_vs_seed\": %.3f,\n"
                  "      \"speedup_parallel_vs_seed\": %.3f}%s\n",
                  r.seed.seconds / r.pruned.seconds,
                  r.seed.seconds / r.parallel.seconds,
                  c + 1 < reports.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"results_identical_to_seed\": %s,\n"
                "  \"best_parallel_speedup_vs_seed\": %.3f,\n"
                "  \"target_speedup\": %.1f,\n  \"meets_target\": %s\n}\n",
                all_identical ? "true" : "false", best_parallel_speedup,
                kTargetSpeedup,
                best_parallel_speedup >= kTargetSpeedup ? "true" : "false");
  json += buf;

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }

  if (!all_identical) {
    std::printf("RESULT MISMATCH between engines\n");
    return 1;
  }
  std::printf(
      "warm-dictionary multi-thread vs seed: %.2fx (target >= %.0fx) %s\n",
      best_parallel_speedup, kTargetSpeedup,
      smoke ? "(smoke: not gated)"
            : (best_parallel_speedup >= kTargetSpeedup ? "OK"
                                                       : "BELOW TARGET"));
  if (!smoke && best_parallel_speedup < kTargetSpeedup) return 1;
  return 0;
}
