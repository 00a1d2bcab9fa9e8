// End-to-end observability: traced queries carry the per-stage span
// vocabulary, trace events are structurally deterministic with a fixed
// seed, the registry agrees with the service's stats struct, and the
// serve surface exposes !metrics / slow-query events.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "repo/synthetic.h"
#include "service/matcher.h"
#include "service/serve_session.h"

namespace xsm::service {
namespace {

constexpr const char* kQueryLine =
    "person(name,phone) id=q1 delta=0.6 top=5";

schema::SchemaForest MakeForest() {
  repo::SyntheticRepoOptions options;
  options.target_elements = 1500;
  options.seed = 11;
  auto forest = repo::GenerateSyntheticRepository(options);
  EXPECT_TRUE(forest.ok()) << forest.status().ToString();
  return std::move(*forest);
}

std::vector<std::string> SpanNames(const obs::TraceContext& trace) {
  std::vector<std::string> names;
  for (const obs::TraceSpan& span : trace.spans()) {
    names.push_back(span.name);
  }
  return names;
}

bool Contains(const std::vector<std::string>& names,
              const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

// Strip the two timing fields so traced runs can be byte-compared.
std::string NormalizeTimings(const std::string& line) {
  static const std::regex kStart("\"start_ms\":[0-9.eE+-]+");
  static const std::regex kMs("\"ms\":[0-9.eE+-]+");
  return std::regex_replace(
      std::regex_replace(line, kStart, "\"start_ms\":0"), kMs, "\"ms\":0");
}

TEST(ObservabilityIntegrationTest, TracedQueryCarriesStageSpans) {
  MatchServiceOptions options;
  options.num_threads = 2;
  auto service = Matcher::Create(MakeForest(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  ServeSessionOptions session_options;
  ServeSession session(service->get(), session_options);
  auto query = session.ParseQuery(kQueryLine, 0);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  obs::TraceContext trace;
  core::ExecutionControl control;
  control.trace = &trace;
  auto result = session.RunQuery(*query, [](const std::string&) {}, control);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::vector<std::string> names = SpanNames(trace);
  // The query rode the pool (queue_wait), consulted the cluster cache,
  // and — this being a cold cache — built its state: element matching
  // (dictionary scoring + broadcast), clustering, generation, and the
  // final top-k merge.
  EXPECT_TRUE(Contains(names, "queue_wait")) << ::testing::PrintToString(names);
  EXPECT_TRUE(Contains(names, "cluster_cache"));
  EXPECT_TRUE(Contains(names, "dict_score"));
  EXPECT_TRUE(Contains(names, "dict_broadcast"));
  EXPECT_TRUE(Contains(names, "element_match"));
  EXPECT_TRUE(Contains(names, "clustering"));
  EXPECT_TRUE(Contains(names, "generate"));
  EXPECT_TRUE(Contains(names, "topk_merge"));

  // The cache span carries the miss/hit note.
  for (const obs::TraceSpan& span : trace.spans()) {
    if (span.name == "cluster_cache") {
      EXPECT_EQ(span.note, "miss");
    }
  }

  // Second identical query: warm cache, no rebuild spans.
  obs::TraceContext warm;
  control.trace = &warm;
  result = session.RunQuery(*query, [](const std::string&) {}, control);
  ASSERT_TRUE(result.ok());
  std::vector<std::string> warm_names = SpanNames(warm);
  EXPECT_TRUE(Contains(warm_names, "cluster_cache"));
  EXPECT_FALSE(Contains(warm_names, "element_match"));
  for (const obs::TraceSpan& span : warm.spans()) {
    if (span.name == "cluster_cache") {
      EXPECT_EQ(span.note, "hit");
    }
  }
}

TEST(ObservabilityIntegrationTest, TraceEventsAreDeterministicModuloTiming) {
  // Two fresh services, identical forest/seed/options: the trace events
  // must be byte-identical once the two timing fields are masked.
  std::vector<std::string> runs;
  for (int run = 0; run < 2; ++run) {
    MatchServiceOptions options;
    options.num_threads = 2;
    auto service = Matcher::Create(MakeForest(), options);
    ASSERT_TRUE(service.ok());
    ServeSessionOptions session_options;
    session_options.trace_events = true;
    ServeSession session(service->get(), session_options);
    auto query = session.ParseQuery(kQueryLine, 0);
    ASSERT_TRUE(query.ok());
    std::string trace_line;
    auto result = session.RunQuery(*query, [&](const std::string& line) {
      if (line.find("\"type\":\"trace\"") != std::string::npos) {
        trace_line = line;
      }
    });
    ASSERT_TRUE(result.ok());
    ASSERT_FALSE(trace_line.empty());
    runs.push_back(NormalizeTimings(trace_line));
  }
  EXPECT_EQ(runs[0], runs[1]);
  // Field order is fixed: type, id, then the span list.
  EXPECT_EQ(runs[0].rfind("{\"type\":\"trace\",\"id\":\"q1\",\"spans\":[", 0),
            0u)
      << runs[0];
}

TEST(ObservabilityIntegrationTest, RegistryAgreesWithServiceStats) {
  obs::MetricsRegistry registry;
  MatchServiceOptions options;
  options.num_threads = 2;
  options.metrics = &registry;
  options.metrics_tenant = "t1";
  auto service = Matcher::Create(MakeForest(), options);
  ASSERT_TRUE(service.ok());

  ServeSessionOptions session_options;
  ServeSession session(service->get(), session_options);
  auto query = session.ParseQuery(kQueryLine, 0);
  ASSERT_TRUE(query.ok());
  for (int i = 0; i < 3; ++i) {
    auto result = session.RunQuery(*query, [](const std::string&) {});
    ASSERT_TRUE(result.ok());
  }

  ServiceStats stats = (*service)->stats();
  obs::LabelSet labels = {{"tenant", "t1"}};
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(registry.CounterValue("xsm_queries_total", labels), 3u);
  // The scrape surface mirrors the cache tallies through the hook.
  std::string text = registry.RenderPrometheusText();
  EXPECT_NE(text.find("xsm_queries_total{tenant=\"t1\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("xsm_cluster_cache_hits_total{tenant=\"t1\"} " +
                      std::to_string(stats.cache.hits)),
            std::string::npos);
  EXPECT_NE(text.find("xsm_query_duration_ms_count{tenant=\"t1\"} 3"),
            std::string::npos);
}

TEST(ObservabilityIntegrationTest, MetricsCommandAndSlowQueryLog) {
  MatchServiceOptions options;
  options.num_threads = 2;
  // Every query is "slow" at a zero-adjacent threshold.
  options.slow_query_ms = 0.0001;
  auto service = Matcher::Create(MakeForest(), options);
  ASSERT_TRUE(service.ok());

  ServeSessionOptions session_options;
  ServeSession session(service->get(), session_options);
  auto query = session.ParseQuery(kQueryLine, 0);
  ASSERT_TRUE(query.ok());
  std::vector<std::string> events;
  auto result = session.RunQuery(
      *query, [&](const std::string& line) { events.push_back(line); });
  ASSERT_TRUE(result.ok());

  bool saw_slow = false;
  for (const std::string& line : events) {
    if (line.find("\"type\":\"slow_query\"") != std::string::npos) {
      saw_slow = true;
      EXPECT_NE(line.find("\"id\":\"q1\""), std::string::npos);
      EXPECT_NE(line.find("\"threshold_ms\":"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_slow);
  EXPECT_EQ((*service)->stats().slow_queries, 1u);

  // !metrics wraps the Prometheus exposition as one NDJSON event.
  std::string metrics_line;
  Status status = session.RunCommand(
      "!metrics", [&](const std::string& line) { metrics_line = line; });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(metrics_line.find("\"type\":\"metrics\""), std::string::npos);
  EXPECT_NE(metrics_line.find("xsm_queries_total"), std::string::npos);
  EXPECT_NE(metrics_line.find("xsm_slow_queries_total"), std::string::npos);

  // !stats reports the new counters read back from the registry.
  std::string stats_line;
  status = session.RunCommand(
      "!stats", [&](const std::string& line) { stats_line = line; });
  EXPECT_TRUE(status.ok());
  EXPECT_NE(stats_line.find("\"slow_queries\":1"), std::string::npos);
  EXPECT_NE(stats_line.find("\"wal_appends\":"), std::string::npos);
}

TEST(ObservabilityIntegrationTest, DisabledMetricsStillCounts) {
  // enable_metrics=false is the bench baseline: latency histogram and
  // slow-query checks are skipped, but plain counters (equal cost to the
  // atomics they replaced) keep working.
  MatchServiceOptions options;
  options.num_threads = 2;
  options.enable_metrics = false;
  options.slow_query_ms = 0.0001;
  auto service = Matcher::Create(MakeForest(), options);
  ASSERT_TRUE(service.ok());

  ServeSessionOptions session_options;
  ServeSession session(service->get(), session_options);
  auto query = session.ParseQuery(kQueryLine, 0);
  ASSERT_TRUE(query.ok());
  auto result = session.RunQuery(*query, [](const std::string&) {});
  ASSERT_TRUE(result.ok());

  ServiceStats stats = (*service)->stats();
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.slow_queries, 0u);  // slow-query check is off
  EXPECT_EQ((*service)->metrics().CounterValue("xsm_queries_total"), 1u);
}

}  // namespace
}  // namespace xsm::service
