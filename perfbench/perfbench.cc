// perfbench: the repository's end-to-end benchmark.
//
// One process starts an in-process net::HttpServer over a
// net::TenantRegistry tenant holding the synthetic 100k-element repository
// and drives it through net::HttpClient over loopback — the surface users
// call. Workloads (see README.md for why each exists):
//
//   warm-100k    8 fixed personal schemas, two keep-alive connections in a
//                closed loop after a warm-up pass: every query hits the
//                cluster cache.
//   cold-100k    a fixed pool of 256 distinct personal schemas in a seeded
//                order on two connections: every query misses the cache.
//
// Both run the tenant with a state directory and write-ahead journal. After
// the read window a write probe sends deltas open-loop; then the state
// directory's crash image is recovered, so both report delta and recovery
// latency.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// ledger, from a run that replays requests layer by layer. The last stdout
// line is one JSON object {correct, attempted, failed, metrics}. Exit code 0
// when every response passed its correctness check, 1 when any failed, 2 on
// a usage or set-up error (no result line).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_lib.h"
#include "core/bellflower.h"
#include "match/element_matching.h"
#include "match/name_dictionary.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/tenant_registry.h"
#include "repo/synthetic.h"
#include "service/repository_snapshot.h"
#include "service/serve_session.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using xsm::net::HttpClient;

constexpr char kTenant[] = "bench";
constexpr char kHost[] = "127.0.0.1";
constexpr size_t kCorpusElements = 100000;
// The repository is fixed: per-query cost swings by more than 10x between
// corpus seeds, which would drown any change under test. --seed varies only
// the requests.
constexpr uint64_t kCorpusSeed = 1;
// At most nproc (4) busy threads: a service pool of two, with element
// matching serial on the querying thread, and client connections that
// mostly wait on it. warm-100k keeps two requests in flight. cold-100k
// keeps four, so the pool always has one queued: with two, each 4 ms miss
// crossed idle threads, whose wake-ups on a busy host swung its ten-seed
// spread to 0.29-0.40. One HTTP worker per connection.
constexpr size_t kServiceThreads = 2;
constexpr size_t kWarmConnections = 2;
constexpr size_t kColdConnections = 4;
constexpr size_t kHttpWorkers = kColdConnections;
// The traced run calls layers on its own lanes' threads, so it uses two
// lanes on every workload, its untraced baseline included.
constexpr size_t kTracedLanes = 2;
// Set-ups per run: a single one swings by a quarter within a run, so
// setup_s is the median of several.
constexpr size_t kSetupRepeats = 7;
// Recoveries per run, each from a fresh copy of the crash image.
constexpr size_t kRecoveries = 3;
// Open-loop delta rate, well under the writer's capacity (a delta takes a
// few milliseconds), and the write probe's length.
constexpr double kDeltaRate = 20;
constexpr size_t kProbeDeltas = 150;
// p90 needs 100 samples; the traced replay's p50s need 20.
constexpr size_t kMinTailSamples = 100;
constexpr size_t kMinLayerSamples = 24;
constexpr size_t kReferenceThreads = 4;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

Clock::time_point After(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

struct Options {
  Workload workload = Workload::kWarm;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
};

std::string MatchTarget() {
  return std::string("/v1/tenants/") + kTenant + "/match";
}
std::string IngestTarget() {
  return std::string("/v1/tenants/") + kTenant + "/ingest";
}

// --- Operation accounting --------------------------------------------------

class Tally {
 public:
  void Attempt() { attempted_.fetch_add(1); }
  void Fail(const std::string& why) {
    failed_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    if (++reported_ <= 5) std::fprintf(stderr, "perfbench: FAIL %s\n",
                                       why.c_str());
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex mu_;
  size_t reported_ = 0;
};

// --- Serving stack -----------------------------------------------------------

struct Server {
  // Declaration order is teardown order reversed: the HTTP server (which
  // drains into the registry) goes first.
  std::unique_ptr<xsm::net::TenantRegistry> registry;
  xsm::net::Tenant* tenant = nullptr;
  std::unique_ptr<xsm::net::HttpServer> http;
};

// Creates the tenant over `forest` (checkpoint + journal in `state_dir`),
// or, with `forest` null, recovers it from `state_dir`.
xsm::Result<std::unique_ptr<Server>> OpenServer(
    const std::string& state_dir, xsm::schema::SchemaForest* forest,
    xsm::live::RecoveryReport* report) {
  xsm::net::TenantRegistryOptions options;
  options.service.num_threads = kServiceThreads;
  options.service.matching_threads = 0;
  options.state_dir = state_dir;
  auto server = std::make_unique<Server>();
  server->registry = std::make_unique<xsm::net::TenantRegistry>(options);
  if (forest != nullptr) {
    XSM_ASSIGN_OR_RETURN(server->tenant,
                         server->registry->Create(kTenant, std::move(*forest)));
  } else {
    XSM_ASSIGN_OR_RETURN(server->tenant,
                         server->registry->WarmStart(kTenant, report));
  }
  xsm::net::HttpServerOptions http;
  http.num_workers = kHttpWorkers;
  server->http =
      std::make_unique<xsm::net::HttpServer>(server->registry.get(), http);
  XSM_RETURN_NOT_OK(server->http->StartBackground());
  return server;
}

xsm::Status Connect(HttpClient* client, const Server& server) {
  return client->Connect(kHost, server.http->port(), 10);
}

// One POST; fills `body` on a 200, else returns why it failed.
std::string Post(HttpClient* client, const std::string& target,
                 const std::string& payload, std::string* body) {
  auto response = client->Fetch("POST", target, payload);
  if (!response.ok()) return "transport: " + response.status().ToString();
  if (response->status_code != 200) {
    return "HTTP " + std::to_string(response->status_code) + ": " +
           response->body.substr(0, 200);
  }
  *body = std::move(response->body);
  return "";
}

// --- References ----------------------------------------------------------------

// Reference top-N lists, one per personal schema, for one query δ.
using ReferenceMap = std::map<std::string, std::vector<MappingKey>>;

// Computes the reference top-N of every spec in `specs` at `delta` with a
// fresh core::Bellflower over `forest`, on kReferenceThreads threads. The
// index and name dictionary it builds are gone when it returns.
xsm::Result<ReferenceMap> BuildReferences(
    const xsm::schema::SchemaForest& forest,
    const std::vector<std::string>& specs, double delta) {
  const xsm::core::Bellflower matcher(&forest);
  // A dictionary built once instead of once per call; it only changes how
  // fast element matching runs, never its result.
  const xsm::match::NameDictionary dictionary =
      xsm::match::NameDictionary::Build(forest);
  std::vector<xsm::Result<std::vector<MappingKey>>> lists(
      specs.size(), xsm::Status::Internal("not computed"));
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next.fetch_add(1); i < specs.size();
         i = next.fetch_add(1)) {
      auto personal = xsm::schema::ParseTreeSpec(specs[i]);
      if (!personal.ok()) {
        lists[i] = personal.status();
        continue;
      }
      xsm::core::MatchOptions options;
      options.delta = delta;
      options.top_n = kTopN;
      options.element.dictionary = &dictionary;
      auto result = matcher.Match(*personal, options);
      if (!result.ok()) {
        lists[i] = result.status();
        continue;
      }
      lists[i] = ReferenceKeys(*result, *personal, forest);
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReferenceThreads; ++t) threads.emplace_back(work);
  for (std::thread& thread : threads) thread.join();
  ReferenceMap references;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (!lists[i].ok()) return lists[i].status();
    references[specs[i]] = std::move(*lists[i]);
  }
  return references;
}

// Checks one match response against its reference; counts a failure.
void CheckRead(const ReferenceMap& references, const Query& query,
               const std::string& failure, const std::string& body,
               Tally* tally) {
  std::string reason = failure;
  if (reason.empty()) {
    auto reference = references.find(query.spec);
    reason = reference == references.end()
                 ? "no reference"
                 : CheckTopN(reference->second, body);
  }
  if (!reason.empty()) tally->Fail(query.Line() + ": " + reason);
}

// --- Writer ------------------------------------------------------------------

// The writer's view of the repository: what it last had acknowledged.
struct WriterState {
  uint64_t acked = 0;       ///< last acknowledged generation
  std::string fingerprint;  ///< of `acked`
};

struct WriteLog {
  std::vector<double> latency_ms;  ///< from scheduled send time
  std::vector<double> lag_ms;      ///< how late each send went out
  std::map<std::string, std::vector<double>> spans;  ///< traced sends
  std::vector<double> names_copied;
  std::vector<double> trees_rebuilt;
};

// Sends one delta line; returns "" and fills `body`, or why it failed.
using DeltaSender =
    std::function<std::string(const std::string& line, std::string* body)>;

// Sends `lines` open-loop at kDeltaRate starting now. Each must publish the
// next generation.
void RunWriter(const std::vector<std::string>& lines, const DeltaSender& send,
               WriterState* state, Tally* tally, WriteLog* log) {
  const Clock::time_point start = Clock::now();
  for (size_t k = 0; k < lines.size(); ++k) {
    const Clock::time_point due = After(start, k / kDeltaRate);
    std::this_thread::sleep_until(due);
    log->lag_ms.push_back(MsSince(due));
    tally->Attempt();
    std::string body;
    std::string failure = send(lines[k], &body);
    const double latency = MsSince(due);
    ParsedResponse parsed;
    std::string error;
    const uint64_t expected = state->acked + 1;
    if (failure.empty() && !ParseResponse(body, &parsed, &error)) {
      failure = error;
    }
    if (failure.empty() &&
        (!parsed.has_generation || parsed.generation != expected)) {
      failure = "no generation " + std::to_string(expected) + " event";
    }
    if (!failure.empty()) {
      tally->Fail(lines[k] + ": " + failure);
      continue;
    }
    state->acked = parsed.generation;
    state->fingerprint = parsed.fingerprint;
    log->latency_ms.push_back(latency);
    log->names_copied.push_back(static_cast<double>(parsed.names_copied));
    log->trees_rebuilt.push_back(static_cast<double>(parsed.trees_rebuilt));
    for (const TraceSpan& span : parsed.spans) {
      log->spans[span.name].push_back(span.ms);
    }
  }
}

DeltaSender HttpSender(HttpClient* client) {
  return [client](const std::string& line, std::string* body) {
    return Post(client, IngestTarget(), line, body);
  };
}

// A session over the tenant's backend that emits the program's own trace
// events; the traced run sends its requests through one.
xsm::service::ServeSession TracedSession(const Server& server) {
  xsm::service::ServeSessionOptions options;
  options.allow_filesystem = false;
  options.trace_events = true;
  return xsm::service::ServeSession(server.tenant->service.get(), options);
}

DeltaSender SessionSender(xsm::service::ServeSession* session) {
  return [session](const std::string& line, std::string* body) {
    xsm::Status status = session->RunCommand(
        line, [body](const std::string& event) { *body += event + "\n"; });
    return status.ok() ? std::string() : status.ToString();
  };
}

// --- Readers -------------------------------------------------------------------

struct ReadLog {
  std::vector<double> latency_ms;
  uint64_t bytes = 0;
  double check_ms = 0;  ///< time spent in the reference check
};

// Hands out the next query for a reader lane.
using QuerySource = std::function<Query()>;

struct ReadContext {
  const Server* server = nullptr;
  const ReferenceMap* references = nullptr;
  Tally* tally = nullptr;
};

// Sends one match request and checks the response against its reference.
// Returns the latency, or a negative value when the request failed.
double ReadOnce(const ReadContext& ctx, HttpClient* client, const Query& query,
                ReadLog* log) {
  ctx.tally->Attempt();
  std::string body;
  const Clock::time_point sent = Clock::now();
  std::string failure = Post(client, MatchTarget(), query.Line(), &body);
  const double latency = MsSince(sent);
  const Clock::time_point check = Clock::now();
  CheckRead(*ctx.references, query, failure, body, ctx.tally);
  log->check_ms += MsSince(check);
  if (!failure.empty()) return -1;
  log->bytes += body.size();
  return latency;
}

// A closed-loop reader on its own connection until `stop` says so.
void RunReader(const ReadContext& ctx, const QuerySource& next,
               const std::function<bool(size_t)>& stop, ReadLog* log) {
  HttpClient client;
  xsm::Status connected = Connect(&client, *ctx.server);
  if (!connected.ok()) {
    ctx.tally->Attempt();
    ctx.tally->Fail("connect: " + connected.ToString());
    return;
  }
  while (!stop(log->latency_ms.size())) {
    const double latency = ReadOnce(ctx, &client, next(), log);
    if (latency >= 0) {
      log->latency_ms.push_back(latency);
      continue;
    }
    client.Close();
    if (!Connect(&client, *ctx.server).ok()) return;
  }
}

// --- Traced replay -------------------------------------------------------------

struct LayerLog {
  std::map<std::string, std::vector<double>> ms;  ///< per-layer samples
  ReadLog fetch;  ///< the HTTP layer's bytes and check time
  double fetches = 0;
  double run_query_events = 0;
  double run_query_emitted = 0;
  double run_query_kept = 0;
  double run_queries = 0;
  double mapping_elements = 0;
  double useful_clusters = 0;
  double search_space = 0;
  double partials = 0;
  double mappings = 0;
  double run_ons = 0;

  void Merge(const LayerLog& other) {
    for (const auto& [name, samples] : other.ms) {
      ms[name].insert(ms[name].end(), samples.begin(), samples.end());
    }
    fetch.bytes += other.fetch.bytes;
    fetch.check_ms += other.fetch.check_ms;
    fetches += other.fetches;
    run_query_events += other.run_query_events;
    run_query_emitted += other.run_query_emitted;
    run_query_kept += other.run_query_kept;
    run_queries += other.run_queries;
    mapping_elements += other.mapping_elements;
    useful_clusters += other.useful_clusters;
    search_space += other.search_space;
    partials += other.partials;
    mappings += other.mappings;
    run_ons += other.run_ons;
  }
};

double SpanMs(const std::vector<TraceSpan>& spans, const std::string& name) {
  for (const TraceSpan& span : spans) {
    if (span.name == name) return span.ms;
  }
  return 0;
}

// Replays requests layer by layer, timing the harness's own calls into each
// layer's public functions: HttpClient::Fetch → ServeSession::RunQuery →
// Matcher::RunOn → Matcher::ClusterStateFor, and beneath them
// match::MatchElements → Bellflower::ClusterFromMatching →
// Bellflower::MatchWithState for the work a served query actually did.
// `next(layer)` gives each layer call its request.
void RunReplay(const ReadContext& ctx, xsm::service::ServeSession* traced,
               const std::function<Query(int layer)>& next,
               const std::function<bool(size_t)>& stop, LayerLog* log) {
  xsm::service::Matcher* matcher = ctx.server->tenant->service.get();
  HttpClient client;
  if (!Connect(&client, *ctx.server).ok()) {
    ctx.tally->Attempt();
    ctx.tally->Fail("replay connect");
    return;
  }
  size_t index = 0;
  auto parse = [&](const Query& query) {
    return traced->ParseQuery(query.Line(), index++);
  };
  size_t rounds = 0;
  while (!stop(rounds++)) {
    // Layer 0: the HTTP surface (also checked against the reference).
    const double fetch_ms = ReadOnce(ctx, &client, next(0), &log->fetch);
    if (fetch_ms < 0) return;
    log->ms["fetch"].push_back(fetch_ms);
    log->fetches += 1;

    // The in-process layer calls below count as one more operation.
    ctx.tally->Attempt();

    // Layer 1: the serving session with a counting sink and trace events.
    Query q1 = next(1);
    auto r1 = parse(q1);
    if (!r1.ok()) return ctx.tally->Fail(r1.status().ToString());
    std::string events;
    Clock::time_point t = Clock::now();
    auto run = traced->RunQuery(
        *r1, [&events](const std::string& line) { events += line + "\n"; });
    log->ms["run_query"].push_back(MsSince(t));
    ParsedResponse parsed;
    std::string error;
    if (!run.ok() || !ParseResponse(events, &parsed, &error)) {
      return ctx.tally->Fail("RunQuery: " + error);
    }
    log->run_query_events += static_cast<double>(parsed.lines - 1);  // trace
    log->run_query_emitted += static_cast<double>(parsed.mapping_events);
    log->run_query_kept += static_cast<double>(parsed.kept);
    log->run_queries += 1;
    for (const char* span :
         {"queue_wait", "dict_score", "dict_broadcast", "topk_merge"}) {
      log->ms[span].push_back(SpanMs(parsed.spans, span));
    }

    // Beneath the cache: only the work this query paid for. A cache hit did
    // no element matching or clustering.
    xsm::service::RepositoryPinPtr pin = matcher->Pin();
    const auto* snapshot =
        dynamic_cast<const xsm::service::RepositorySnapshot*>(pin.get());
    if (snapshot == nullptr) return ctx.tally->Fail("pin is not a snapshot");
    xsm::core::MatchOptions effective = matcher->EffectiveOptions(*r1);
    effective.element.dictionary = &snapshot->name_dictionary();
    effective.element.pool = nullptr;
    bool missed = false;
    for (const TraceSpan& span : parsed.spans) {
      if (span.name == "cluster_cache" && span.note == "miss") missed = true;
    }
    xsm::service::ClusterStatePtr state;
    if (missed) {
      t = Clock::now();
      auto matching = xsm::match::MatchElements(
          r1->personal, snapshot->forest(), effective.element);
      const double match_ms = MsSince(t);
      if (!matching.ok()) return ctx.tally->Fail("MatchElements");
      t = Clock::now();
      auto built = snapshot->matcher().ClusterFromMatching(
          r1->personal, std::move(*matching), match_ms / 1e3,
          xsm::core::ClusterStateOptions::From(effective));
      const double kmeans_ms = MsSince(t);
      if (!built.ok()) return ctx.tally->Fail("ClusterFromMatching");
      log->ms["element_match"].push_back(match_ms);
      log->ms["kmeans"].push_back(kmeans_ms);
      state = std::make_shared<const xsm::core::ClusterState>(
          std::move(*built));
    } else {
      log->ms["element_match"].push_back(0);
      log->ms["kmeans"].push_back(0);
      auto cached = matcher->ClusterStateFor(pin, *r1);
      if (!cached.ok()) return ctx.tally->Fail("ClusterStateFor");
      state = *cached;
    }
    t = Clock::now();
    auto generated =
        snapshot->matcher().MatchWithState(r1->personal, *state, effective);
    log->ms["generate"].push_back(MsSince(t));
    if (!generated.ok()) return ctx.tally->Fail("MatchWithState");

    // Layer 2: the backend with no observer.
    Query q2 = next(2);
    auto r2 = parse(q2);
    if (!r2.ok()) return ctx.tally->Fail(r2.status().ToString());
    t = Clock::now();
    auto direct = matcher->RunOn(matcher->Pin(), *r2,
                                 xsm::core::ExecutionControl(), nullptr);
    log->ms["run_on"].push_back(MsSince(t));
    if (!direct.ok()) return ctx.tally->Fail("RunOn");
    const xsm::core::MatchStats& stats = direct->stats;
    log->mapping_elements += static_cast<double>(stats.total_mapping_elements);
    log->useful_clusters += static_cast<double>(stats.num_useful_clusters);
    log->search_space += stats.search_space;
    log->partials += static_cast<double>(stats.generator.partial_mappings);
    log->mappings += static_cast<double>(stats.num_mappings);
    log->run_ons += 1;

    // Layer 3: the cluster-state cache.
    Query q3 = next(3);
    auto r3 = parse(q3);
    if (!r3.ok()) return ctx.tally->Fail(r3.status().ToString());
    t = Clock::now();
    auto cluster_state = matcher->ClusterStateFor(matcher->Pin(), *r3);
    log->ms["cluster_state"].push_back(MsSince(t));
    if (!cluster_state.ok()) return ctx.tally->Fail("ClusterStateFor");
  }
}

// --- Runs ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Run {
 public:
  explicit Run(Options options) : options_(std::move(options)) {}

  int Execute();

 private:
  // The personal schemas the load sends, and their δ.
  const std::vector<std::string>& LoadSchemas() const;
  // Connections (or, traced, replay lanes) that send them.
  size_t Lanes() const;
  double LoadDelta() const;
  // Reference top-N of every load schema over the initial repository, built
  // before any serving starts and freed before it does, so the reference
  // index never shares the process with the tenant.
  xsm::Status PrepareReferences();
  // Builds the corpus and the serving stack (one set-up); returns seconds.
  xsm::Result<double> SetUp(const std::string& state_dir);
  xsm::Status WarmUp();
  // The untraced load window: closed-loop readers.
  void Load(double seconds, ReadLog* reads);
  void Replay(double seconds, LayerLog* layers);
  void Probe(const DeltaSender& send, WriteLog* writes);
  // Crash image + recoveries; returns per-recovery milliseconds. Keeps each
  // recovery's first response for CheckRecoveries, and the last recovered
  // tenant's forest in `forest`.
  xsm::Result<std::vector<double>> CrashAndRecover(
      xsm::live::RecoveryReport* report, uint64_t* wal_bytes,
      xsm::schema::SchemaForest* forest);
  // Checks those responses against a reference over `forest`. Recovery
  // restored the last acknowledged generation's fingerprint, so this is
  // that generation's repository.
  void CheckRecoveries(const xsm::schema::SchemaForest& forest);
  QuerySource ReadSource(size_t lane);
  void Emit(const std::vector<Metric>& metrics);

  Options options_;
  Tally tally_;
  ReferenceMap references_;
  WriterState writer_;
  std::unique_ptr<Server> server_;
  std::string state_dir_;
  size_t initial_trees_ = 0;
  std::mutex cold_mu_;
  std::unique_ptr<ColdStream> cold_;
  // (failure, body) of each recovery's first query.
  std::vector<std::pair<std::string, std::string>> recovery_reads_;
};

const std::vector<std::string>& Run::LoadSchemas() const {
  return options_.workload == Workload::kWarm ? WarmSchemas() : ColdSchemas();
}

size_t Run::Lanes() const {
  if (options_.trace) return kTracedLanes;
  return options_.workload == Workload::kWarm ? kWarmConnections
                                              : kColdConnections;
}

double Run::LoadDelta() const {
  return options_.workload == Workload::kWarm ? kWarmDelta : kColdDelta;
}

xsm::repo::SyntheticRepoOptions CorpusOptions() {
  xsm::repo::SyntheticRepoOptions corpus;
  corpus.target_elements = kCorpusElements;
  corpus.seed = kCorpusSeed;
  return corpus;
}

xsm::Status Run::PrepareReferences() {
  XSM_ASSIGN_OR_RETURN(
      xsm::schema::SchemaForest forest,
      xsm::repo::GenerateSyntheticRepository(CorpusOptions()));
  XSM_ASSIGN_OR_RETURN(references_,
                       BuildReferences(forest, LoadSchemas(), LoadDelta()));
  return xsm::Status::OK();
}

xsm::Result<double> Run::SetUp(const std::string& state_dir) {
  server_.reset();  // the previous repetition's stack, outside the clock
  const Clock::time_point start = Clock::now();
  XSM_ASSIGN_OR_RETURN(
      xsm::schema::SchemaForest forest,
      xsm::repo::GenerateSyntheticRepository(CorpusOptions()));
  initial_trees_ = forest.num_trees();
  XSM_ASSIGN_OR_RETURN(server_, OpenServer(state_dir, &forest, nullptr));
  state_dir_ = state_dir;
  if (options_.workload == Workload::kWarm) XSM_RETURN_NOT_OK(WarmUp());
  return MsSince(start) / 1e3;
}

xsm::Status Run::WarmUp() {
  HttpClient client;
  XSM_RETURN_NOT_OK(Connect(&client, *server_));
  RotationStream warm(&WarmSchemas(), kWarmDelta, options_.seed, 99);
  for (size_t i = 0; i < WarmSchemas().size(); ++i) {
    std::string body;
    std::string failure = Post(&client, MatchTarget(), warm.Next().Line(),
                               &body);
    if (!failure.empty()) return xsm::Status::IOError("warm-up: " + failure);
  }
  return xsm::Status::OK();
}

QuerySource Run::ReadSource(size_t lane) {
  if (options_.workload == Workload::kCold) {
    return [this] {
      std::lock_guard<std::mutex> lock(cold_mu_);
      return cold_->Next();
    };
  }
  auto stream = std::make_shared<RotationStream>(&WarmSchemas(), kWarmDelta,
                                                 options_.seed, lane);
  return [stream] { return stream->Next(); };
}

void Run::Load(double seconds, ReadLog* reads) {
  ReadContext ctx;
  ctx.server = server_.get();
  ctx.references = &references_;
  ctx.tally = &tally_;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = After(start, seconds);
  const Clock::time_point hard_stop = After(start, 3 * seconds);
  std::atomic<size_t> samples{0};
  std::vector<ReadLog> logs(Lanes());
  std::vector<std::thread> threads;
  for (size_t lane = 0; lane < logs.size(); ++lane) {
    threads.emplace_back([&, lane] {
      size_t counted = 0;
      RunReader(ctx, ReadSource(lane),
                [&](size_t n) {
                  samples.fetch_add(n - counted);
                  counted = n;
                  const Clock::time_point now = Clock::now();
                  return (now >= deadline &&
                          samples.load() >= kMinTailSamples) ||
                         now >= hard_stop;
                },
                &logs[lane]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const ReadLog& log : logs) {
    reads->latency_ms.insert(reads->latency_ms.end(), log.latency_ms.begin(),
                             log.latency_ms.end());
    reads->bytes += log.bytes;
    reads->check_ms += log.check_ms;
  }
}

void Run::Replay(double seconds, LayerLog* layers) {
  ReadContext ctx;
  ctx.server = server_.get();
  ctx.references = &references_;
  ctx.tally = &tally_;
  xsm::service::ServeSession traced = TracedSession(*server_);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = After(start, seconds);
  const Clock::time_point hard_stop = After(start, 3 * seconds);
  auto stop = [&](size_t rounds) {
    const Clock::time_point now = Clock::now();
    return (now >= deadline && rounds >= kMinLayerSamples) ||
           now >= hard_stop;
  };
  // Warm: every layer sees the same request. Cold: each layer call takes
  // the next request, so every layer meets a cache miss as a served query
  // would.
  auto source_for = [&](size_t lane) -> std::function<Query(int)> {
    QuerySource source = ReadSource(100 + lane);
    if (options_.workload == Workload::kCold) {
      return [source](int) { return source(); };
    }
    auto current = std::make_shared<Query>();
    return [source, current](int layer) {
      if (layer == 0) *current = source();
      return *current;
    };
  };
  std::vector<LayerLog> logs(Lanes());
  std::vector<std::thread> threads;
  for (size_t lane = 0; lane < logs.size(); ++lane) {
    threads.emplace_back([&, lane] {
      RunReplay(ctx, &traced, source_for(lane), stop, &logs[lane]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const LayerLog& log : logs) layers->Merge(log);
}

void Run::Probe(const DeltaSender& send, WriteLog* writes) {
  RunWriter(DeltaStream(options_.seed, initial_trees_, kProbeDeltas), send,
            &writer_, &tally_, writes);
}

xsm::Result<std::vector<double>> Run::CrashAndRecover(
    xsm::live::RecoveryReport* report, uint64_t* wal_bytes,
    xsm::schema::SchemaForest* forest) {
  // The crash image: the state directory as it stands with the server still
  // up. Every acknowledged delta is already fsync'd in the journal, so this
  // is exactly what a SIGKILL would leave; the live server then shuts down
  // normally (its drain save lands in the original directory, not here).
  const std::string crash_dir = options_.work_dir + "/crash";
  fs::create_directories(crash_dir);
  for (const char* ext : {".snap", ".wal"}) {
    fs::copy_file(state_dir_ + "/" + kTenant + ext,
                  crash_dir + "/" + kTenant + ext,
                  fs::copy_options::overwrite_existing);
  }
  *wal_bytes = fs::file_size(crash_dir + "/" + kTenant + ".wal");
  server_.reset();

  const Query query{kRecoverySpec, kRecoveryDelta, "recover"};
  std::vector<double> recover_ms;
  for (size_t i = 0; i < kRecoveries; ++i) {
    const std::string dir = options_.work_dir + "/recover" + std::to_string(i);
    fs::remove_all(dir);
    fs::copy(crash_dir, dir);
    const Clock::time_point start = Clock::now();
    XSM_ASSIGN_OR_RETURN(std::unique_ptr<Server> recovered,
                         OpenServer(dir, nullptr, report));
    HttpClient client;
    XSM_RETURN_NOT_OK(Connect(&client, *recovered));
    std::string body;
    tally_.Attempt();
    std::string failure = Post(&client, MatchTarget(), query.Line(), &body);
    recover_ms.push_back(MsSince(start));
    recovery_reads_.emplace_back(std::move(failure), std::move(body));
    xsm::service::RepositoryPinPtr pin = recovered->tenant->service->Pin();
    char fingerprint[32];
    std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                  static_cast<unsigned long long>(pin->fingerprint()));
    tally_.Attempt();
    if (pin->generation() != writer_.acked ||
        fingerprint != writer_.fingerprint) {
      tally_.Fail("recovered generation " + std::to_string(pin->generation()) +
                  "/" + fingerprint + ", acknowledged " +
                  std::to_string(writer_.acked) + "/" + writer_.fingerprint);
    }
    // Taken from the last recovery only: its trees are the live tenant's,
    // so holding them adds nothing to peak memory.
    if (i + 1 == kRecoveries) *forest = pin->forest();
  }
  return recover_ms;
}

void Run::CheckRecoveries(const xsm::schema::SchemaForest& forest) {
  const Query query{kRecoverySpec, kRecoveryDelta, "recover"};
  auto references = BuildReferences(forest, {query.spec}, query.delta);
  if (!references.ok()) {
    tally_.Attempt();
    tally_.Fail("recovery reference: " + references.status().ToString());
    return;
  }
  for (const auto& [failure, body] : recovery_reads_) {
    CheckRead(*references, query, failure, body, &tally_);
  }
}

double PercentileOr(const std::vector<double>& samples, double q,
                    const char* what, bool* complete) {
  std::optional<double> value = Percentile(samples, q);
  if (!value) {
    std::fprintf(stderr, "perfbench: too few samples (%zu) for %s\n",
                 samples.size(), what);
    *complete = false;
    return 0;
  }
  return *value;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int Run::Execute() {
  std::printf(
      "{\"env\":{\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"workload\":\"%s\",\"seed\":%llu,\"corpus_seed\":%llu,"
      "\"corpus_elements\":%zu,\"seconds\":%g,\"trace\":%d}}\n",
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, WorkloadName(options_.workload),
      static_cast<unsigned long long>(options_.seed),
      static_cast<unsigned long long>(kCorpusSeed), kCorpusElements,
      options_.seconds, options_.trace ? 1 : 0);
  cold_ = std::make_unique<ColdStream>(options_.seed);
  const Clock::time_point run_start = Clock::now();
  auto phase_done = [&](const char* phase) {
    std::fprintf(stderr, "perfbench: %s done at %.1f s (peak RSS %.1f MB)\n",
                 phase, MsSince(run_start) / 1e3, PeakRssMb());
  };

  xsm::Status prepared = PrepareReferences();
  if (!prepared.ok()) {
    std::fprintf(stderr, "perfbench: references failed: %s\n",
                 prepared.ToString().c_str());
    return 2;
  }
  phase_done("references");

  // Set-up, repeated so its median is steady; the last one serves the load.
  std::vector<double> setup_s;
  const size_t repeats = options_.trace ? 1 : kSetupRepeats;
  for (size_t i = 0; i < repeats; ++i) {
    const std::string dir = options_.work_dir + "/state" + std::to_string(i);
    auto seconds = SetUp(dir);
    if (!seconds.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   seconds.status().ToString().c_str());
      return 2;
    }
    setup_s.push_back(*seconds);
    std::fprintf(stderr, "perfbench: one set-up took %.3f s\n", *seconds);
  }
  phase_done("set-up");

  std::vector<double> checkpoint_ms;
  if (options_.trace) {
    for (size_t i = 0; i < kSetupRepeats; ++i) {
      const Clock::time_point start = Clock::now();
      if (!server_->registry->Save(kTenant).ok()) return 2;
      checkpoint_ms.push_back(MsSince(start));
    }
  }

  const xsm::service::ServiceStats before = server_->tenant->service->stats();
  ReadLog reads;
  const double load_seconds =
      options_.trace ? options_.seconds / 2 : options_.seconds;
  const Clock::time_point load_start = Clock::now();
  Load(load_seconds, &reads);
  const double load_elapsed = MsSince(load_start) / 1e3;
  phase_done("load");
  const xsm::service::ServiceStats after = server_->tenant->service->stats();

  LayerLog layers;
  WriteLog writes;
  if (options_.trace) {
    Replay(options_.seconds / 2, &layers);
    xsm::service::ServeSession traced = TracedSession(*server_);
    Probe(SessionSender(&traced), &writes);
  } else {
    HttpClient client;
    if (!Connect(&client, *server_).ok()) return 2;
    Probe(HttpSender(&client), &writes);
  }
  const xsm::net::HttpServerStats http_stats = server_->http->stats();
  phase_done("replay and write probe");
  // Peak memory of set-up and serving. The recoveries that follow are left
  // out: back-to-back warm starts leave an allocator peak that swung by a
  // fifth between runs.
  const double peak_rss_mb = PeakRssMb();

  xsm::live::RecoveryReport report;
  uint64_t wal_bytes = 0;
  xsm::schema::SchemaForest recovered_forest;
  auto recover_ms = CrashAndRecover(&report, &wal_bytes, &recovered_forest);
  if (!recover_ms.ok()) {
    std::fprintf(stderr, "perfbench: recovery failed: %s\n",
                 recover_ms.status().ToString().c_str());
    return 2;
  }
  phase_done("crash and recovery");
  for (double ms : *recover_ms) {
    std::fprintf(stderr, "perfbench: one recovery took %.1f ms\n", ms);
  }
  CheckRecoveries(recovered_forest);
  phase_done("recovery check");

  bool complete = true;
  std::vector<Metric> metrics;
  // Share of each connection's load window spent in the reference check.
  const double check_share =
      reads.check_ms / (1e3 * load_elapsed * static_cast<double>(Lanes()));
  if (!options_.trace) {
    const double n = static_cast<double>(reads.latency_ms.size());
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"query_p50_ms", PercentileOr(reads.latency_ms, 0.5, "query p50",
                                      &complete), "ms"},
        {"query_p90_ms", PercentileOr(reads.latency_ms, 0.9, "query p90",
                                      &complete), "ms"},
        {"query_qps", n / load_elapsed, "1/s"},
        {"resp_kb_per_query",
         n > 0 ? static_cast<double>(reads.bytes) / 1024.0 / n : 0, "KB"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    // Printed only: their run-to-run spread on a shared machine (0.17-0.5
    // for the deltas, from disk-flush noise; 0.1-0.3 for recovery, which
    // builds a new repository snapshot per replayed record) is too wide for a
    // bound of at most 0.25.
    std::printf("recover_ms = %.4f ms (not gated)\n", Median(*recover_ms));
    std::printf("delta_p50_ms = %.4f ms (not gated)\n",
                PercentileOr(writes.latency_ms, 0.5, "delta p50", &complete));
    std::printf("delta_p90_ms = %.4f ms (not gated)\n",
                PercentileOr(writes.latency_ms, 0.9, "delta p90", &complete));
    std::printf("harness_check_share = %.4f (not gated)\n", check_share);
    std::printf("failed_ratio = %.6f (%llu of %llu operations)\n",
                tally_.attempted() == 0
                    ? 0.0
                    : static_cast<double>(tally_.failed()) /
                          static_cast<double>(tally_.attempted()),
                static_cast<unsigned long long>(tally_.failed()),
                static_cast<unsigned long long>(tally_.attempted()));
  } else {
    auto p50 = [&](const char* layer) {
      return PercentileOr(layers.ms[layer], 0.5, layer, &complete);
    };
    auto span_p50 = [&](const char* span) {
      return PercentileOr(writes.spans[span], 0.5, span, &complete);
    };
    auto mean = [](double sum, double n) { return n > 0 ? sum / n : 0.0; };
    const double fetch = p50("fetch");
    const double run_query = p50("run_query");
    const double run_on = p50("run_on");
    const double untraced_p50 =
        PercentileOr(reads.latency_ms, 0.5, "untraced query p50", &complete);
    const uint64_t lookups = (after.cache.hits - before.cache.hits) +
                             (after.cache.shared - before.cache.shared) +
                             (after.cache.misses - before.cache.misses);
    double names_copied = 0, trees_rebuilt = 0;
    for (double v : writes.names_copied) names_copied += v;
    for (double v : writes.trees_rebuilt) trees_rebuilt += v;
    const double deltas = static_cast<double>(writes.names_copied.size());
    metrics = {
        {"net.fetch_ms.p50", fetch, "ms"},
        {"net.self_ms.p50", SelfTime(fetch, run_query), "ms"},
        {"net.resp_bytes_per_query",
         mean(static_cast<double>(layers.fetch.bytes), layers.fetches),
         "bytes"},
        {"net.requests_shed", static_cast<double>(http_stats.requests_shed),
         "count"},
        {"net.parse_failures", static_cast<double>(http_stats.parse_failures),
         "count"},
        {"service.run_query_ms.p50", run_query, "ms"},
        {"service.encode_ms.p50", SelfTime(run_query, run_on), "ms"},
        {"service.events_per_query",
         mean(layers.run_query_events, layers.run_queries), "count"},
        {"service.kept_per_emitted",
         mean(layers.run_query_kept, layers.run_query_emitted), "ratio"},
        {"service.queue_wait_ms.p50", p50("queue_wait"), "ms"},
        {"service.cache_hit_ratio",
         lookups == 0 ? 0
                      : static_cast<double>(after.cache.hits -
                                            before.cache.hits) /
                            static_cast<double>(lookups),
         "ratio"},
        {"service.cache_evictions",
         static_cast<double>(after.cache.evictions - before.cache.evictions),
         "count"},
        {"service.cluster_state_ms.p50", p50("cluster_state"), "ms"},
        {"match.element_match_ms.p50", p50("element_match"), "ms"},
        {"match.dict_score_ms.p50", p50("dict_score"), "ms"},
        {"match.dict_broadcast_ms.p50", p50("dict_broadcast"), "ms"},
        {"match.mapping_elements_per_query",
         mean(layers.mapping_elements, layers.run_ons), "count"},
        {"cluster.kmeans_ms.p50", p50("kmeans"), "ms"},
        {"cluster.useful_clusters_per_query",
         mean(layers.useful_clusters, layers.run_ons), "count"},
        {"cluster.search_space_per_query",
         mean(layers.search_space, layers.run_ons), "count"},
        {"generate.ms.p50", p50("generate"), "ms"},
        {"generate.partials_per_query", mean(layers.partials, layers.run_ons),
         "count"},
        {"generate.mappings_per_query", mean(layers.mappings, layers.run_ons),
         "count"},
        {"generate.topk_merge_ms.p50", p50("topk_merge"), "ms"},
        {"live.delta_validate_ms.p50", span_p50("delta_validate"), "ms"},
        {"live.snapshot_build_ms.p50", span_p50("snapshot_build"), "ms"},
        {"wal.fsync_ms.p50", span_p50("wal_fsync"), "ms"},
        {"live.publish_ms.p50", span_p50("publish"), "ms"},
        {"live.names_copied_per_delta", mean(names_copied, deltas), "count"},
        {"live.trees_rebuilt_per_delta", mean(trees_rebuilt, deltas),
         "count"},
        {"wal.bytes_per_delta",
         mean(static_cast<double>(wal_bytes),
              static_cast<double>(writer_.acked)),
         "bytes"},
        {"live.records_replayed", static_cast<double>(report.records_replayed),
         "count"},
        {"live.recover_ms_per_record",
         mean(Median(*recover_ms),
              static_cast<double>(report.records_replayed)),
         "ms"},
        {"store.checkpoint_save_ms", Median(checkpoint_ms), "ms"},
        {"harness.write_lag_ms.p90",
         PercentileOr(writes.lag_ms, 0.9, "write lag p90", &complete), "ms"},
        {"harness.trace_overhead_ratio",
         untraced_p50 > 0 ? fetch / untraced_p50 : 0, "ratio"},
        {"harness.check_share", check_share, "ratio"},
    };
  }
  if (!complete) {
    tally_.Attempt();
    tally_.Fail("a percentile lacked the samples it needs");
  }
  Emit(metrics);
  return tally_.failed() == 0 ? 0 : 1;
}

void Run::Emit(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += tally_.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally_.attempted());
  json += ", \"failed\": " + std::to_string(tally_.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload warm-100k|cold-100k "
               "--seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      std::optional<Workload> workload = ParseWorkload(value);
      if (!workload) return Usage();
      options.workload = *workload;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || options.seconds <= 0 || options.work_dir.empty() ||
      argc % 2 != 1) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Usage();
  int code = 2;
  {
    Run run(options);
    code = run.Execute();
  }
  std::filesystem::remove_all(options.work_dir, ec);
  return code;
}
