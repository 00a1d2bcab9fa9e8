// The pure parts of the perfbench harness, kept apart from the HTTP load
// generator so they can be unit-tested: percentile and self-time arithmetic,
// the seeded request streams each workload sends, NDJSON response parsing,
// and the top-N reference check every match response must pass.
#ifndef PERFBENCH_BENCH_LIB_H_
#define PERFBENCH_BENCH_LIB_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/bellflower.h"
#include "schema/schema_forest.h"
#include "schema/schema_tree.h"

namespace perfbench {

enum class Workload { kWarm, kCold };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

// --- Statistics -------------------------------------------------------------

/// Nearest-rank percentile `q` (in (0, 1)) of `samples`. A percentile is only
/// reported when at least ten samples lie beyond it, i.e. n·(1 − q) ≥ 10:
/// p50 needs 20 samples and p90 needs 100. Fewer yields nullopt.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Median of any non-empty sample set (mean of the middle two for even n);
/// used for the few repeated set-up and recovery measurements of one run.
double Median(std::vector<double> samples);

/// Self time of a layer: its time minus the time of the layer beneath it,
/// clamped at zero (the two are measured on different calls, so noise can
/// make the inner one read longer).
double SelfTime(double outer_ms, double inner_ms);

// --- Request streams --------------------------------------------------------

inline constexpr size_t kTopN = 10;
inline constexpr double kWarmDelta = 0.75;
inline constexpr double kColdDelta = 0.9;
/// The query each recovery sends to prove the tenant serves again. It is
/// flat on purpose: deltas reshape the k-means clusters, and a deeper schema
/// can then map in tens of thousands of ways (one 5-node schema went from
/// 221 to 34,017 mappings after a single tree removal), past the client's
/// 8 MB response limit.
inline constexpr char kRecoverySpec[] = "person(name,phone)";
inline constexpr double kRecoveryDelta = 0.75;
/// Distinct schemas in the `cold-100k` pool: four times the service's
/// 64-entry cluster cache, so a cyclic walk over the pool always misses.
inline constexpr size_t kColdPoolSize = 256;

/// One match request as the program receives it: a query line of the serve
/// grammar. The harness keeps the parts it needs to rebuild the reference.
struct Query {
  std::string spec;
  double delta = 0;
  std::string id;

  std::string Line() const;
};

/// The fixed personal schemas of `warm-100k`.
const std::vector<std::string>& WarmSchemas();
/// The `cold-100k` pool: kColdPoolSize distinct personal schemas, each a
/// root concept with 2–4 distinct leaf concepts (sorted). The pool is the
/// same for every seed, so every run pays for the same population of
/// schemas; the seed only orders it.
const std::vector<std::string>& ColdSchemas();

/// Round-robin over a fixed schema set from a seeded starting offset; each
/// connection `lane` gets its own offset.
class RotationStream {
 public:
  RotationStream(const std::vector<std::string>* specs, double delta,
                 uint64_t seed, size_t lane);
  Query Next();

 private:
  const std::vector<std::string>* specs_;
  double delta_;
  size_t lane_;
  size_t next_;
  uint64_t issued_ = 0;
};

/// The `cold-100k` request stream: the cold pool in a seeded order, walked
/// cyclically. A schema recurs only after every other pool schema, so under
/// the cache's LRU policy every query misses.
class ColdStream {
 public:
  explicit ColdStream(uint64_t seed);
  Query Next();

 private:
  std::vector<size_t> order_;  ///< permutation of the pool
  uint64_t issued_ = 0;
};

/// `count` repository command lines (!ingest / !replace / !remove) for a
/// repository that starts with `initial_trees` trees. Tree ids are valid
/// when the lines are applied in order; removals compact ids, so only the
/// running count matters. The count stays within ±8 of the start.
std::vector<std::string> DeltaStream(uint64_t seed, size_t initial_trees,
                                     size_t count);

// --- Responses --------------------------------------------------------------

/// One ranked mapping as a response or the reference reports it: Δ at the
/// precision the events print it, and the mapping text.
struct MappingKey {
  double delta = 0;
  std::string text;
};

struct TraceSpan {
  std::string name;
  std::string note;
  double ms = 0;
};

/// What the traced replay and the delta writer read out of one NDJSON
/// response body (match responses are checked by CheckTopN).
struct ParsedResponse {
  size_t lines = 0;          ///< every event line
  size_t mapping_events = 0;
  size_t kept = 0;           ///< done event's returned-list length
  std::vector<TraceSpan> spans;  ///< from a trace event, if any
  bool has_generation = false;
  uint64_t generation = 0;   ///< generation event fields
  std::string fingerprint;
  size_t names_copied = 0;
  size_t trees_rebuilt = 0;
};

/// Parses an NDJSON body. Returns false (with `error` set) on a line that
/// is not a recognisable event.
bool ParseResponse(std::string_view body, ParsedResponse* out,
                   std::string* error);

/// The reference top-N as MappingKeys, rendered exactly as mapping events
/// render them.
std::vector<MappingKey> ReferenceKeys(const xsm::core::MatchResult& result,
                                      const xsm::schema::SchemaTree& personal,
                                      const xsm::schema::SchemaForest& forest);

/// Checks one NDJSON response body against the reference top-N `reference`
/// (rank order). The response must have completed with exactly the
/// reference's length kept, must contain every reference mapping, and must
/// hold no mapping strictly better than the reference's last one that the
/// reference lacks. Non-final mapping events (the running list a stream
/// may emit before its final result) never fail the check: each is either
/// a reference mapping or no better than the N-th. One pass over the body;
/// only mappings at or above the N-th's Δ have their text decoded, so the
/// check stays cheap next to the request it checks. Returns "" when the
/// response passes, else the reason.
std::string CheckTopN(const std::vector<MappingKey>& reference,
                      std::string_view body);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_LIB_H_
