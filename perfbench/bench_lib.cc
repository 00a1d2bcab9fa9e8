#include "bench_lib.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "generate/schema_mapping.h"
#include "util/random.h"

namespace perfbench {

namespace {

// Canonical concept names of the synthetic repository generator
// (src/repo/synthetic.cc). Cold schemas and ingested trees are built from
// them so they match the corpus the way real personal schemas would.
const std::vector<std::string>& ConceptNames() {
  static const std::vector<std::string> kNames = {
      "name",     "address",  "email",     "phone",    "id",
      "date",     "description", "url",    "status",   "type",
      "person",   "title",    "gender",    "age",      "company",
      "department", "city",   "street",    "zip",      "country",
      "book",     "author",   "isbn",      "publisher", "year",
      "chapter",  "page",     "abstract",  "album",    "artist",
      "billing",  "branch",   "budget",    "currency", "customer",
      "discount", "duration", "edition",   "genre",    "image",
      "item",     "manager",  "order",     "price",    "project",
      "quantity", "rating",   "role",      "shipping", "sku",
      "tax",      "team",     "total",     "track",
  };
  return kNames;
}

std::string FormatDelta(double delta) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", delta);
  return buf;
}

// --- Minimal field extraction for the event lines the program emits. -------

// Position just past `"key":` in `line`, or npos.
size_t FieldStart(std::string_view line, std::string_view key) {
  std::string pattern = "\"" + std::string(key) + "\":";
  size_t pos = line.find(pattern);
  return pos == std::string_view::npos ? pos : pos + pattern.size();
}

bool NumberField(std::string_view line, std::string_view key, double* out) {
  size_t pos = FieldStart(line, key);
  if (pos == std::string_view::npos) return false;
  std::string digits;
  while (pos < line.size() && (std::isdigit(static_cast<unsigned char>(
                                   line[pos])) ||
                               line[pos] == '.' || line[pos] == '-' ||
                               line[pos] == 'e' || line[pos] == '+')) {
    digits += line[pos++];
  }
  if (digits.empty()) return false;
  *out = std::strtod(digits.c_str(), nullptr);
  return true;
}

void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

// Decodes the JSON string starting at `pos` (just past its opening quote).
bool DecodeString(std::string_view line, size_t pos, std::string* out) {
  out->clear();
  while (pos < line.size()) {
    char c = line[pos++];
    if (c == '"') return true;
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (pos >= line.size()) return false;
    char e = line[pos++];
    switch (e) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        if (pos + 4 > line.size()) return false;
        uint32_t cp = static_cast<uint32_t>(
            std::strtoul(std::string(line.substr(pos, 4)).c_str(), nullptr,
                         16));
        pos += 4;
        AppendUtf8(cp, out);
        break;
      }
      default:
        return false;
    }
  }
  return false;
}

bool StringField(std::string_view line, std::string_view key,
                 std::string* out) {
  size_t pos = FieldStart(line, key);
  if (pos == std::string_view::npos || pos >= line.size() ||
      line[pos] != '"') {
    return false;
  }
  return DecodeString(line, pos + 1, out);
}

void ParseSpans(std::string_view line, std::vector<TraceSpan>* spans) {
  static constexpr std::string_view kName = "{\"name\":\"";
  size_t pos = line.find(kName);
  while (pos != std::string_view::npos) {
    size_t close = line.find('}', pos);
    std::string_view object = line.substr(pos, close - pos + 1);
    TraceSpan span;
    StringField(object, "name", &span.name);
    StringField(object, "note", &span.note);
    NumberField(object, "ms", &span.ms);
    spans->push_back(std::move(span));
    pos = line.find(kName, close);
  }
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "warm-100k") return Workload::kWarm;
  if (name == "cold-100k") return Workload::kCold;
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kWarm: return "warm-100k";
    case Workload::kCold: return "cold-100k";
  }
  return "?";
}

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const double n = static_cast<double>(samples.size());
  if (samples.empty() || q <= 0 || q >= 1 || n * (1 - q) < 10 - 1e-9) {
    return std::nullopt;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double SelfTime(double outer_ms, double inner_ms) {
  return std::max(0.0, outer_ms - inner_ms);
}

std::string Query::Line() const {
  return spec + " id=" + id + " delta=" + FormatDelta(delta) +
         " top=" + std::to_string(kTopN);
}

const std::vector<std::string>& WarmSchemas() {
  static const std::vector<std::string> kSchemas = {
      "order(customer(name,address),item(price,quantity))",
      "name(address,email)",
      "person(name,phone)",
      "employee(name,email,phone)",
      "contact(name,address,phone)",
      "user(name,email,id)",
      "company(name,address(street,city,country))",
      "publication(title,author,year)",
  };
  return kSchemas;
}

RotationStream::RotationStream(const std::vector<std::string>* specs,
                               double delta, uint64_t seed, size_t lane)
    : specs_(specs), delta_(delta), lane_(lane) {
  xsm::Rng rng(seed * 1000003 + lane);
  next_ = static_cast<size_t>(rng.Uniform(specs_->size()));
}

Query RotationStream::Next() {
  Query query;
  query.spec = (*specs_)[next_];
  query.delta = delta_;
  query.id = "r" + std::to_string(lane_) + "-" + std::to_string(issued_++);
  next_ = (next_ + 1) % specs_->size();
  return query;
}

const std::vector<std::string>& ColdSchemas() {
  static const std::vector<std::string> kPool = [] {
    const std::vector<std::string>& names = ConceptNames();
    xsm::Rng rng(0xC01DC01DC01DC01Dull);  // fixed: one pool for every seed
    std::vector<std::string> pool;
    std::vector<std::string> seen;  // sorted, for uniqueness
    while (pool.size() < kColdPoolSize) {
      std::vector<size_t> picked;
      size_t leaves = 2 + static_cast<size_t>(rng.Uniform(3));
      while (picked.size() < leaves + 1) {
        size_t i = static_cast<size_t>(rng.Uniform(names.size()));
        if (std::find(picked.begin(), picked.end(), i) == picked.end()) {
          picked.push_back(i);
        }
      }
      std::sort(picked.begin() + 1, picked.end());
      std::string spec = names[picked[0]] + "(";
      for (size_t k = 1; k < picked.size(); ++k) {
        if (k > 1) spec += ",";
        spec += names[picked[k]];
      }
      spec += ")";
      auto at = std::lower_bound(seen.begin(), seen.end(), spec);
      if (at != seen.end() && *at == spec) continue;
      seen.insert(at, spec);
      pool.push_back(std::move(spec));
    }
    return pool;
  }();
  return kPool;
}

ColdStream::ColdStream(uint64_t seed) : order_(ColdSchemas().size()) {
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  xsm::Rng rng(seed ^ 0xC01DC01DC01DC01Dull);
  for (size_t i = order_.size(); i > 1; --i) {
    std::swap(order_[i - 1], order_[static_cast<size_t>(rng.Uniform(i))]);
  }
}

Query ColdStream::Next() {
  Query query;
  query.spec = ColdSchemas()[order_[issued_ % order_.size()]];
  query.delta = kColdDelta;
  query.id = "c" + std::to_string(issued_++);
  return query;
}

namespace {

// A small tree spec of 3–19 nodes: a root, 2–6 children, some with two
// children of their own. Names never repeat within a tree, which keeps the
// number of ways a personal schema maps into it (and so the response size)
// in line with the corpus's own trees.
std::string RandomTreeSpec(xsm::Rng& rng) {
  std::vector<std::string> names = ConceptNames();
  auto pick = [&]() {
    size_t i = static_cast<size_t>(rng.Uniform(names.size()));
    std::string name = names[i];
    names.erase(names.begin() + static_cast<long>(i));
    return name;
  };
  std::string spec = pick() + "(";
  size_t children = 2 + static_cast<size_t>(rng.Uniform(5));
  for (size_t c = 0; c < children; ++c) {
    if (c > 0) spec += ",";
    spec += pick();
    if (rng.Uniform(3) == 0) {
      std::string first = pick();
      spec += "(" + first + "," + pick() + ")";
    }
  }
  return spec + ")";
}

}  // namespace

std::vector<std::string> DeltaStream(uint64_t seed, size_t initial_trees,
                                     size_t count) {
  xsm::Rng rng(seed ^ 0xDE17AD17DE17AD17ull);
  std::vector<std::string> lines;
  lines.reserve(count);
  size_t trees = initial_trees;
  for (size_t i = 0; i < count; ++i) {
    // 0 = ingest, 1 = replace, 2 = remove; the bounds keep the count level.
    uint64_t kind = rng.Uniform(3);
    if (kind == 0 && trees >= initial_trees + 8) kind = 2;
    if (kind == 2 && (trees + 8 <= initial_trees || trees <= 1)) kind = 0;
    if (kind == 0) {
      lines.push_back("!ingest " + RandomTreeSpec(rng));
      ++trees;
    } else if (kind == 1) {
      size_t target = static_cast<size_t>(rng.Uniform(trees));
      lines.push_back("!replace " + std::to_string(target) + " " +
                      RandomTreeSpec(rng));
    } else {
      size_t target = static_cast<size_t>(rng.Uniform(trees));
      lines.push_back("!remove " + std::to_string(target));
      --trees;
    }
  }
  return lines;
}

bool ParseResponse(std::string_view body, ParsedResponse* out,
                   std::string* error) {
  *out = ParsedResponse();
  size_t start = 0;
  while (start < body.size()) {
    size_t end = body.find('\n', start);
    if (end == std::string_view::npos) end = body.size();
    std::string_view line = body.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    ++out->lines;
    std::string type;
    if (!StringField(line, "type", &type)) {
      *error = "event without a type: " + std::string(line.substr(0, 120));
      return false;
    }
    if (type == "mapping") {
      ++out->mapping_events;
    } else if (type == "done") {
      double kept = 0;
      if (!NumberField(line, "kept", &kept)) {
        *error = "malformed done event";
        return false;
      }
      out->kept = static_cast<size_t>(kept);
    } else if (type == "trace") {
      ParseSpans(line, &out->spans);
    } else if (type == "generation") {
      double value = 0;
      if (!NumberField(line, "generation", &value) ||
          !StringField(line, "fingerprint", &out->fingerprint)) {
        *error = "malformed generation event";
        return false;
      }
      out->has_generation = true;
      out->generation = static_cast<uint64_t>(value);
      if (NumberField(line, "names_copied", &value)) {
        out->names_copied = static_cast<size_t>(value);
      }
      if (NumberField(line, "trees_rebuilt", &value)) {
        out->trees_rebuilt = static_cast<size_t>(value);
      }
    }
  }
  return true;
}

std::vector<MappingKey> ReferenceKeys(const xsm::core::MatchResult& result,
                                      const xsm::schema::SchemaTree& personal,
                                      const xsm::schema::SchemaForest& forest) {
  std::vector<MappingKey> keys;
  keys.reserve(result.mappings.size());
  for (const auto& mapping : result.mappings) {
    // Round Δ through the events' own %.6f rendering so both sides compare
    // the same value.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", mapping.delta);
    keys.push_back(MappingKey{
        std::strtod(buf, nullptr),
        xsm::generate::MappingToString(mapping, personal, forest)});
  }
  return keys;
}

std::string CheckTopN(const std::vector<MappingKey>& reference,
                      std::string_view body) {
  for (size_t i = 1; i < reference.size(); ++i) {
    if (reference[i].delta > reference[i - 1].delta) {
      return "reference out of rank order";
    }
  }
  // Mappings below the N-th's Δ can neither be a reference mapping nor
  // beat one, so they are skipped without decoding their text.
  const double floor = reference.empty() ? 0 : reference.back().delta;
  std::vector<bool> seen(reference.size(), false);
  bool done = false;
  std::string status;
  double kept = 0;
  std::string text;
  size_t start = 0;
  while (start < body.size()) {
    size_t end = body.find('\n', start);
    if (end == std::string_view::npos) end = body.size();
    std::string_view line = body.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    std::string type;
    if (!StringField(line, "type", &type)) return "event without a type";
    if (type == "done") {
      if (!StringField(line, "status", &status) ||
          !NumberField(line, "kept", &kept)) {
        return "malformed done event";
      }
      done = true;
      continue;
    }
    if (type != "mapping") continue;
    if (reference.empty()) return "mappings emitted, reference has none";
    double delta = 0;
    size_t map_pos = FieldStart(line, "map");
    if (map_pos == std::string_view::npos ||
        !NumberField(line.substr(0, map_pos), "delta", &delta)) {
      return "malformed mapping event";
    }
    if (delta < floor) continue;
    if (map_pos >= line.size() || line[map_pos] != '"' ||
        !DecodeString(line, map_pos + 1, &text)) {
      return "malformed mapping event";
    }
    bool known = false;
    for (size_t i = 0; i < reference.size(); ++i) {
      if (reference[i].delta == delta && reference[i].text == text) {
        seen[i] = true;
        known = true;
      }
    }
    if (!known && delta > floor) return "unexpected better mapping: " + text;
  }
  if (!done) return "no done event";
  if (status != "completed") return "status " + status;
  if (static_cast<size_t>(kept) != reference.size()) {
    return "kept " + std::to_string(static_cast<size_t>(kept)) +
           ", reference has " + std::to_string(reference.size());
  }
  for (size_t i = 0; i < reference.size(); ++i) {
    if (!seen[i]) return "missing rank " + std::to_string(i + 1) + ": " +
                         reference[i].text;
  }
  return "";
}

}  // namespace perfbench
