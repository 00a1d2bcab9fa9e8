// Unit tests for the benchmark's own logic: seeded request streams, the
// nearest-rank percentile rule, the top-N reference check and self-time
// subtraction.
#include "bench_lib.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "repo/synthetic.h"

namespace perfbench {
namespace {

std::vector<std::string> ColdLines(uint64_t seed, size_t n) {
  ColdStream stream(seed);
  std::vector<std::string> lines;
  for (size_t i = 0; i < n; ++i) lines.push_back(stream.Next().Line());
  return lines;
}

std::vector<std::string> WarmLines(uint64_t seed, size_t lane, size_t n) {
  RotationStream stream(&WarmSchemas(), kWarmDelta, seed, lane);
  std::vector<std::string> lines;
  for (size_t i = 0; i < n; ++i) lines.push_back(stream.Next().Line());
  return lines;
}

TEST(RequestStreamTest, SameSeedSameStreamOtherSeedOtherStream) {
  EXPECT_EQ(ColdLines(11, 200), ColdLines(11, 200));
  EXPECT_NE(ColdLines(11, 200), ColdLines(12, 200));
  EXPECT_EQ(DeltaStream(11, 500, 300), DeltaStream(11, 500, 300));
  EXPECT_NE(DeltaStream(11, 500, 300), DeltaStream(12, 500, 300));
  EXPECT_EQ(WarmLines(11, 0, 16), WarmLines(11, 0, 16));
  std::vector<std::vector<std::string>> by_seed;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    by_seed.push_back(WarmLines(seed, 0, 16));
  }
  bool any_differs = false;
  for (const auto& lines : by_seed) any_differs |= lines != by_seed[0];
  EXPECT_TRUE(any_differs);
}

std::string Spec(const std::string& line) {
  return line.substr(0, line.find(' '));
}

TEST(RequestStreamTest, ColdPoolIsDistinctAndParses) {
  std::vector<std::string> pool = ColdSchemas();
  ASSERT_EQ(pool.size(), kColdPoolSize);
  for (const std::string& spec : pool) {
    EXPECT_TRUE(xsm::schema::ParseTreeSpec(spec).ok()) << spec;
  }
  std::sort(pool.begin(), pool.end());
  EXPECT_EQ(std::unique(pool.begin(), pool.end()), pool.end());
}

TEST(RequestStreamTest, ColdStreamOrdersTheSamePoolAndNeverRecursEarly) {
  std::vector<std::string> sorted_pool = ColdSchemas();
  std::sort(sorted_pool.begin(), sorted_pool.end());
  for (uint64_t seed : {1, 2, 7919}) {
    std::vector<std::string> lines = ColdLines(seed, 3 * kColdPoolSize);
    // Each cycle is the whole pool, once.
    std::vector<std::string> cycle;
    for (size_t i = 0; i < kColdPoolSize; ++i) cycle.push_back(Spec(lines[i]));
    std::sort(cycle.begin(), cycle.end());
    EXPECT_EQ(cycle, sorted_pool) << "seed " << seed;
    // A schema comes back only after every other one: a miss under LRU.
    for (size_t i = kColdPoolSize; i < lines.size(); ++i) {
      EXPECT_EQ(Spec(lines[i]), Spec(lines[i - kColdPoolSize]));
    }
  }
}

TEST(RequestStreamTest, DeltaIdsStayValidAndCountLevel) {
  const size_t initial = 40;
  size_t trees = initial;
  for (const std::string& line : DeltaStream(3, initial, 2000)) {
    if (line.rfind("!ingest ", 0) == 0) {
      ++trees;
      continue;
    }
    size_t id = std::stoul(line.substr(line.find(' ') + 1));
    ASSERT_LT(id, trees) << line;
    if (line.rfind("!remove ", 0) == 0) --trees;
    ASSERT_LE(trees, initial + 8);
    ASSERT_GE(trees + 8, initial);
  }
}

TEST(PercentileTest, RefusesTailsWithoutTenSamplesBeyond) {
  std::vector<double> samples;
  for (int i = 1; i <= 99; ++i) samples.push_back(i);
  EXPECT_FALSE(Percentile(samples, 0.9).has_value());
  samples.push_back(100);
  ASSERT_TRUE(Percentile(samples, 0.9).has_value());
  EXPECT_EQ(*Percentile(samples, 0.9), 90);
  EXPECT_EQ(*Percentile(samples, 0.5), 50);
  EXPECT_FALSE(Percentile(std::vector<double>(19, 1.0), 0.5).has_value());
  EXPECT_TRUE(Percentile(std::vector<double>(20, 1.0), 0.5).has_value());
}

TEST(SelfTimeTest, NeverNegative) {
  EXPECT_DOUBLE_EQ(SelfTime(10, 4), 6);
  EXPECT_DOUBLE_EQ(SelfTime(4, 10), 0);
  EXPECT_DOUBLE_EQ(SelfTime(0, 0), 0);
  for (double outer : {0.0, 0.5, 3.0, 100.0}) {
    for (double inner : {0.0, 0.7, 3.0, 250.0}) {
      EXPECT_GE(SelfTime(outer, inner), 0);
    }
  }
}

// Renders a match response the way the serving layer streams it.
std::string Body(const std::vector<MappingKey>& mappings, size_t kept) {
  std::string body;
  size_t rank = 0;
  for (const MappingKey& key : mappings) {
    char nums[96];
    std::snprintf(nums, sizeof(nums),
                  "\",\"rank\":%zu,\"tree\":0,\"delta\":%.6f,"
                  "\"delta_sim\":0.5,\"delta_path\":0.5,\"ms\":1.0,\"map\":\"",
                  ++rank, key.delta);
    body += std::string("{\"type\":\"mapping\",\"id\":\"q") + nums +
            key.text + "\"}\n";
  }
  body += "{\"type\":\"done\",\"id\":\"q\",\"status\":\"completed\","
          "\"mappings\":" + std::to_string(mappings.size()) +
          ",\"kept\":" + std::to_string(kept) +
          ",\"partial_mappings\":0,\"clusters\":1,\"useful\":1,\"ms\":1.0}\n";
  return body;
}

class ReferenceCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    xsm::repo::SyntheticRepoOptions options;
    options.target_elements = 3000;
    options.seed = 4;
    auto forest = xsm::repo::GenerateSyntheticRepository(options);
    ASSERT_TRUE(forest.ok());
    forest_ = std::move(*forest);
    auto personal = xsm::schema::ParseTreeSpec("person(name,phone)");
    ASSERT_TRUE(personal.ok());
    xsm::core::Bellflower matcher(&forest_);
    xsm::core::MatchOptions match;
    match.delta = 0.75;
    auto all = matcher.Match(*personal, match);
    ASSERT_TRUE(all.ok());
    all_ = ReferenceKeys(*all, *personal, forest_);
    match.top_n = 3;
    auto top = matcher.Match(*personal, match);
    ASSERT_TRUE(top.ok());
    reference_ = ReferenceKeys(*top, *personal, forest_);
    ASSERT_EQ(reference_.size(), 3u);
    ASSERT_GT(all_.size(), 3u);
  }

  std::string Check(const std::string& body) {
    return CheckTopN(reference_, body);
  }

  xsm::schema::SchemaForest forest_;
  std::vector<MappingKey> all_;
  std::vector<MappingKey> reference_;
};

TEST_F(ReferenceCheckTest, AcceptsStreamsWhateverPrecedesTheTopN) {
  // Every mapping above δ, in the order found (the current stream).
  std::vector<MappingKey> shuffled(all_.rbegin(), all_.rend());
  EXPECT_EQ(Check(Body(shuffled, 3)), "");
  // Only the final top-N.
  EXPECT_EQ(Check(Body(reference_, 3)), "");
  // A running list (every later entry better) followed by the final list.
  std::vector<MappingKey> running(all_.rbegin(), all_.rbegin() + 4);
  running.insert(running.end(), reference_.begin(), reference_.end());
  EXPECT_EQ(Check(Body(running, 3)), "");
}

TEST_F(ReferenceCheckTest, RejectsPerturbedResponses) {
  std::vector<MappingKey> perturbed = all_;
  perturbed[0].delta += 0.001;  // a changed Δ
  EXPECT_NE(Check(Body(perturbed, 3)), "");

  perturbed = all_;
  perturbed[1].text += "x";  // a changed mapping
  EXPECT_NE(Check(Body(perturbed, 3)), "");

  perturbed = all_;
  perturbed.erase(perturbed.begin() + 2);  // a top mapping missing
  EXPECT_NE(Check(Body(perturbed, 3)), "");

  perturbed = all_;
  perturbed.push_back(MappingKey{0.999999, "tree=0 better"});  // extra best
  EXPECT_NE(Check(Body(perturbed, 3)), "");

  EXPECT_NE(Check(Body(all_, 4)), "");  // wrong kept count

  std::string body = Body(all_, 3);
  EXPECT_NE(Check(body.substr(0, body.rfind("{\"type\":\"done\""))), "");

  perturbed = all_;
  perturbed.back().delta = reference_.back().delta;  // a tie below rank N
  perturbed.back().text += "x";
  EXPECT_EQ(Check(Body(perturbed, 3)), "");
  perturbed.back().delta += 0.000001;  // now better than the N-th
  EXPECT_NE(Check(Body(perturbed, 3)), "");
}

}  // namespace
}  // namespace perfbench
