#include "integrate/integration_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "integrate/integration_engine.h"
#include "live/repository_delta.h"
#include "schema/schema_tree.h"
#include "service/matcher.h"
#include "util/random.h"

namespace xsm::integrate {
namespace {

// A compact planted corpus (see integration_engine_test.cc for the alphabet
// construction): group tokens are exact repeats, noise can never cross the
// threshold, so the integration output is small and fully predictable.
std::string NoiseName(size_t* counter) {
  size_t k = (*counter)++;
  std::string name;
  for (int block = 0; block < 3; ++block) {
    name.append(4, static_cast<char>('m' + k % 14));
    k /= 14;
  }
  return name;
}

/// `num_groups` <= 12; planted members never land in tree 0, so removing
/// tree 0 renumbers every TreeId without touching any cluster's content.
schema::SchemaForest BuildForest(uint64_t seed, size_t num_trees,
                                 size_t num_groups) {
  Rng rng(seed);
  size_t noise_counter = 0;
  schema::SchemaForest forest;
  for (size_t t = 0; t < num_trees; ++t) {
    schema::SchemaTree tree;
    schema::NodeProperties root;
    root.name = NoiseName(&noise_counter);
    tree.AddNode(schema::kInvalidNode, std::move(root));
    std::vector<std::string> names;
    if (t > 0) {
      for (size_t g = 0; g < num_groups; ++g) {
        names.push_back(std::string(8, static_cast<char>('a' + g)));
      }
    }
    const size_t noise = 20 + rng.Uniform(16);
    for (size_t j = 0; j < noise; ++j) {
      names.push_back(NoiseName(&noise_counter));
    }
    rng.Shuffle(&names);
    for (std::string& name : names) {
      schema::NodeProperties props;
      props.name = std::move(name);
      tree.AddNode(static_cast<schema::NodeId>(rng.Uniform(tree.size())),
                   std::move(props));
    }
    forest.AddTree(std::move(tree));
  }
  return forest;
}

std::unique_ptr<service::Matcher> ServiceOver(
    schema::SchemaForest forest) {
  service::MatchServiceOptions options;
  options.cluster_cache_capacity = 4096;
  auto snapshot = service::RepositorySnapshot::Create(std::move(forest));
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  return std::make_unique<service::Matcher>(std::move(*snapshot),
                                            options);
}

IntegrationResult IntegrateForest(schema::SchemaForest forest) {
  auto service = ServiceOver(std::move(forest));
  IntegrationEngine engine(service.get());
  auto result = engine.Integrate(IntegrationOptions());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

class IntegrationIoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    result_ = new IntegrationResult(
        IntegrateForest(BuildForest(3, /*num_trees=*/5, /*num_groups=*/4)));
    ASSERT_FALSE(result_->clusters.empty());
    bytes_ = new std::string(SerializeIntegration(*result_));
  }

  static void TearDownTestSuite() {
    delete bytes_;
    bytes_ = nullptr;
    delete result_;
    result_ = nullptr;
  }

  static IntegrationResult* result_;
  static std::string* bytes_;
};

IntegrationResult* IntegrationIoTest::result_ = nullptr;
std::string* IntegrationIoTest::bytes_ = nullptr;

TEST_F(IntegrationIoTest, RoundTripIsDeepEqual) {
  auto decoded = DeserializeIntegration(*bytes_);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  EXPECT_EQ(decoded->generation, result_->generation);
  EXPECT_EQ(decoded->fingerprint, result_->fingerprint);
  EXPECT_EQ(decoded->seed, result_->seed);
  EXPECT_EQ(decoded->execution, result_->execution);
  EXPECT_EQ(decoded->tree_fingerprints, result_->tree_fingerprints);
  EXPECT_EQ(decoded->stats.trees, result_->stats.trees);
  EXPECT_EQ(decoded->stats.slices, result_->stats.slices);
  EXPECT_EQ(decoded->stats.pairs_total, result_->stats.pairs_total);
  EXPECT_EQ(decoded->stats.pairs_linked, result_->stats.pairs_linked);
  EXPECT_EQ(decoded->stats.correspondences,
            result_->stats.correspondences);
  EXPECT_EQ(decoded->stats.nodes_linked, result_->stats.nodes_linked);
  // Timings are deliberately NOT serialized.
  EXPECT_EQ(decoded->stats.time_matching_seconds, 0.0);
  EXPECT_EQ(decoded->stats.time_fold_seconds, 0.0);

  ASSERT_EQ(decoded->clusters.size(), result_->clusters.size());
  for (size_t i = 0; i < decoded->clusters.size(); ++i) {
    const CorrespondenceCluster& got = decoded->clusters[i];
    const CorrespondenceCluster& want = result_->clusters[i];
    EXPECT_EQ(got.name, want.name) << i;
    EXPECT_EQ(got.representative, want.representative) << i;
    EXPECT_EQ(got.members, want.members) << i;
    EXPECT_EQ(got.links, want.links) << i;
    EXPECT_EQ(got.schemas, want.schemas) << i;
    EXPECT_EQ(got.confidence, want.confidence) << i;
    EXPECT_EQ(got.severity, want.severity) << i;
  }
  ASSERT_EQ(decoded->mediated.elements.size(),
            result_->mediated.elements.size());
  for (size_t i = 0; i < decoded->mediated.elements.size(); ++i) {
    EXPECT_EQ(decoded->mediated.elements[i].name,
              result_->mediated.elements[i].name);
    EXPECT_EQ(decoded->mediated.elements[i].representative,
              result_->mediated.elements[i].representative);
    EXPECT_EQ(decoded->mediated.elements[i].cluster,
              result_->mediated.elements[i].cluster);
  }

  // Idempotence closes the loop: re-serializing reproduces the bytes.
  EXPECT_EQ(SerializeIntegration(*decoded), *bytes_);
}

TEST_F(IntegrationIoTest, EveryTruncationFailsTyped) {
  for (size_t len = 0; len < bytes_->size(); ++len) {
    auto decoded = DeserializeIntegration(
        std::string_view(bytes_->data(), len));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
    const StatusCode code = decoded.status().code();
    EXPECT_TRUE(code == StatusCode::kParseError ||
                code == StatusCode::kCorruption)
        << "prefix " << len << ": " << decoded.status().ToString();
  }
}

TEST_F(IntegrationIoTest, EveryFlippedByteFailsTyped) {
  for (size_t pos = 0; pos < bytes_->size(); ++pos) {
    std::string mutated = *bytes_;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0xFF);
    auto decoded = DeserializeIntegration(mutated);
    ASSERT_FALSE(decoded.ok()) << "flip at " << pos << " decoded";
    const StatusCode code = decoded.status().code();
    // Magic damage parses as "not this format"; header version damage is a
    // future format; anything else trips the CRC.
    EXPECT_TRUE(code == StatusCode::kParseError ||
                code == StatusCode::kUnimplemented ||
                code == StatusCode::kCorruption)
        << "flip " << pos << ": " << decoded.status().ToString();
  }
}

TEST_F(IntegrationIoTest, NewerFormatVersionFailsUnimplemented) {
  // Layout: magic[8], u32 version, u32 crc, payload. The version is outside
  // the CRC, so bumping it alone crafts a well-formed future file.
  std::string future = *bytes_;
  future[8] = static_cast<char>(kIntegrationFormatVersion + 1);
  auto decoded = DeserializeIntegration(future);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kUnimplemented);
}

TEST_F(IntegrationIoTest, WrongMagicFailsParseError) {
  std::string wrong = *bytes_;
  wrong[0] = 'Y';
  EXPECT_EQ(DeserializeIntegration(wrong).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(DeserializeIntegration("").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(DeserializeIntegration("XSM").status().code(),
            StatusCode::kParseError);
}

TEST_F(IntegrationIoTest, TrailingBytesFailCorruption) {
  std::string padded = *bytes_ + std::string(4, '\0');
  auto decoded = DeserializeIntegration(padded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST_F(IntegrationIoTest, SaveThenLoadRoundTripsThroughAFile) {
  const std::string path =
      ::testing::TempDir() + "/integration_io_test.intg";
  auto saved = SaveIntegrationToFile(*result_, path);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(*saved, bytes_->size());
  auto loaded = LoadIntegrationFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SerializeIntegration(*loaded), *bytes_);
  std::remove(path.c_str());

  EXPECT_EQ(LoadIntegrationFromFile(path + ".missing").status().code(),
            StatusCode::kIOError);
}

TEST_F(IntegrationIoTest, SelfDiffKeepsEverything) {
  IntegrationDiff diff = DiffIntegrations(*result_, *result_);
  EXPECT_EQ(diff.before_clusters, result_->clusters.size());
  EXPECT_EQ(diff.after_clusters, result_->clusters.size());
  EXPECT_EQ(diff.kept, result_->clusters.size());
  EXPECT_EQ(diff.added, 0u);
  EXPECT_EQ(diff.removed, 0u);
  EXPECT_TRUE(diff.added_names.empty());
  EXPECT_TRUE(diff.removed_names.empty());
}

// The cross-generation contract: cluster identity is keyed on tree content
// fingerprints, so removing the (planted-free) tree 0 — which renumbers
// every TreeId — leaves every planted cluster "kept", while ingesting a
// tree pair carrying a fresh token shows up as exactly one added cluster.
TEST_F(IntegrationIoTest, DiffSurvivesTreeIdRenumberingAcrossGenerations) {
  auto service = ServiceOver(BuildForest(11, /*num_trees=*/5,
                                         /*num_groups=*/4));
  IntegrationEngine engine(service.get());
  auto before = engine.Integrate(IntegrationOptions());
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->clusters.size(), 4u);

  // Generation 1: drop the noise-only tree 0 (TreeIds compact) and add two
  // trees sharing one new token (a fifth cluster appears).
  live::DeltaBuilder builder;
  builder.RemoveTree(0);
  const std::string fresh_token(8, 'e' + 4);  // 'i': unused by groups 0..3
  for (int i = 0; i < 2; ++i) {
    schema::SchemaTree tree;
    schema::NodeProperties root;
    root.name = std::string(12, static_cast<char>('y' - i));
    schema::NodeId root_id =
        tree.AddNode(schema::kInvalidNode, std::move(root));
    schema::NodeProperties child;
    child.name = fresh_token;
    tree.AddNode(root_id, std::move(child));
    builder.AddTree(std::move(tree), "feed:diff");
  }
  ASSERT_TRUE(service->ApplyDelta(*builder.Build()).ok());

  auto after = engine.Integrate(IntegrationOptions());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->generation, 1u);

  IntegrationDiff diff = DiffIntegrations(*before, *after);
  EXPECT_EQ(diff.before_clusters, 4u);
  EXPECT_EQ(diff.after_clusters, 5u);
  EXPECT_EQ(diff.kept, 4u);
  EXPECT_EQ(diff.added, 1u);
  EXPECT_EQ(diff.removed, 0u);
  ASSERT_EQ(diff.added_names.size(), 1u);
  EXPECT_EQ(diff.added_names[0], fresh_token);
}

}  // namespace
}  // namespace xsm::integrate
