// End-to-end integration tests: a small CNN protected layer-by-layer with
// functional GEMMs, fault injection in arbitrary layers, and detection by
// the scheme the intensity-guided plan assigned to that layer — the whole
// §2.5 flow plus the paper's contribution wired together.

#include <gtest/gtest.h>

#include <optional>

#include "common/rng.hpp"
#include "core/global_abft.hpp"
#include "core/intensity_guided.hpp"
#include "core/thread_level_abft.hpp"
#include "fault/fault.hpp"
#include "gemm/functional.hpp"
#include "nn/zoo/zoo.hpp"
#include "runtime/pipeline.hpp"

namespace aift {
namespace {

// A deliberately small CNN so functional execution stays fast: GEMM dims
// in the tens, three conv layers plus a classifier.
Model tiny_cnn() {
  ModelBuilder b("TinyCNN", ImageInput{2, 3, 16, 16});
  b.conv("conv1", 16, 3, 1, 1);
  b.conv("conv2", 24, 3, 2, 1);
  b.conv("conv3", 32, 3, 1, 1);
  b.adaptive_avgpool(1, 1).flatten();
  b.linear("fc", 10);
  return std::move(b).build();
}

struct ProtectedLayer {
  LayerDesc desc;
  Scheme scheme;
  TileConfig tile;
  Matrix<half_t> weights;           // K x N
  std::optional<GlobalAbft> global; // offline weight checksums
};

// Builds the protected deployment: per-layer scheme from the
// intensity-guided plan, weight checksums precomputed offline.
std::vector<ProtectedLayer> deploy(const Model& m, const InferencePlan& plan,
                                   Rng& rng) {
  std::vector<ProtectedLayer> layers;
  for (std::size_t i = 0; i < m.num_layers(); ++i) {
    const auto& entry = plan.entries[i];
    ProtectedLayer pl{entry.layer,
                      entry.profile.scheme,
                      entry.profile.redundant.tile,
                      Matrix<half_t>(entry.layer.gemm.k, entry.layer.gemm.n),
                      std::nullopt};
    rng.fill_uniform(pl.weights, -0.5, 0.5);
    if (pl.scheme == Scheme::global_abft) pl.global.emplace(pl.weights);
    layers.push_back(std::move(pl));
  }
  return layers;
}

// Runs one "inference request"; returns the index of the first layer whose
// check fired, or nullopt.
std::optional<std::size_t> run_request(
    const std::vector<ProtectedLayer>& layers, Rng& rng,
    std::optional<std::size_t> faulty_layer = std::nullopt,
    FaultSpec fault = {}) {
  std::optional<std::size_t> detected_at;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const auto& pl = layers[i];
    // Surrogate activations: each layer's A is freshly sampled (the
    // im2col of the previous output; values are what matter for ABFT).
    Matrix<half_t> a(pl.desc.gemm.m, pl.desc.gemm.k);
    rng.fill_uniform(a, -0.5, 0.5);
    Matrix<half_t> c(pl.desc.gemm.m, pl.desc.gemm.n);
    FunctionalOptions opts;
    if (faulty_layer && *faulty_layer == i) opts.faults = {fault};
    functional_gemm(a, pl.weights, c, pl.tile, opts);

    bool flagged = false;
    if (pl.scheme == Scheme::global_abft) {
      flagged = pl.global->check(a, c).fault_detected;
    } else {
      ThreadLevelAbft abft(pl.tile, ThreadAbftSide::one_sided);
      flagged = abft.check(a, pl.weights, c).fault_detected;
    }
    if (flagged && !detected_at) detected_at = i;
  }
  return detected_at;
}

class IntegrationTest : public ::testing::Test {
 protected:
  GemmCostModel model_{devices::t4()};
  ProtectedPipeline pipe_{model_};
  Model cnn_ = tiny_cnn();
  InferencePlan plan_ =
      pipe_.plan(cnn_, ProtectionPolicy::intensity_guided);
};

TEST_F(IntegrationTest, PlanCoversAllLayers) {
  ASSERT_EQ(plan_.entries.size(), cnn_.num_layers());
  for (const auto& e : plan_.entries) {
    EXPECT_TRUE(e.profile.scheme == Scheme::global_abft ||
                e.profile.scheme == Scheme::thread_one_sided);
  }
}

TEST_F(IntegrationTest, CleanRequestsNeverFlag) {
  Rng rng(100);
  auto layers = deploy(cnn_, plan_, rng);
  for (int request = 0; request < 10; ++request) {
    EXPECT_EQ(run_request(layers, rng), std::nullopt) << request;
  }
}

TEST_F(IntegrationTest, FaultDetectedAtInjectedLayer) {
  Rng rng(200);
  auto layers = deploy(cnn_, plan_, rng);
  for (std::size_t li = 0; li < layers.size(); ++li) {
    FaultSpec fault;
    fault.row = layers[li].desc.gemm.m / 2;
    fault.col = layers[li].desc.gemm.n / 2;
    fault.k8_step = -1;
    fault.xor_bits = 0x20000000u;
    const auto detected = run_request(layers, rng, li, fault);
    ASSERT_TRUE(detected.has_value()) << "layer " << li;
    EXPECT_EQ(*detected, li);
  }
}

TEST_F(IntegrationTest, MidKFaultsDetectedEverywhere) {
  Rng rng(300);
  auto layers = deploy(cnn_, plan_, rng);
  for (std::size_t li = 0; li < layers.size(); ++li) {
    FaultSpec fault;
    fault.row = 0;
    fault.col = 0;
    fault.k8_step = 0;
    fault.xor_bits = 0x40000000u;
    EXPECT_EQ(run_request(layers, rng, li, fault), std::make_optional(li));
  }
}

TEST_F(IntegrationTest, RandomizedFaultCampaignOverPipeline) {
  Rng rng(400);
  auto layers = deploy(cnn_, plan_, rng);
  Rng fault_rng(401);
  int detected = 0;
  const int trials = 12;
  for (int t = 0; t < trials; ++t) {
    const auto li = static_cast<std::size_t>(
        fault_rng.uniform_int(0, static_cast<std::int64_t>(layers.size()) - 1));
    FaultModelOptions fopts;
    fopts.min_bit = 27;  // large corruptions: must always be caught
    fopts.max_bit = 29;
    const auto fault =
        random_fault(fault_rng, layers[li].desc.gemm, layers[li].tile, fopts);
    if (run_request(layers, rng, li, fault) == std::make_optional(li)) {
      ++detected;
    }
  }
  EXPECT_EQ(detected, trials);
}

TEST_F(IntegrationTest, GuidedPlanAgreesWithStandaloneSelector) {
  IntensityGuidedSelector selector(model_);
  for (const auto& e : plan_.entries) {
    const auto choice = selector.select(e.layer.gemm, DType::f16);
    // The pipeline passes per-layer fusion context, which can only affect
    // the global-ABFT cost; if the standalone selector already prefers
    // thread-level, the pipeline must too.
    if (choice.chosen.scheme == Scheme::thread_one_sided) {
      EXPECT_EQ(e.profile.scheme, Scheme::thread_one_sided) << e.layer.name;
    }
  }
}

TEST_F(IntegrationTest, DlrmServingEndToEnd) {
  // DLRM MLP-Bottom at batch 1 functional run: tiny GEMMs, fully
  // bandwidth-bound -> guided picks thread-level everywhere; faults in any
  // layer are caught.
  const auto mlp = zoo::dlrm_mlp_bottom(1);
  const auto plan = pipe_.plan(mlp, ProtectionPolicy::intensity_guided);
  for (const auto& e : plan.entries) {
    EXPECT_EQ(e.profile.scheme, Scheme::thread_one_sided) << e.layer.name;
  }
  Rng rng(500);
  auto layers = deploy(mlp, plan, rng);
  EXPECT_EQ(run_request(layers, rng), std::nullopt);
  FaultSpec fault;
  fault.row = 0;
  fault.col = 3;
  fault.xor_bits = 0x20000000u;
  EXPECT_EQ(run_request(layers, rng, 1, fault), std::make_optional<std::size_t>(1));
}

}  // namespace
}  // namespace aift
