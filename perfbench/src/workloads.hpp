#pragma once
// The benchmark's workloads and the traced layer-by-layer replay.
//
// Each workload runs one pass through the library's public API: it sets
// up (several times when `setup_reps` > 1, reporting the median), measures
// for RunConfig::seconds, checks every output, and fills in the end-to-end
// results plus the per-layer counters its layers export. Spans are
// recorded only when the recorder is enabled (traced runs).

#include <vector>

#include "common.hpp"

namespace perfbench {

/// Open-loop serving of the two DLRM MLPs through one threaded
/// ServingEngine, in a nominal and an overload phase.
EndToEnd run_dlrm_serve(const RunConfig& cfg, int setup_reps,
                        SpanRecorder& rec, Outcome& out, LayerCounters& lc);
std::vector<ReplayModel> dlrm_serve_models();

/// Closed loop of BatchExecutor::run over a compute-bound 3-layer MLP.
EndToEnd run_square_batch(const RunConfig& cfg, int setup_reps,
                          SpanRecorder& rec, Outcome& out, LayerCounters& lc);
std::vector<ReplayModel> square_batch_models();

/// Batched model-level fault-injection campaign over ResNet-50.
EndToEnd run_resnet50_campaign(const RunConfig& cfg, int setup_reps,
                               SpanRecorder& rec, Outcome& out,
                               LayerCounters& lc);
std::vector<ReplayModel> resnet50_campaign_models();

/// Replays every model layer by layer from outside the library, timing
/// GEMM, check and activation calls, and measures both ABFT schemes on
/// every layer. Adds the per-layer table to `out.detail` and the
/// aggregated per-layer metrics to `lc`.
void replay_models(const std::vector<ReplayModel>& models, std::uint64_t seed,
                   SpanRecorder& rec, Outcome& out, LayerCounters& lc);

}  // namespace perfbench
