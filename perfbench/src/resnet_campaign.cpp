// resnet50-campaign: run_model_campaign_batched over ResNet-50 at the
// ImageNet input size with the intensity-guided plan, which puts
// thread-level ABFT on all 54 layers. Trials flip one bit among
// accumulator bits 20-29, so almost every trial detects a fault and
// re-executes: the retry path, the large-M convolution GEMMs and
// activate_and_repack do the work. Session construction (weight sampling,
// packing and the thread-level checkers' prepare over 54 layers)
// dominates setup_s.

#include <cstdio>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "fault/model_campaign.hpp"
#include "nn/zoo/zoo.hpp"
#include "runtime/pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Trials per campaign call, and rows per batched group within it.
constexpr int kTrialsPerCall = 8;
/// Seed of the fault sites of every call. A trial's cost depends on its
/// faulted layer (it runs from there to the output), and with about 30
/// trials per run the sampled layer mix alone moved trials/s by +-10%. So
/// every call replays the same sites on a fresh seeded input: calls do
/// equal work, trials/s measures speed rather than the mix, and the median
/// over calls does not depend on how many calls a run completes. The
/// inputs, and with them every corrupted value, detection and
/// re-execution, come from --seed.
constexpr std::uint64_t kSiteSeed = 42;
constexpr std::int64_t kBatchRows = 16;

aift::Model resnet50() { return aift::zoo::resnet50(aift::zoo::imagenet_input(1)); }

std::unique_ptr<aift::InferenceSession> build_session(SpanRecorder& rec) {
  const ScopedSpan setup(rec, "setup");
  const aift::GemmCostModel cost(aift::devices::t4());
  const aift::ProtectedPipeline pipe(cost);
  aift::InferencePlan plan;
  {
    const ScopedSpan s(rec, "plan.compile", setup.id());
    plan = pipe.plan(resnet50(), aift::ProtectionPolicy::intensity_guided);
  }
  const ScopedSpan s(rec, "session.build", setup.id());
  return std::make_unique<aift::InferenceSession>(std::move(plan));
}

}  // namespace

std::vector<ReplayModel> resnet50_campaign_models() {
  // Trials of one call spread over 54 layers, so a batched group rarely
  // holds more than one row: replay at one request per GEMM.
  return {{"ResNet-50", resnet50(), 1, 3}};
}

EndToEnd run_resnet50_campaign(const RunConfig& cfg, int setup_reps,
                               SpanRecorder& rec, Outcome& out,
                               LayerCounters& lc) {
  EndToEnd e2e;
  std::unique_ptr<aift::InferenceSession> session;
  std::vector<double> setups;
  for (int r = 0; r < setup_reps; ++r) {
    session.reset();
    const auto t0 = Clock::now();
    session = build_session(rec);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  e2e.setup_s = median(setups);

  aift::ModelCampaignStats totals;
  std::vector<double> latency_ms;
  std::vector<double> call_rates;
  std::int64_t good_trials = 0;
  const auto start = Clock::now();
  auto now = start;
  for (std::int64_t call = 0; seconds_between(start, now) < cfg.seconds;
       ++call) {
    aift::ModelCampaignConfig cc;
    cc.trials = kTrialsPerCall;
    cc.seed = kSiteSeed;
    cc.input_seed = aift::derive_seed(cfg.seed, static_cast<std::uint64_t>(call));
    cc.fault_opts.min_bit = 20;
    cc.fault_opts.max_bit = 29;
    const ScopedSpan span(rec, "request", -1, call);
    const auto t0 = Clock::now();
    const aift::ModelCampaignStats s =
        aift::run_model_campaign_batched(*session, cc, kBatchRows);
    now = Clock::now();
    latency_ms.push_back(seconds_between(t0, now) * 1e3);

    // A call is correct when every trial is classified exactly once and
    // no detected fault survived or was accepted corrupted.
    const bool ok = s.trials == kTrialsPerCall &&
                    s.detected + s.masked + s.sdc == s.trials &&
                    s.recovered + s.unrecovered + s.detected_corrupted ==
                        s.detected &&
                    s.unrecovered == 0 && s.detected_corrupted == 0;
    call_rates.push_back(
        ok ? static_cast<double>(s.trials) / (latency_ms.back() / 1e3) : 0.0);
    if (ok) {
      good_trials += s.trials;
    } else {
      out.fail("campaign call " + std::to_string(call) +
               ": trials misclassified, unrecovered or detected_corrupted");
    }
    if (call == 0) {
      out.repeat_counts["campaign.call0.detected"] = s.detected;
      out.repeat_counts["campaign.call0.recovered"] = s.recovered;
      out.repeat_counts["campaign.call0.masked"] = s.masked;
      out.repeat_counts["campaign.call0.sdc"] = s.sdc;
      out.repeat_counts["campaign.call0.unrecovered"] = s.unrecovered;
      out.repeat_counts["campaign.call0.detected_corrupted"] =
          s.detected_corrupted;
    }
    totals.merge(s);
  }
  const double elapsed = seconds_between(start, now);
  out.attempted += totals.trials;
  out.failed += totals.trials - good_trials;

  // Median over calls of equal work: it damps the host's speed wandering
  // within a run.
  e2e.throughput_per_s = median(call_rates);
  e2e.lat_p50_ms = percentile(latency_ms, 50);
  e2e.lat_p90_ms = percentile(latency_ms, 90);
  std::printf("campaign: %lld trials in %zu calls over %.3f s (%.4f trials/s; "
              "median call %.4f trials/s, latency %.1f ms); detected %lld "
              "recovered %lld masked %lld sdc %lld\n",
              static_cast<long long>(totals.trials), latency_ms.size(), elapsed,
              static_cast<double>(good_trials) / elapsed, e2e.throughput_per_s,
              e2e.lat_p50_ms, static_cast<long long>(totals.detected),
              static_cast<long long>(totals.recovered),
              static_cast<long long>(totals.masked),
              static_cast<long long>(totals.sdc));

  add_latency_counters(lc, latency_ms);
  const auto count = [](std::int64_t v) {
    return Counter{static_cast<double>(v), "count"};
  };
  lc["campaign.detected"] = count(totals.detected);
  lc["campaign.recovered"] = count(totals.recovered);
  lc["campaign.masked"] = count(totals.masked);
  lc["campaign.sdc"] = count(totals.sdc);
  lc["campaign.unrecovered"] = count(totals.unrecovered);
  lc["campaign.detected_corrupted"] = count(totals.detected_corrupted);
  lc["campaign.reexec_frac"] = {
      totals.trials > 0 ? static_cast<double>(totals.detected) /
                              static_cast<double>(totals.trials)
                        : 0.0,
      "frac"};
  return e2e;
}

}  // namespace perfbench
