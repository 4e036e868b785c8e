// square-batch: a closed loop of one client calling BatchExecutor::run
// with deferred verification over a ModelBuilder MLP of three 1024-wide
// linear layers at batch 512. Each GEMM is 512x1024x1024 (intensity 256,
// above the T4 CMR of 203: the compute-bound regime of the paper's
// Fig. 12), so the intensity-guided plan protects the first layer with
// thread-level ABFT and the other two with global ABFT. One request in
// 50 carries a fault in a global-ABFT layer, so deferred detections
// rewind. GEMM and the deferred global-ABFT drain do most of the work and
// the thread-level check little: a check-path optimisation should show no
// change here.

#include <cstdio>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "runtime/executor.hpp"
#include "runtime/pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kRows = 512;
constexpr std::int64_t kWidth = 1024;
constexpr std::size_t kRequestsPerCall = 2;
constexpr std::int64_t kInputPool = 4;
constexpr std::int64_t kFaultPeriod = 50;
/// Executor counters of this many leading calls must repeat exactly.
constexpr std::size_t kRepeatCalls = 8;

aift::Model square_mlp() {
  aift::ModelBuilder b("square-mlp", kRows, kWidth);
  b.linear("fc1", kWidth).linear("fc2", kWidth).linear("fc3", kWidth);
  return std::move(b).build();
}

std::unique_ptr<aift::InferenceSession> build_session(SpanRecorder& rec) {
  const ScopedSpan setup(rec, "setup");
  const aift::GemmCostModel cost(aift::devices::t4());
  const aift::ProtectedPipeline pipe(cost);
  aift::InferencePlan plan;
  {
    const ScopedSpan s(rec, "plan.compile", setup.id());
    plan = pipe.plan(square_mlp(), aift::ProtectionPolicy::intensity_guided);
  }
  const ScopedSpan s(rec, "session.build", setup.id());
  return std::make_unique<aift::InferenceSession>(std::move(plan));
}

struct Request {
  std::int64_t input = 0;
  std::vector<aift::SessionFault> faults;
};

/// Request r of the run; a pure function of (seed, r).
Request make_request(const aift::InferenceSession& session, std::uint64_t seed,
                     std::int64_t fault_offset, std::int64_t r) {
  aift::Rng rng(aift::derive_seed(seed, 1000 + static_cast<std::uint64_t>(r)));
  Request req;
  req.input = rng.uniform_int(0, kInputPool - 1);
  if ((r + fault_offset) % kFaultPeriod != 0) return req;
  const auto& entries = session.plan().entries;
  std::vector<std::size_t> global_layers;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].scheme() == aift::Scheme::global_abft) {
      global_layers.push_back(i);
    }
  }
  if (global_layers.empty()) {
    for (std::size_t i = 0; i < entries.size(); ++i) global_layers.push_back(i);
  }
  const std::size_t layer = global_layers[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(global_layers.size()) - 1))];
  aift::FaultModelOptions fopts;
  fopts.min_bit = 20;
  fopts.max_bit = 29;
  const auto& entry = entries[layer];
  req.faults.push_back(aift::SessionFault{
      layer, aift::random_fault(rng, entry.layer.gemm, entry.exec_tile(), fopts),
      0});
  return req;
}

}  // namespace

std::vector<ReplayModel> square_batch_models() {
  return {{"square-mlp", square_mlp(),
           static_cast<std::int64_t>(kRequestsPerCall), 3}};
}

EndToEnd run_square_batch(const RunConfig& cfg, int setup_reps,
                          SpanRecorder& rec, Outcome& out, LayerCounters& lc) {
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
  for (const auto& e : session->plan().entries) {
    std::printf("plan: %s %s\n", e.layer.name.c_str(),
                aift::scheme_name(e.scheme()));
  }

  std::vector<aift::Matrix<aift::half_t>> inputs;
  std::vector<aift::SessionResult> clean_refs;
  for (std::int64_t i = 0; i < kInputPool; ++i) {
    inputs.push_back(session->make_input(
        aift::derive_seed(cfg.seed, 100 + static_cast<std::uint64_t>(i))));
    clean_refs.push_back(session->run(inputs.back()));
  }
  aift::Rng offset_rng(aift::derive_seed(cfg.seed, 2));
  const std::int64_t fault_offset = offset_rng.uniform_int(0, kFaultPeriod - 1);

  const aift::BatchExecutor executor(*session);
  aift::BatchOptions opts;
  opts.defer_verification = true;
  aift::BatchStats totals;
  aift::BatchStats leading;
  std::vector<double> latency_ms;
  std::vector<double> call_rates;
  std::vector<std::pair<Request, aift::SessionResult>> faulted;
  std::int64_t done = 0;
  std::int64_t wrong = 0;
  std::size_t calls = 0;
  const auto start = Clock::now();
  auto now = start;
  while (seconds_between(start, now) < cfg.seconds) {
    std::vector<Request> reqs;
    std::vector<aift::BatchRequest> batch;
    for (std::size_t j = 0; j < kRequestsPerCall; ++j) {
      reqs.push_back(make_request(*session, cfg.seed, fault_offset,
                                  done + static_cast<std::int64_t>(j)));
      batch.push_back(aift::BatchRequest{
          inputs[static_cast<std::size_t>(reqs.back().input)],
          reqs.back().faults});
    }
    const ScopedSpan span(rec, "request", -1, static_cast<std::int64_t>(calls));
    const auto t0 = Clock::now();
    aift::BatchResult result = executor.run(batch, opts);
    now = Clock::now();
    call_rates.push_back(static_cast<double>(kRequestsPerCall) /
                         seconds_between(t0, now));
    for (std::size_t j = 0; j < kRequestsPerCall; ++j) {
      latency_ms.push_back(seconds_between(t0, now) * 1e3);
      if (reqs[j].faults.empty()) {
        if (!same_result(result.requests[j],
                         clean_refs[static_cast<std::size_t>(reqs[j].input)])) {
          ++wrong;
        }
      } else {
        faulted.emplace_back(reqs[j], std::move(result.requests[j]));
      }
    }
    const auto& s = result.stats;
    totals.deferred_checks += s.deferred_checks;
    totals.rewinds += s.rewinds;
    totals.flushed_executions += s.flushed_executions;
    totals.cross_batch_overlapped += s.cross_batch_overlapped;
    if (calls < kRepeatCalls) {
      leading.deferred_checks += s.deferred_checks;
      leading.rewinds += s.rewinds;
      leading.flushed_executions += s.flushed_executions;
    }
    done += static_cast<std::int64_t>(kRequestsPerCall);
    ++calls;
  }
  const double elapsed = seconds_between(start, now);

  // Faulted requests, recovered or not, must match a standalone run too.
  for (const auto& [req, got] : faulted) {
    aift::SessionRunOptions ro;
    ro.faults = req.faults;
    const aift::SessionResult want =
        session->run(inputs[static_cast<std::size_t>(req.input)], ro);
    if (!same_result(got, want)) ++wrong;
    if (!want.recovered()) out.fail("a faulted square-batch request did not recover");
  }
  out.attempted += done;
  out.failed += wrong;
  if (wrong > 0) {
    out.fail(std::to_string(wrong) +
             " square-batch outputs differ from standalone InferenceSession::run");
  }

  // The median call's rate, scaled by the share of correct outputs: the
  // host's speed wanders by tens of percent within seconds, and the median
  // over calls damps that where the whole-run mean does not.
  e2e.throughput_per_s = median(call_rates) * static_cast<double>(done - wrong) /
                      static_cast<double>(done);
  e2e.lat_p50_ms = percentile(latency_ms, 50);
  e2e.lat_p90_ms = percentile(latency_ms, 90);
  std::printf("closed loop: %lld inferences in %zu calls of %zu over %.3f s "
              "(%.4f inf/s; median call %.4f inf/s); %zu faulted; request latency "
              "p50 %.2f ms, p90 %.2f ms over %zu samples\n",
              static_cast<long long>(done), calls, kRequestsPerCall, elapsed,
              static_cast<double>(done) / elapsed, e2e.throughput_per_s, faulted.size(), e2e.lat_p50_ms, e2e.lat_p90_ms,
              latency_ms.size());
  add_latency_counters(lc, latency_ms);

  if (calls >= kRepeatCalls) {
    out.repeat_counts["square.lead_calls.deferred_checks"] = leading.deferred_checks;
    out.repeat_counts["square.lead_calls.rewinds"] = leading.rewinds;
    out.repeat_counts["square.lead_calls.flushed"] = leading.flushed_executions;
  }
  out.repeat_counts["square.fault_offset"] = fault_offset;
  lc["executor.deferred_checks"] = {static_cast<double>(totals.deferred_checks),
                                    "count"};
  lc["executor.rewinds"] = {static_cast<double>(totals.rewinds), "count"};
  lc["executor.flushed"] = {static_cast<double>(totals.flushed_executions),
                            "count"};
  lc["executor.cross_batch_overlapped"] = {
      static_cast<double>(totals.cross_batch_overlapped), "count"};
  return e2e;
}

}  // namespace perfbench
