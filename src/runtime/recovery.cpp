#include "runtime/recovery.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace aift {

RecoveryAnalysis analyze_recovery(const InferencePlan& plan,
                                  double fault_probability) {
  AIFT_CHECK(fault_probability >= 0.0 && fault_probability < 1.0);
  RecoveryAnalysis out;
  out.fault_probability_per_layer = fault_probability;
  out.protected_us = plan.total_protected_us;

  // A layer retries until clean: expected executions = 1/(1-p), so the
  // expected extra executions per layer are p/(1-p).
  const double extra_per_layer = fault_probability / (1.0 - fault_probability);
  for (const auto& e : plan.entries) {
    out.expected_retry_us +=
        extra_per_layer * e.profile.redundant.cost.total_us;
    out.expected_retries += extra_per_layer;
  }
  return out;
}

RecoverySimulation simulate_recovery(const InferenceSession& session,
                                     double fault_probability, int trials,
                                     std::uint64_t seed,
                                     FaultModelOptions fault_opts) {
  AIFT_CHECK(fault_probability >= 0.0 && fault_probability < 1.0);
  AIFT_CHECK(trials > 0);

  const Matrix<half_t> input = session.make_input(seed);
  const std::size_t num_layers = session.num_layers();
  const int max_retries = session.options().max_retries;

  struct TrialOutcome {
    std::int64_t faulted = 0;
    std::int64_t retries = 0;
    std::int64_t undetected = 0;
  };
  std::vector<TrialOutcome> outcomes(static_cast<std::size_t>(trials));

  parallel_for(0, trials, [&](std::int64_t t) {
    // One RNG stream per trial (same scheme as the campaign engines), so
    // the fault pattern depends only on (seed, t).
    Rng rng(derive_seed(seed, static_cast<std::uint64_t>(t)));
    SessionRunOptions run_opts;
    run_opts.parallel = false;  // trials already saturate the pool
    for (std::size_t i = 0; i < num_layers; ++i) {
      const auto& entry = session.plan().entries[i];
      // Every potential execution attempt faults independently — the
      // geometric process analyze_recovery models, truncated at the
      // session's retry budget.
      for (int e = 0; e <= max_retries; ++e) {
        if (rng.uniform(0.0, 1.0) < fault_probability) {
          run_opts.faults.push_back(SessionFault{
              i, random_fault(rng, entry.layer.gemm, entry.exec_tile(),
                              fault_opts),
              e});
        }
      }
    }
    const SessionResult result = session.run(input, run_opts);

    TrialOutcome& out = outcomes[static_cast<std::size_t>(t)];
    out.retries = result.total_retries();
    for (std::size_t i = 0; i < num_layers; ++i) {
      std::int64_t injected_run = 0;
      for (const auto& f : run_opts.faults) {
        if (f.layer == i &&
            f.execution < result.layers[i].executions) {
          ++injected_run;
        }
      }
      out.faulted += injected_run;
      out.undetected +=
          std::max<std::int64_t>(0, injected_run - result.layers[i].detections);
    }
  });

  RecoverySimulation sim;
  sim.trials = trials;
  for (const auto& out : outcomes) {
    sim.faulted_executions += out.faulted;
    sim.total_retries += out.retries;
    sim.undetected += out.undetected;
  }
  sim.mean_retries_per_inference =
      static_cast<double>(sim.total_retries) / static_cast<double>(trials);
  return sim;
}

}  // namespace aift
