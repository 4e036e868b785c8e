// dlrm-serve: an open loop of seeded Poisson arrivals into one threaded
// ServingEngine with two shards. `bottom` serves DLRM MLP-Bottom in
// continuous mode (EDF, interactive class, tight SLO); `top` serves
// MLP-Top in closed batches (EDF, bulk class, loose SLO). Every layer of
// both MLPs is bandwidth-bound and protected by thread-level ABFT, so the
// thread-level check, queueing and both serving dispatch paths
// (execute_batch and continuous_round) do most of the work.
//
// The run has two phases at fixed absolute rates: `nominal`, below the
// engine's capacity, and `overload`, above it. The rates were chosen once
// from the capacity of a 4-vCPU x86-64 host at the pinned worker count
// and are never derived from a run's own capacity, so a faster commit
// faces the same load.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "nn/zoo/zoo.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/serving.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using aift::Priority;
using std::chrono::microseconds;

constexpr double kNominalRps = 400.0;
constexpr double kOverloadRps = 8000.0;
constexpr double kFaultFraction = 0.02;
constexpr std::int64_t kInputPool = 64;
constexpr std::int64_t kMaxBatch = 16;
constexpr microseconds kBottomSlo{10'000};
constexpr microseconds kTopSlo{100'000};
/// throughput_per_s is the median over this many equal windows of the
/// overload phase (by due time): the host's speed wanders by tens of
/// percent within seconds, and a median over windows damps that.
constexpr int kWindows = 10;
/// How often the generator polls outstanding futures between arrivals.
constexpr microseconds kPoll{50};

enum class Phase { nominal = 0, overload = 1 };
constexpr const char* kPhaseNames[] = {"nominal", "overload"};
constexpr const char* kShardNames[] = {"bottom", "top"};

struct Planned {
  int shard = 0;
  std::int64_t input = 0;
  std::vector<aift::SessionFault> faults;
  double offset_s = 0.0;  ///< due time, from the start of its phase
  Phase phase = Phase::nominal;
};

enum class State { unsent, pending, ok, shed, failed, refused };

struct Observed {
  Clock::time_point due;
  Clock::time_point submitted;
  Clock::time_point ready;
  State state = State::unsent;
  std::future<aift::ServedResult> future;
  std::optional<aift::ServedResult> result;
  bool correct = false;
  std::int64_t span = -1;
};

aift::BatchPolicy bottom_policy() {
  aift::BatchPolicy p;
  p.max_batch = kMaxBatch;
  p.scheduler = aift::SchedulerKind::edf;
  p.max_delay = microseconds{200};
  p.default_slo = kBottomSlo;
  p.dispatch_margin = microseconds{2'000};
  p.continuous = true;
  return p;
}

aift::BatchPolicy top_policy() {
  aift::BatchPolicy p;
  p.max_batch = kMaxBatch;
  p.scheduler = aift::SchedulerKind::edf;
  p.max_delay = microseconds{1'000};
  p.default_slo = kTopSlo;
  p.dispatch_margin = microseconds{10'000};
  p.continuous = false;
  return p;
}

std::unique_ptr<aift::ServingEngine> build_engine(SpanRecorder& rec) {
  const ScopedSpan setup(rec, "setup");
  const aift::GemmCostModel cost(aift::devices::t4());
  const aift::ProtectedPipeline pipe(cost);
  aift::InferencePlan bottom;
  aift::InferencePlan top;
  {
    const ScopedSpan s(rec, "plan.compile", setup.id());
    bottom = pipe.plan(aift::zoo::dlrm_mlp_bottom(1),
                       aift::ProtectionPolicy::intensity_guided);
    top = pipe.plan(aift::zoo::dlrm_mlp_top(1),
                    aift::ProtectionPolicy::intensity_guided);
  }
  const ScopedSpan s(rec, "session.build", setup.id());
  auto engine = std::make_unique<aift::ServingEngine>();
  engine->add_model(kShardNames[0], std::move(bottom), bottom_policy());
  engine->add_model(kShardNames[1], std::move(top), top_policy());
  return engine;
}

std::vector<Planned> plan_traffic(const aift::ServingEngine& engine,
                                  std::uint64_t seed, double phase_s) {
  aift::Rng rng(aift::derive_seed(seed, 1));
  aift::FaultModelOptions fopts;
  fopts.min_bit = 20;
  fopts.max_bit = 29;
  std::vector<Planned> plan;
  for (const Phase phase : {Phase::nominal, Phase::overload}) {
    const double rate = phase == Phase::nominal ? kNominalRps : kOverloadRps;
    double t = 0.0;
    for (;;) {
      t += -std::log1p(-rng.uniform(0.0, 1.0)) / rate;
      if (t >= phase_s) break;
      Planned p;
      p.phase = phase;
      p.offset_s = t;
      p.shard = rng.uniform(0.0, 1.0) < 0.5 ? 0 : 1;
      p.input = rng.uniform_int(0, kInputPool - 1);
      if (rng.uniform(0.0, 1.0) < kFaultFraction) {
        const auto& plan_entries =
            engine.session(kShardNames[p.shard]).plan().entries;
        const auto layer = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(plan_entries.size()) - 1));
        const auto& entry = plan_entries[layer];
        p.faults.push_back(aift::SessionFault{
            layer,
            aift::random_fault(rng, entry.layer.gemm, entry.exec_tile(),
                               fopts),
            0});
      }
      plan.push_back(std::move(p));
    }
  }
  return plan;
}

double us(Clock::time_point from, Clock::time_point to) {
  return seconds_between(from, to) * 1e6;
}

}  // namespace

std::vector<ReplayModel> dlrm_serve_models() {
  // Replayed at the serving batch cap: max_batch requests of one row each.
  return {{"MLP-Bottom", aift::zoo::dlrm_mlp_bottom(1), kMaxBatch, 20},
          {"MLP-Top", aift::zoo::dlrm_mlp_top(1), kMaxBatch, 20}};
}

EndToEnd run_dlrm_serve(const RunConfig& cfg, int setup_reps,
                        SpanRecorder& rec, Outcome& out, LayerCounters& lc) {
  EndToEnd e2e;
  std::unique_ptr<aift::ServingEngine> engine;
  std::vector<double> setups;
  for (int r = 0; r < setup_reps; ++r) {
    engine.reset();
    const auto t0 = Clock::now();
    engine = build_engine(rec);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  e2e.setup_s = median(setups);

  const double phase_s = cfg.seconds / 2.0;
  const std::vector<Planned> plan = plan_traffic(*engine, cfg.seed, phase_s);
  std::vector<aift::Matrix<aift::half_t>> inputs[2];
  for (int s = 0; s < 2; ++s) {
    const auto& session = engine->session(kShardNames[s]);
    for (std::int64_t i = 0; i < kInputPool; ++i) {
      inputs[s].push_back(session.make_input(aift::derive_seed(
          cfg.seed, 100 + static_cast<std::uint64_t>(s * kInputPool + i))));
    }
  }
  std::vector<Observed> obs(plan.size());

  // The generator thread sends each request when due and polls the
  // outstanding futures in between, stamping when each becomes ready.
  std::size_t next = 0;
  for (const Phase phase : {Phase::nominal, Phase::overload}) {
    const std::int64_t phase_span =
        rec.begin(kPhaseNames[static_cast<int>(phase)]);
    const auto start = Clock::now();
    std::vector<std::size_t> outstanding;
    auto due_of = [&](std::size_t i) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(plan[i].offset_s));
    };
    while ((next < plan.size() && plan[next].phase == phase) ||
           !outstanding.empty()) {
      auto now = Clock::now();
      while (next < plan.size() && plan[next].phase == phase &&
             due_of(next) <= now) {
        const Planned& p = plan[next];
        Observed& o = obs[next];
        o.due = due_of(next);
        o.span = rec.begin("request", phase_span, static_cast<std::int64_t>(next));
        o.submitted = Clock::now();
        try {
          aift::RequestOptions req;
          req.priority = p.shard == 0 ? Priority::interactive : Priority::bulk;
          o.future = engine->submit(kShardNames[p.shard],
                                    inputs[p.shard][static_cast<std::size_t>(p.input)],
                                    p.faults, req);
          o.state = State::pending;
          outstanding.push_back(next);
        } catch (const std::exception&) {
          o.state = State::refused;
          o.ready = Clock::now();
          rec.end_at(o.span, o.ready);
        }
        ++next;
        now = Clock::now();
      }
      for (std::size_t j = 0; j < outstanding.size();) {
        Observed& o = obs[outstanding[j]];
        if (o.future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          o.ready = Clock::now();
          rec.end_at(o.span, o.ready);
          outstanding[j] = outstanding.back();
          outstanding.pop_back();
        } else {
          ++j;
        }
      }
      auto wake = Clock::now() + kPoll;
      if (next < plan.size() && plan[next].phase == phase) {
        wake = std::min(wake, due_of(next));
      }
      std::this_thread::sleep_until(wake);
    }
    rec.end(phase_span);
  }
  engine->drain();
  const aift::ServingStats stats = engine->stats();
  if (stats.submitted !=
      stats.completed + stats.failed + stats.shed + stats.queue_depth) {
    out.fail("serving ledger: submitted != completed + failed + shed + "
             "queue_depth after drain");
  }

  for (Observed& o : obs) {
    if (o.state != State::pending) continue;
    try {
      o.result = o.future.get();
      o.state = State::ok;
    } catch (const aift::DeadlineExceeded&) {
      o.state = State::shed;
    } catch (const std::exception&) {
      o.state = State::failed;
    }
  }

  // Every served output must be bit-identical to a standalone
  // InferenceSession::run of the same input and faults. Clean requests
  // share one reference per pooled input.
  std::vector<std::optional<aift::SessionResult>> clean_refs[2];
  for (auto& refs : clean_refs) refs.resize(static_cast<std::size_t>(kInputPool));
  std::int64_t faulted_planned = 0;
  std::int64_t faulted_detections = 0;
  std::int64_t faulted_recovered = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Planned& p = plan[i];
    Observed& o = obs[i];
    const auto& session = engine->session(kShardNames[p.shard]);
    const auto& input = inputs[p.shard][static_cast<std::size_t>(p.input)];
    std::optional<aift::SessionResult> faulted_ref;
    const aift::SessionResult* ref = nullptr;
    if (p.faults.empty()) {
      auto& slot = clean_refs[p.shard][static_cast<std::size_t>(p.input)];
      if (o.state == State::ok && !slot) slot = session.run(input);
      if (slot) ref = &*slot;
    } else {
      aift::SessionRunOptions ro;
      ro.faults = p.faults;
      faulted_ref = session.run(input, ro);
      ref = &*faulted_ref;
      ++faulted_planned;
      faulted_detections += faulted_ref->total_detections();
      faulted_recovered += faulted_ref->recovered() ? 1 : 0;
    }
    if (o.state == State::ok) o.correct = same_result(o.result->session, *ref);
  }

  // Per-phase accounting; a refused, shed, failed or wrong request is a
  // deadline miss and has no latency.
  std::vector<double> nominal_latency_ms;
  std::vector<double> late_us;
  std::vector<double> queue_us;
  std::vector<double> exec_us;
  std::int64_t goodput = 0;
  std::int64_t shard_goodput[2] = {0, 0};
  std::vector<double> window_served(kWindows, 0.0);
  for (int ph = 0; ph < 2; ++ph) {
    std::int64_t sent = 0, ok = 0, shed = 0, failed = 0, wrong = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (static_cast<int>(plan[i].phase) != ph) continue;
      const Observed& o = obs[i];
      ++sent;
      late_us.push_back(us(o.due, o.submitted));
      const bool good = o.state == State::ok && o.correct;
      if (o.state == State::shed) ++shed;
      if (o.state == State::failed || o.state == State::refused) ++failed;
      if (o.state == State::ok && !o.correct) ++wrong;
      if (good) {
        ++ok;
        queue_us.push_back(o.result->queue_us);
        exec_us.push_back(o.result->execute_us);
        if (ph == 1) {
          const int w = std::min(
              kWindows - 1, static_cast<int>(plan[i].offset_s / phase_s * kWindows));
          window_served[static_cast<std::size_t>(w)] += 1.0;
        }
      }
      const double latency_ms =
          good ? seconds_between(o.due, o.ready) * 1e3 : INFINITY;
      if (ph == 0) nominal_latency_ms.push_back(latency_ms);
      const microseconds slo = plan[i].shard == 0 ? kBottomSlo : kTopSlo;
      if (ph == 1 && good && o.ready <= o.due + slo) {
        ++goodput;
        ++shard_goodput[plan[i].shard];
      }
    }
    char line[256];
    std::snprintf(line, sizeof line,
                  "phase %-8s rate %6.0f req/s  sent %6lld  succeeded %6lld "
                  "(%.4f)  failed %lld (%.4f)  shed %lld (%.4f)  wrong %lld "
                  "(%.4f)",
                  kPhaseNames[ph], ph == 0 ? kNominalRps : kOverloadRps,
                  static_cast<long long>(sent), static_cast<long long>(ok),
                  sent ? static_cast<double>(ok) / static_cast<double>(sent) : 0.0,
                  static_cast<long long>(failed),
                  sent ? static_cast<double>(failed) / static_cast<double>(sent) : 0.0,
                  static_cast<long long>(shed),
                  sent ? static_cast<double>(shed) / static_cast<double>(sent) : 0.0,
                  static_cast<long long>(wrong),
                  sent ? static_cast<double>(wrong) / static_cast<double>(sent) : 0.0);
    out.detail["phase_" + std::string(kPhaseNames[ph])] =
        "{\"rate_rps\": " + json_number(ph == 0 ? kNominalRps : kOverloadRps) +
        ", \"sent\": " + std::to_string(sent) +
        ", \"succeeded\": " + std::to_string(ok) +
        ", \"failed\": " + std::to_string(failed) +
        ", \"shed\": " + std::to_string(shed) +
        ", \"wrong\": " + std::to_string(wrong) + "}";
    std::printf("%s\n", line);
    out.attempted += sent;
    out.failed += failed + wrong;
    if (wrong > 0) out.fail(std::to_string(wrong) + " served outputs differ "
                            "from standalone InferenceSession::run");
    if (failed > 0) out.fail(std::to_string(failed) + " requests failed or "
                             "were refused in phase " + kPhaseNames[ph]);
  }
  if (faulted_recovered != faulted_planned) {
    out.fail("a faulted DLRM request did not recover in its standalone run");
  }

  for (int sh = 0; sh < 2; ++sh) {
    for (int ph = 0; ph < 2; ++ph) {
      std::vector<double> lat;
      for (std::size_t i = 0; i < plan.size(); ++i) {
        const Observed& o = obs[i];
        if (plan[i].shard != sh || static_cast<int>(plan[i].phase) != ph) continue;
        lat.push_back(o.state == State::ok && o.correct
                          ? seconds_between(o.due, o.ready) * 1e3
                          : INFINITY);
      }
      std::printf("  %-6s %-8s latency from due time: p50 %.3f ms, p99 %.3f ms "
                  "over %zu requests\n",
                  kShardNames[sh], kPhaseNames[ph], percentile(lat, 50),
                  percentile(lat, 99), lat.size());
    }
  }
  std::printf("overload goodput by shard: bottom %.1f req/s, top %.1f req/s\n",
              static_cast<double>(shard_goodput[0]) / phase_s,
              static_cast<double>(shard_goodput[1]) / phase_s);
  std::printf("generator lateness: p50 %.1f us, p99 %.1f us, max %.1f us; "
              "engine queue p99 %.1f us, execute p99 %.1f us\n",
              percentile(late_us, 50), percentile(late_us, 99),
              percentile(late_us, 100), percentile(queue_us, 99),
              percentile(exec_us, 99));
  for (double& s : window_served) s /= phase_s / kWindows;
  e2e.throughput_per_s = median(window_served);
  const double goodput_rps = static_cast<double>(goodput) / phase_s;
  e2e.lat_p50_ms = percentile(nominal_latency_ms, 50);
  e2e.lat_p90_ms = percentile(nominal_latency_ms, 90);
  std::printf("nominal latency from due time: p50 %.4f ms, p90 %.4f ms, p99 "
              "%.4f ms over %zu requests; overload: served %.1f req/s (median of "
              "%d windows), goodput %.1f req/s by deadline\n",
              e2e.lat_p50_ms, e2e.lat_p90_ms,
              percentile(nominal_latency_ms, 99), nominal_latency_ms.size(),
              e2e.throughput_per_s, kWindows, goodput_rps);
  add_latency_counters(lc, nominal_latency_ms);

  out.repeat_counts["dlrm.sent"] = static_cast<std::int64_t>(plan.size());
  out.repeat_counts["dlrm.faulted"] = faulted_planned;
  out.repeat_counts["dlrm.faulted_detections"] = faulted_detections;

  const auto& interactive =
      stats.by_priority[aift::priority_index(Priority::interactive)];
  const auto& bulk = stats.by_priority[aift::priority_index(Priority::bulk)];
  lc["serving.queue_us.p50"] = {percentile(queue_us, 50), "us"};
  lc["serving.queue_us.p99"] = {percentile(queue_us, 99), "us"};
  lc["serving.exec_us.p50"] = {percentile(exec_us, 50), "us"};
  lc["serving.exec_us.p99"] = {percentile(exec_us, 99), "us"};
  lc["serving.goodput_rps"] = {goodput_rps, "req/s"};
  lc["serving.mean_batch"] = {stats.mean_batch_size(), "rows"};
  lc["serving.shed"] = {static_cast<double>(stats.shed), "count"};
  lc["serving.failed"] = {static_cast<double>(stats.failed), "count"};
  lc["serving.max_queue_depth"] = {static_cast<double>(stats.max_queue_depth), "count"};
  lc["serving.attainment.interactive"] = {interactive.deadline_attainment(),
                                          "frac"};
  lc["serving.attainment.bulk"] = {bulk.deadline_attainment(), "frac"};
  lc["gen.late_us.p99"] = {percentile(late_us, 99), "us"};
  return e2e;
}

}  // namespace perfbench
