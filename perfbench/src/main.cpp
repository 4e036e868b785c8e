// aift_perfbench: one pass of one benchmark workload (see README.md).
//
//   aift_perfbench --workload <dlrm-serve|square-batch|resnet50-campaign>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  --out <detail.json> [--spans <spans.json>]
//                  [--commit <id>] [--src-digest <hex>]
//
// Untraced (--trace 0) it reports the end-to-end metrics. Traced it first
// runs the workload untraced, then again with spans recorded around every
// public call, then replays the workload's model layer by layer, and
// reports the per-layer metrics. Either way it checks every output, prints
// a readable report, writes the detail JSON (metrics, host fingerprint,
// counts that must repeat, per-layer table) and exits 1 on a correctness
// failure. perfbench/run.py builds and drives it.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <string>
#include <thread>

#include "common/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  RunConfig cfg;
  bool trace = false;
  std::string out_path;
  std::string spans_path;
  std::string commit = "unknown";
  std::string src_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "aift_perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.cfg.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        a.cfg.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        a.cfg.seconds = std::stod(val);
        if (!(a.cfg.seconds > 0.0 && a.cfg.seconds <= 600.0)) {
          usage("--seconds must be in (0, 600]");
        }
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.trace = val == "1";
      } else if (key == "--out") {
        a.out_path = val;
        have_out = true;
      } else if (key == "--spans") {
        a.spans_path = val;
      } else if (key == "--commit") {
        a.commit = val;
      } else if (key == "--src-digest") {
        a.src_digest = val;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (!have_workload || !have_seed || !have_out) {
    usage("--workload, --seed and --out are required");
  }
  return a;
}

struct Workload {
  const char* name;
  std::function<EndToEnd(const RunConfig&, int, SpanRecorder&, Outcome&,
                         LayerCounters&)>
      run;
  std::function<std::vector<ReplayModel>()> models;
  /// The workload's own name and unit for throughput_per_s.
  const char* throughput_alias;
  const char* throughput_unit;
  /// Set-up repetitions of an untraced run; setup_s is their median.
  int setup_reps;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"dlrm-serve", run_dlrm_serve, dlrm_serve_models, "served_rps",
       "req/s", 15},
      {"square-batch", run_square_batch, square_batch_models, "throughput_rps",
       "inf/s", 9},
      {"resnet50-campaign", run_resnet50_campaign, resnet50_campaign_models,
       "trials_per_s", "trials/s", 5},
  };
  return all;
}

/// Every per-layer metric, with its unit; a traced run reports each one
/// (0 where the workload does not exercise that layer).
const std::vector<std::pair<const char*, const char*>>& per_layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> all = {
      {"plan.compile_s", "s"},
      {"session.build_s", "s"},
      {"gemm.self_s", "s"},
      {"gemm.gflops", "GFLOP/s"},
      {"gemm.gbps_computed", "GB/s"},
      {"check.thread_s", "s"},
      {"check.thread_to_gemm", "ratio"},
      {"check.global_s", "s"},
      {"check.global_to_gemm", "ratio"},
      {"selector.agree_frac", "frac"},
      {"abft.overhead_pct.measured", "%"},
      {"abft.overhead_pct.predicted", "%"},
      {"abft.reduction_vs_thread", "x"},
      {"abft.reduction_vs_global", "x"},
      {"nn.act_s", "s"},
      {"executor.deferred_checks", "count"},
      {"executor.rewinds", "count"},
      {"executor.flushed", "count"},
      {"executor.cross_batch_overlapped", "count"},
      {"serving.queue_us.p50", "us"},
      {"serving.queue_us.p99", "us"},
      {"serving.exec_us.p50", "us"},
      {"serving.exec_us.p99", "us"},
      {"serving.goodput_rps", "req/s"},
      {"serving.mean_batch", "rows"},
      {"serving.shed", "count"},
      {"serving.failed", "count"},
      {"serving.max_queue_depth", "count"},
      {"serving.attainment.interactive", "frac"},
      {"serving.attainment.bulk", "frac"},
      {"gen.late_us.p99", "us"},
      {"campaign.detected", "count"},
      {"campaign.recovered", "count"},
      {"campaign.masked", "count"},
      {"campaign.sdc", "count"},
      {"campaign.unrecovered", "count"},
      {"campaign.detected_corrupted", "count"},
      {"campaign.reexec_frac", "frac"},
      {"request.lat_p99_ms", "ms"},
      {"request.samples", "count"},
      {"trace.overhead_frac", "frac"},
  };
  return all;
}

std::string fingerprint_json(const Args& a) {
  bool sse2 = false, f16c = false, avx2 = false, avx512f = false;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  sse2 = __builtin_cpu_supports("sse2") != 0;
  f16c = __builtin_cpu_supports("f16c") != 0;
  avx2 = __builtin_cpu_supports("avx2") != 0;
  avx512f = __builtin_cpu_supports("avx512f") != 0;
#endif
  const char* env = std::getenv("AIFT_NUM_THREADS");  // NOLINT(concurrency-mt-unsafe)
  const auto b = [](bool v) { return std::string(v ? "true" : "false"); };
  return "{\"isa\": {\"sse2\": " + b(sse2) + ", \"f16c\": " + b(f16c) +
         ", \"avx2\": " + b(avx2) + ", \"avx512f\": " + b(avx512f) +
         "}, \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"parallel_workers\": " + std::to_string(aift::parallel_workers()) +
         ", \"aift_num_threads\": " + json_string(env ? env : "unset") +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " +
         json_string(std::string(PERFBENCH_COMPILER) + " (" + __VERSION__ + ")") +
         ", \"git_commit\": " + json_string(a.commit) +
         ", \"src_digest\": " + json_string(a.src_digest) +
         ", \"seed\": " + std::to_string(a.cfg.seed) + "}";
}

double span_total(const SpanRecorder& rec, const std::string& name) {
  double total = 0.0;
  for (const Span& s : rec.spans()) {
    if (s.name == name) total += seconds_between(s.start, s.end);
  }
  return total;
}

void write_detail(const Args& a, const Outcome& out, const std::string& fp) {
  std::ofstream f(a.out_path);
  if (!f) usage("cannot write " + a.out_path);
  f << "{\"correct\": " << (out.correct ? "true" : "false")
    << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
    << ",\n\"errors\": [";
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    f << (i ? ", " : "") << json_string(out.errors[i]);
  }
  f << "],\n\"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    f << (i ? ",\n  " : "\n  ") << json_string(m.name) << ": {\"value\": "
      << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
  }
  f << "},\n\"fingerprint\": " << fp << ",\n\"repeat_counts\": {";
  bool first = true;
  for (const auto& [k, v] : out.repeat_counts) {
    f << (first ? "" : ", ") << json_string(k) << ": " << v;
    first = false;
  }
  f << "}";
  for (const auto& [k, v] : out.detail) f << ",\n" << json_string(k) << ": " << v;
  f << "}\n";
}

int run(const Args& a) {
  const Workload* w = nullptr;
  for (const auto& cand : workloads()) {
    if (a.cfg.workload == cand.name) w = &cand;
  }
  if (w == nullptr) usage("unknown workload " + a.cfg.workload);
  const std::string fp = fingerprint_json(a);
  std::printf("workload %s seed %llu seconds %.1f trace %d\nhost %s\n",
              w->name, static_cast<unsigned long long>(a.cfg.seed),
              a.cfg.seconds, a.trace ? 1 : 0, fp.c_str());
  if (aift::parallel_workers() != kPinnedWorkers) {
    std::printf("note: %d pool workers, not the pinned %d; run through "
                "perfbench/run.py to pin them\n",
                aift::parallel_workers(), kPinnedWorkers);
  }

  Outcome out;
  if (!a.trace) {
    SpanRecorder off(false);
    LayerCounters unused;
    const EndToEnd e = w->run(a.cfg, w->setup_reps, off, out, unused);
    out.metric("setup_s", e.setup_s, "s");
    out.metric("throughput_per_s", e.throughput_per_s, "1/s");
    out.metric("lat_p50_ms", e.lat_p50_ms, "ms");
    out.metric("lat_p90_ms", e.lat_p90_ms, "ms");
    std::printf("%s = %.6g %s (throughput_per_s on this workload)\n",
                w->throughput_alias, e.throughput_per_s, w->throughput_unit);
  } else {
    SpanRecorder off(false);
    LayerCounters unused;
    std::printf("-- untraced pass\n");
    const EndToEnd plain = w->run(a.cfg, 1, off, out, unused);
    std::printf("-- traced pass\n");
    SpanRecorder rec(true);
    LayerCounters lc;
    const EndToEnd traced = w->run(a.cfg, 1, rec, out, lc);
    lc["plan.compile_s"] = {span_total(rec, "plan.compile"), "s"};
    lc["session.build_s"] = {span_total(rec, "session.build"), "s"};
    lc["trace.overhead_frac"] = {
        plain.throughput_per_s > 0.0
            ? (plain.throughput_per_s - traced.throughput_per_s) / plain.throughput_per_s
            : 0.0,
        "frac"};
    std::printf("-- layer-by-layer replay\n");
    replay_models(w->models(), a.cfg.seed, rec, out, lc);
    for (const auto& [name, unit] : per_layer_metrics()) {
      const auto it = lc.find(name);
      out.metric(name, it == lc.end() ? 0.0 : it->second.value, unit);
    }
    if (!a.spans_path.empty()) rec.write(a.spans_path);
  }
  for (const Metric& m : out.metrics) {
    std::printf("metric %-32s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  write_detail(a, out, fp);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aift_perfbench: %s\n", e.what());
    return 3;
  }
}
