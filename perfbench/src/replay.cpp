// The traced layer-by-layer replay. Each workload's model is replayed from
// outside the library at the workload's batch shape, with a span around
// every public call: per layer one `layer` span whose children are the
// GEMM (functional_gemm on the session's packed weights), the plan's check
// (ThreadLevelAbft::check or GlobalAbft::check) and the inter-layer flow
// (activate_and_repack). Self times come from the spans.
//
// A second, `selector` span per layer measures both candidate schemes on
// their own profiled tiles -- one-sided thread-level ABFT (the tile of the
// thread_level plan) and global ABFT (the tile of the global_abft plan) --
// against the unprotected base tile. That answers the paper's question on
// this host: is the intensity-guided plan's scheme the measured-cheaper
// one, and what are the measured model-level overheads of the guided,
// thread-only and global-only policies?

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "core/global_abft.hpp"
#include "core/thread_level_abft.hpp"
#include "gemm/functional.hpp"
#include "gemm/packed_operand.hpp"
#include "nn/activation.hpp"
#include "runtime/pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using aift::half_t;
using aift::Matrix;

/// Measured scheme costs within this share of each other are a tie: the
/// verdict then agrees with either choice.
constexpr double kTieShare = 0.02;

/// Span ids of one repetition of one layer.
struct RepSpans {
  std::int64_t layer = -1, gemm = -1, check = -1, act = -1;
  std::int64_t base_gemm = -1, thread_gemm = -1, thread_check = -1,
               global_gemm = -1, global_check = -1;
};

struct LayerRow {
  std::string model;
  std::string name;
  std::string scheme;
  aift::GemmShape shape;  ///< stacked: m = requests * layer m
  std::vector<RepSpans> reps;
  // Medians over repetitions (seconds); NaN where the layer has none.
  double gemm_s = NAN, check_s = NAN, act_s = NAN, self_s = NAN;
  double base_s = NAN, thread_s = NAN, global_s = NAN;  ///< GEMM + check
  double predicted_pct = NAN;
  double predicted_thread_pct = NAN, predicted_global_pct = NAN;
};

Matrix<half_t> stack_rows(const std::vector<Matrix<half_t>>& parts) {
  std::int64_t rows = 0;
  for (const auto& p : parts) rows += p.rows();
  Matrix<half_t> out(rows, parts.front().cols());
  std::int64_t at = 0;
  for (const auto& p : parts) {
    std::memcpy(out.data() + at * out.cols(), p.data(),
                static_cast<std::size_t>(p.size()) * sizeof(half_t));
    at += p.rows();
  }
  return out;
}

bool same_bits(const Matrix<half_t>& a, const Matrix<half_t>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(half_t)) == 0;
}

double median_of(const std::vector<RepSpans>& reps,
                 std::int64_t RepSpans::*field,
                 const std::vector<double>& self) {
  std::vector<double> v;
  for (const auto& r : reps) {
    if (r.*field >= 0) v.push_back(self[static_cast<std::size_t>(r.*field)]);
  }
  return v.empty() ? NAN : median(v);
}

double pct(double protected_s, double base_s) {
  return base_s > 0.0 ? (protected_s - base_s) / base_s * 100.0 : NAN;
}

/// The reduction factor of `other` over `guided` overhead; NaN when the
/// guided overhead is not positive (no meaningful ratio).
double reduction(double other_pct, double guided_pct) {
  return guided_pct > 0.0 ? other_pct / guided_pct : NAN;
}

void replay_model(const ReplayModel& rm, std::uint64_t seed, SpanRecorder& rec,
                  Outcome& out, std::vector<LayerRow>& rows,
                  double& predicted_base_us, double& predicted_protected_us) {
  const aift::GemmCostModel cost(aift::devices::t4());
  const aift::ProtectedPipeline pipe(cost);
  const auto guided =
      pipe.plan(rm.model, aift::ProtectionPolicy::intensity_guided);
  const auto thread = pipe.plan(rm.model, aift::ProtectionPolicy::thread_level);
  const auto global = pipe.plan(rm.model, aift::ProtectionPolicy::global_abft);
  predicted_base_us += guided.total_base_us;
  predicted_protected_us += guided.total_protected_us;
  const aift::InferenceSession session(guided);
  const std::int64_t root = rec.begin("replay:" + rm.label);

  // Clean inputs of every layer, `requests` requests stacked per layer.
  std::vector<Matrix<half_t>> inputs;
  {
    const ScopedSpan s(rec, "session.layer_inputs", root);
    std::vector<std::vector<Matrix<half_t>>> per_request;
    for (std::int64_t r = 0; r < rm.requests; ++r) {
      per_request.push_back(session.layer_inputs(session.make_input(
          aift::derive_seed(seed, 7000 + static_cast<std::uint64_t>(r)))));
    }
    for (std::size_t i = 0; i < session.num_layers(); ++i) {
      std::vector<Matrix<half_t>> parts;
      for (auto& pr : per_request) parts.push_back(std::move(pr[i]));
      inputs.push_back(stack_rows(parts));
    }
  }
  const aift::Activation act = session.options().activation;

  for (std::size_t i = 0; i < session.num_layers(); ++i) {
    const auto& entry = guided.entries[i];
    const auto& shape = entry.layer.gemm;
    const Matrix<half_t>& a = inputs[i];
    const Matrix<half_t>& w = session.weights(i);
    LayerRow row;
    row.model = rm.label;
    row.name = entry.layer.name;
    row.scheme = aift::scheme_name(entry.scheme());
    row.shape = aift::GemmShape{a.rows(), shape.n, shape.k};
    row.predicted_pct = entry.profile.overhead_pct;
    row.predicted_thread_pct = thread.entries[i].profile.overhead_pct;
    row.predicted_global_pct = global.entries[i].profile.overhead_pct;

    // Checkers and packs, built outside every timed span.
    const aift::TileConfig thread_tile = thread.entries[i].exec_tile();
    const aift::TileConfig global_tile = global.entries[i].exec_tile();
    const aift::TileConfig base_tile = entry.profile.base.tile;
    aift::ThreadLevelAbft thread_check(thread_tile,
                                       aift::ThreadAbftSide::one_sided);
    thread_check.prepare(w);
    std::optional<aift::ThreadLevelAbft> plan_thread_check;
    if (entry.scheme() == aift::Scheme::thread_one_sided) {
      plan_thread_check.emplace(entry.exec_tile(),
                                aift::ThreadAbftSide::one_sided);
      plan_thread_check->prepare(w);
    }
    const aift::GlobalAbft global_check(w, guided.abft_options.num_checksums);
    const aift::PackedOperand base_pack = aift::pack_operand(w, base_tile);
    const aift::PackedOperand thread_pack = aift::pack_operand(w, thread_tile);
    const aift::PackedOperand global_pack = aift::pack_operand(w, global_tile);
    Matrix<half_t> c(a.rows(), shape.n);
    Matrix<half_t> c_alt(a.rows(), shape.n);
    const bool last = i + 1 == session.num_layers();

    for (int rep = 0; rep < rm.reps; ++rep) {
      RepSpans rs;
      {
        const ScopedSpan layer(rec, "layer", root, rep,
                               static_cast<std::int64_t>(i));
        rs.layer = layer.id();
        const aift::PackedOperand* packed = nullptr;
        {
          const ScopedSpan s(rec, "session.packed_weights", layer.id(), rep,
                             static_cast<std::int64_t>(i));
          packed = session.packed_weights(i);
        }
        {
          const ScopedSpan s(rec, "gemm", layer.id(), rep,
                             static_cast<std::int64_t>(i));
          rs.gemm = s.id();
          if (packed != nullptr) {
            aift::functional_gemm(a, *packed, c, entry.exec_tile());
          } else {
            aift::functional_gemm(a, w, c, entry.exec_tile());
          }
        }
        bool flagged = false;
        if (entry.scheme() == aift::Scheme::thread_one_sided) {
          const ScopedSpan s(rec, "check.thread", layer.id(), rep,
                             static_cast<std::int64_t>(i));
          rs.check = s.id();
          flagged = plan_thread_check->check(a, w, c).fault_detected;
        } else if (entry.scheme() == aift::Scheme::global_abft) {
          const ScopedSpan s(rec, "check.global", layer.id(), rep,
                             static_cast<std::int64_t>(i));
          rs.check = s.id();
          flagged = global_check.check(a, c).fault_detected;
        }
        if (flagged) out.fail("replay: clean " + row.name + " flagged by its check");
        if (!last) {
          const auto& next = guided.entries[i + 1].layer.gemm;
          Matrix<half_t> a_next;
          {
            const ScopedSpan s(rec, "act", layer.id(), rep,
                               static_cast<std::int64_t>(i));
            rs.act = s.id();
            a_next = rm.requests == 1
                         ? aift::activate_and_repack(c, act, next.m, next.k)
                         : aift::activate_and_repack_stacked(
                               c, rm.requests, act, next.m, next.k);
          }
          if (rep == 0 && !same_bits(a_next, inputs[i + 1])) {
            out.fail("replay: " + row.name +
                     " output does not reproduce InferenceSession::layer_inputs");
          }
        }
      }
      {
        const ScopedSpan sel(rec, "selector", root, rep,
                             static_cast<std::int64_t>(i));
        const auto leaf = [&](const char* name) {
          return rec.begin(name, sel.id(), rep, static_cast<std::int64_t>(i));
        };
        rs.base_gemm = leaf("base.gemm");
        aift::functional_gemm(a, base_pack, c_alt, base_tile);
        rec.end(rs.base_gemm);
        rs.thread_gemm = leaf("thread.gemm");
        aift::functional_gemm(a, thread_pack, c_alt, thread_tile);
        rec.end(rs.thread_gemm);
        rs.thread_check = leaf("thread.check");
        const bool t_flag = thread_check.check(a, w, c_alt).fault_detected;
        rec.end(rs.thread_check);
        rs.global_gemm = leaf("global.gemm");
        aift::functional_gemm(a, global_pack, c_alt, global_tile);
        rec.end(rs.global_gemm);
        rs.global_check = leaf("global.check");
        const bool g_flag = global_check.check(a, c_alt).fault_detected;
        rec.end(rs.global_check);
        if (t_flag || g_flag) {
          out.fail("replay: clean " + row.name + " flagged by a selector check");
        }
      }
      row.reps.push_back(rs);
    }
    rows.push_back(std::move(row));
  }
  rec.end(root);
}

std::string row_json(const LayerRow& r, double cmr) {
  const double flops = static_cast<double>(r.shape.flops());
  const double bytes =
      static_cast<double>(r.shape.padded().operand_bytes(aift::DType::f16));
  const double ai = aift::paper_intensity(r.shape, aift::DType::f16);
  const bool timed = std::isfinite(r.gemm_s) && r.gemm_s > 0.0;
  const double gflops = timed ? flops / r.gemm_s / 1e9 : NAN;
  const double gbps = timed ? bytes / r.gemm_s / 1e9 : NAN;
  const double ratio = std::isfinite(r.check_s) && timed ? r.check_s / r.gemm_s : NAN;
  const double measured = pct(r.scheme == "global-abft" ? r.global_s : r.thread_s,
                              r.base_s);
  std::string cheaper = "null";
  std::string verdict = "null";
  if (std::isfinite(r.thread_s) && std::isfinite(r.global_s)) {
    const bool tie = std::fabs(r.thread_s - r.global_s) <=
                     kTieShare * std::min(r.thread_s, r.global_s);
    const char* c = tie ? "tie"
                    : r.thread_s < r.global_s ? "thread-abft-1s"
                                              : "global-abft";
    cheaper = json_string(c);
    verdict = json_string(tie || r.scheme == c ? "agree" : "disagree");
  }
  std::string j = "{";
  j += "\"model\": " + json_string(r.model);
  j += ", \"layer\": " + json_string(r.name);
  j += ", \"m\": " + std::to_string(r.shape.m);
  j += ", \"n\": " + std::to_string(r.shape.n);
  j += ", \"k\": " + std::to_string(r.shape.k);
  j += ", \"scheme\": " + json_string(r.scheme);
  j += ", \"gemm_self_s\": " + json_number(r.gemm_s);
  j += ", \"check_self_s\": " + json_number(r.check_s);
  j += ", \"act_self_s\": " + json_number(r.act_s);
  j += ", \"layer_self_s\": " + json_number(r.self_s);
  j += ", \"check_to_gemm\": " + json_number(ratio);
  j += ", \"gflops\": " + json_number(gflops);
  j += ", \"gbps_computed\": " + json_number(gbps);
  j += ", \"ai\": " + json_number(ai);
  j += ", \"bound\": " + json_string(ai < cmr ? "memory" : "compute");
  j += ", \"overhead_pct_predicted\": " + json_number(r.predicted_pct);
  j += ", \"overhead_pct_measured\": " + json_number(measured);
  j += ", \"thread_overhead_pct_predicted\": " + json_number(r.predicted_thread_pct);
  j += ", \"thread_overhead_pct_measured\": " + json_number(pct(r.thread_s, r.base_s));
  j += ", \"global_overhead_pct_predicted\": " + json_number(r.predicted_global_pct);
  j += ", \"global_overhead_pct_measured\": " + json_number(pct(r.global_s, r.base_s));
  j += ", \"measured_cheaper\": " + cheaper;
  j += ", \"verdict\": " + verdict;
  return j + "}";
}

}  // namespace

void replay_models(const std::vector<ReplayModel>& models, std::uint64_t seed,
                   SpanRecorder& rec, Outcome& out, LayerCounters& lc) {
  std::vector<LayerRow> rows;
  double predicted_base_us = 0.0;
  double predicted_protected_us = 0.0;
  for (const auto& rm : models) {
    replay_model(rm, seed, rec, out, rows, predicted_base_us,
                 predicted_protected_us);
  }

  const std::vector<double> self = rec.self_seconds();
  const double cmr = aift::devices::t4().cmr(aift::DType::f16);
  double gemm_s = 0, act_s = 0, flops = 0, bytes = 0;
  double thread_check_s = 0, thread_gemm_s = 0, global_check_s = 0,
         global_gemm_s = 0;
  double base_total = 0, thread_total = 0, global_total = 0, guided_total = 0;
  std::int64_t agree = 0;
  std::string table = "[";
  std::printf("\nper-layer profile (medians over repetitions; T4 CMR %.1f)\n",
              cmr);
  std::printf("%-10s %-14s %6s %5s %5s %-14s %9s %9s %9s %7s %8s %8s %7s %-7s "
              "%8s %8s %-7s\n",
              "model", "layer", "M", "N", "K", "scheme", "gemm_ms", "check_ms",
              "act_ms", "chk/gm", "GFLOP/s", "GB/s_cmp", "AI", "bound",
              "pred%", "meas%", "verdict");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    LayerRow& r = rows[i];
    r.gemm_s = median_of(r.reps, &RepSpans::gemm, self);
    r.check_s = median_of(r.reps, &RepSpans::check, self);
    r.act_s = median_of(r.reps, &RepSpans::act, self);
    r.self_s = median_of(r.reps, &RepSpans::layer, self);
    r.base_s = median_of(r.reps, &RepSpans::base_gemm, self);
    r.thread_s = median_of(r.reps, &RepSpans::thread_gemm, self) +
                 median_of(r.reps, &RepSpans::thread_check, self);
    r.global_s = median_of(r.reps, &RepSpans::global_gemm, self) +
                 median_of(r.reps, &RepSpans::global_check, self);
    const bool is_thread = r.scheme == "thread-abft-1s";
    const bool is_global = r.scheme == "global-abft";
    gemm_s += r.gemm_s;
    if (std::isfinite(r.act_s)) act_s += r.act_s;
    flops += static_cast<double>(r.shape.flops());
    bytes += static_cast<double>(r.shape.padded().operand_bytes(aift::DType::f16));
    if (is_thread) {
      thread_check_s += r.check_s;
      thread_gemm_s += r.gemm_s;
    }
    if (is_global) {
      global_check_s += r.check_s;
      global_gemm_s += r.gemm_s;
    }
    base_total += r.base_s;
    thread_total += r.thread_s;
    global_total += r.global_s;
    guided_total += is_global ? r.global_s : r.thread_s;
    const bool tie = std::fabs(r.thread_s - r.global_s) <=
                     kTieShare * std::min(r.thread_s, r.global_s);
    const bool ok = tie || (is_thread && r.thread_s < r.global_s) ||
                    (is_global && r.global_s < r.thread_s);
    agree += ok ? 1 : 0;
    const double ai = aift::paper_intensity(r.shape, aift::DType::f16);
    const double measured = pct(is_global ? r.global_s : r.thread_s, r.base_s);
    std::printf("%-10.10s %-14.14s %6lld %5lld %5lld %-14s %9.4f %9.4f %9.4f "
                "%7.3f %8.2f %8.2f %7.1f %-7s %8.2f %8.2f %-7s\n",
                r.model.c_str(), r.name.c_str(),
                static_cast<long long>(r.shape.m),
                static_cast<long long>(r.shape.n),
                static_cast<long long>(r.shape.k), r.scheme.c_str(),
                r.gemm_s * 1e3, r.check_s * 1e3, r.act_s * 1e3,
                r.check_s / r.gemm_s,
                static_cast<double>(r.shape.flops()) / r.gemm_s / 1e9,
                static_cast<double>(
                    r.shape.padded().operand_bytes(aift::DType::f16)) /
                    r.gemm_s / 1e9,
                ai, ai < cmr ? "memory" : "compute", r.predicted_pct, measured,
                tie ? "tie" : ok ? "agree" : "DISAGREE");
    table += (i == 0 ? "\n  " : ",\n  ") + row_json(r, cmr);
  }
  table += "\n]";
  out.detail["layers"] = table;

  const double guided_pct = pct(guided_total, base_total);
  const double thread_pct = pct(thread_total, base_total);
  const double global_pct = pct(global_total, base_total);
  const double predicted_pct =
      predicted_base_us > 0.0
          ? (predicted_protected_us - predicted_base_us) / predicted_base_us * 100.0
          : NAN;
  std::printf("measured model-level overhead: guided %.2f%%, thread-only "
              "%.2f%%, global-only %.2f%%; reduction vs thread %.3fx, vs "
              "global %.3fx (paper: 1.09-5.3x); predicted guided %.2f%%\n",
              guided_pct, thread_pct, global_pct,
              reduction(thread_pct, guided_pct),
              reduction(global_pct, guided_pct), predicted_pct);
  out.detail["policies"] =
      "{\"guided_pct_measured\": " + json_number(guided_pct) +
      ", \"thread_only_pct_measured\": " + json_number(thread_pct) +
      ", \"global_only_pct_measured\": " + json_number(global_pct) +
      ", \"guided_pct_predicted\": " + json_number(predicted_pct) +
      ", \"reduction_vs_thread\": " + json_number(reduction(thread_pct, guided_pct)) +
      ", \"reduction_vs_global\": " + json_number(reduction(global_pct, guided_pct)) +
      ", \"paper_reduction_range\": [1.09, 5.3]}";

  // Per-layer metrics must be numbers; a ratio with no base reads 0.
  const auto finite = [](double v) { return std::isfinite(v) ? v : 0.0; };
  lc["gemm.self_s"] = {gemm_s, "s"};
  lc["gemm.gflops"] = {finite(flops / gemm_s / 1e9), "GFLOP/s"};
  lc["gemm.gbps_computed"] = {finite(bytes / gemm_s / 1e9), "GB/s"};
  lc["check.thread_s"] = {thread_check_s, "s"};
  lc["check.thread_to_gemm"] = {
      thread_gemm_s > 0 ? thread_check_s / thread_gemm_s : 0.0, "ratio"};
  lc["check.global_s"] = {global_check_s, "s"};
  lc["check.global_to_gemm"] = {
      global_gemm_s > 0 ? global_check_s / global_gemm_s : 0.0, "ratio"};
  lc["nn.act_s"] = {act_s, "s"};
  lc["selector.agree_frac"] = {
      rows.empty() ? 0.0
                   : static_cast<double>(agree) / static_cast<double>(rows.size()),
      "frac"};
  lc["abft.overhead_pct.measured"] = {finite(guided_pct), "%"};
  lc["abft.overhead_pct.predicted"] = {finite(predicted_pct), "%"};
  lc["abft.reduction_vs_thread"] = {finite(reduction(thread_pct, guided_pct)), "x"};
  lc["abft.reduction_vs_global"] = {finite(reduction(global_pct, guided_pct)), "x"};
}

}  // namespace perfbench
