#include "runtime/executor.hpp"

#include <cmath>
#include <map>
#include <utility>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "gemm/functional.hpp"
#include "nn/activation.hpp"

namespace aift {
namespace {

// Order-independent digest: any fault that changes a stored output's
// value — including a bare sign flip, which leaves Σ|x| alone — moves it.
// Iterating the request-local matrix row-major matches the per-request
// digest of the serial path exactly.
double digest_rows(const Matrix<half_t>& m, std::int64_t row_begin,
                   std::int64_t row_end) {
  double sum = 0.0;
  for (std::int64_t r = row_begin; r < row_end; ++r) {
    for (std::int64_t c = 0; c < m.cols(); ++c) {
      const double x = m(r, c).to_float();
      sum += x + 3.0 * std::abs(x);
    }
  }
  return sum;
}

void paste_rows(Matrix<half_t>& dst, const Matrix<half_t>& src,
                std::int64_t dst_row) {
  for (std::int64_t r = 0; r < src.rows(); ++r) {
    for (std::int64_t c = 0; c < src.cols(); ++c) {
      dst(dst_row + r, c) = src(r, c);
    }
  }
}

// Copies `rows` rows of `src` starting at src_row into a fresh matrix —
// the request-local view of a stacked group output.
Matrix<half_t> copy_rows(const Matrix<half_t>& src, std::int64_t src_row,
                         std::int64_t rows) {
  Matrix<half_t> out(rows, src.cols());
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < src.cols(); ++c) {
      out(r, c) = src(src_row + r, c);
    }
  }
  return out;
}

// Appends the faults a request injects into execution `attempt` of
// `layer`, translated into the C coordinates of a GEMM that holds the
// request's m rows at row `band`. A fault row outside [0, m) lands in tile
// padding when the request runs alone; stacked, it would corrupt a
// sibling's band, so it is dropped and stays inert either way.
void append_faults(std::vector<FaultSpec>& out,
                   const std::vector<SessionFault>& faults, std::size_t layer,
                   int attempt, std::int64_t m, std::int64_t band) {
  for (const auto& f : faults) {
    if (f.layer != layer || f.execution != attempt) continue;
    if (f.spec.row < 0 || f.spec.row >= m) continue;
    FaultSpec shifted = f.spec;
    shifted.row += band;
    out.push_back(shifted);
  }
}

}  // namespace

ContinuousBatch::ContinuousBatch(const InferenceSession& session,
                                 const BatchOptions& opts)
    : session_(&session), opts_(opts) {}

// Detect-and-re-execute after a flagged attempt 0, on the row's
// request-local matrices. Mirrors the serial retry loop exactly: the
// caller has already executed attempt 0 and observed its check flag. On
// return `c_local` holds the accepted — or, after budget exhaustion, the
// surrendered — output.
void ContinuousBatch::recover_row(const Row& row, std::size_t layer_index,
                                  const Matrix<half_t>& a_local,
                                  Matrix<half_t>& c_local,
                                  LayerTrace& trace) const {
  const auto& layer = session_->layers_[layer_index];
  const SessionOptions& sopts = session_->options();
  ++trace.detections;
  int attempt = 0;
  while (true) {
    if (attempt >= sopts.max_retries) {
      // Retry budget exhausted: surrender the flagged output.
      trace.unrecovered = true;
      break;
    }
    ++attempt;
    FunctionalOptions fopts;
    fopts.parallel = opts_.parallel;
    append_faults(fopts.faults, row.faults, layer_index, attempt,
                  layer.entry.layer.gemm.m, 0);
    session_->layer_gemm(layer_index, a_local, c_local, fopts);
    ++trace.executions;
    if (!session_->check_layer(layer, a_local, c_local)) break;
    ++trace.detections;
  }
}

std::int64_t ContinuousBatch::admit(BatchRequest request,
                                    std::size_t first_layer) {
  const auto& layers = session_->layers_;
  const SessionOptions& sopts = session_->options();
  const std::size_t num_layers = layers.size();
  AIFT_CHECK(first_layer < num_layers);
  const GemmShape& first = layers[first_layer].entry.layer.gemm;
  AIFT_CHECK_MSG(request.input.rows() == first.m &&
                     request.input.cols() == first.k,
                 "request " << next_id_ << ": layer " << first_layer
                            << " input is " << request.input.rows() << "x"
                            << request.input.cols() << ", plan expects "
                            << first.m << "x" << first.k);
  // A fault addressed to a layer this row never executes — or to an
  // execution attempt past the retry budget, which can never occur —
  // would silently inject nothing and report as "masked"; reject the
  // mistyped site instead.
  for (const auto& f : request.faults) {
    AIFT_CHECK_MSG(f.layer >= first_layer && f.layer < num_layers,
                   "request " << next_id_ << ": fault targets layer "
                              << f.layer << ", but this row executes layers ["
                              << first_layer << ", " << num_layers << ")");
    AIFT_CHECK_MSG(f.execution >= 0 && f.execution <= sopts.max_retries,
                   "request " << next_id_ << ": fault targets execution "
                              << "attempt " << f.execution
                              << ", but attempts are 0.." << sopts.max_retries
                              << " under the retry budget");
  }
  Row row;
  row.id = next_id_++;
  row.first_layer = first_layer;
  row.cursor = first_layer;
  row.a = std::move(request.input);
  row.faults = std::move(request.faults);
  row.res.layers.reserve(num_layers - first_layer);
  rows_.push_back(std::move(row));
  return rows_.back().id;
}

std::vector<std::pair<std::int64_t, SessionResult>>
ContinuousBatch::take_finished() {
  return std::move(finished_);
}

void ContinuousBatch::step() {
  if (rows_.empty()) return;
  const auto& layers = session_->layers_;
  const SessionOptions& sopts = session_->options();
  const std::size_t num_layers = layers.size();

  // Rows grouped by layer cursor (ascending layer, admission order within
  // a group — mid-flight joins put rows at heterogeneous cursors), plus
  // the rows whose deferred check of the previous boundary must drain.
  std::map<std::size_t, std::vector<std::size_t>> groups;
  std::vector<std::size_t> drain;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].cursor < num_layers) groups[rows_[i].cursor].push_back(i);
    if (rows_[i].pending) drain.push_back(i);
  }

  // Drains row `drain[t]`'s deferred check against its retained operands.
  // Runs co-scheduled with this step's first GEMM (disjoint slots per row).
  const auto drain_check = [&](std::int64_t t) {
    Row& row = rows_[drain[static_cast<std::size_t>(t)]];
    const auto& layer = layers[row.cursor - 1];
    row.flagged = session_->check_layer(layer, row.prev_a, row.prev_c) ? 1 : 0;
    row.drained_digest =
        digest_rows(row.prev_c, 0, layer.entry.layer.gemm.m);
  };

  // Phase 1 — one stacked GEMM per cursor group, the previous boundary's
  // deferred verifications co-scheduled into the first group's parallel
  // region: the checksum reductions of one layer hide behind the next
  // layer's compute (§2.5 step 5). Checks of already-retired rows drain
  // behind GEMMs of rows admitted after them — the cross-batch overlap.
  std::vector<Matrix<half_t>> outputs(rows_.size());
  bool checks_scheduled = drain.empty();
  for (const auto& [li, members] : groups) {
    const auto& layer = layers[li];
    const GemmShape& shape = layer.entry.layer.gemm;
    FunctionalOptions gopts;
    gopts.parallel = opts_.parallel;
    for (std::size_t g = 0; g < members.size(); ++g) {
      append_faults(gopts.faults, rows_[members[g]].faults, li, 0, shape.m,
                    static_cast<std::int64_t>(g) * shape.m);
    }
    if (!checks_scheduled) {
      gopts.extra_tasks = static_cast<std::int64_t>(drain.size());
      gopts.extra_task = drain_check;
      checks_scheduled = true;
    }
    if (members.size() == 1) {
      // A group of one needs no band stacking: the row's matrices feed the
      // GEMM directly (keeps the facade path cheap).
      Row& row = rows_[members.front()];
      Matrix<half_t> c(shape.m, shape.n);
      session_->layer_gemm(li, row.a, c, gopts);
      outputs[members.front()] = std::move(c);
    } else {
      const auto b = static_cast<std::int64_t>(members.size());
      Matrix<half_t> stacked_a(b * shape.m, shape.k);
      for (std::int64_t g = 0; g < b; ++g) {
        paste_rows(stacked_a, rows_[members[static_cast<std::size_t>(g)]].a,
                   g * shape.m);
      }
      Matrix<half_t> stacked_c(b * shape.m, shape.n);
      session_->layer_gemm(li, stacked_a, stacked_c, gopts);
      for (std::int64_t g = 0; g < b; ++g) {
        outputs[members[static_cast<std::size_t>(g)]] =
            copy_rows(stacked_c, g * shape.m, shape.m);
      }
    }
  }
  if (!checks_scheduled) {
    // Retirement-only step: every row is past its last layer, so the final
    // checks have no GEMM to hide behind (the closed-batch final drain).
    const auto n = static_cast<std::int64_t>(drain.size());
    if (opts_.parallel) {
      parallel_for(0, n, drain_check);
    } else {
      serial_for(0, n, drain_check);
    }
  }
  stats_.deferred_checks += static_cast<std::int64_t>(drain.size());
  if (!groups.empty()) {
    for (const std::size_t i : drain) {
      if (rows_[i].cursor >= num_layers) ++stats_.cross_batch_overlapped;
    }
  }

  // Phase 2 — resolve the drained checks strictly in admission order. A
  // clean check commits the digest; a flagged one rewinds only that row:
  // synchronous recovery from its retained input, and — when the row
  // already executed this step's layer speculatively — that execution is
  // flushed and redone from the recovered activation.
  for (const std::size_t i : drain) {
    Row& row = rows_[i];
    row.pending = false;
    const std::size_t checked = row.cursor - 1;
    LayerTrace& trace = row.res.layers[checked - row.first_layer];
    if (row.flagged == 0) {
      trace.output_digest = row.drained_digest;
      continue;
    }
    ++stats_.rewinds;
    recover_row(row, checked, row.prev_a, row.prev_c, trace);
    trace.output_digest =
        digest_rows(row.prev_c, 0, layers[checked].entry.layer.gemm.m);
    if (row.cursor < num_layers) {
      ++stats_.flushed_executions;
      const auto& layer = layers[row.cursor];
      const GemmShape& shape = layer.entry.layer.gemm;
      row.a = activate_and_repack(row.prev_c, sopts.activation, shape.m,
                                  shape.k);
      Matrix<half_t> c(shape.m, shape.n);
      FunctionalOptions fopts;
      fopts.parallel = opts_.parallel;
      append_faults(fopts.faults, row.faults, row.cursor, /*attempt=*/0,
                    shape.m, 0);
      session_->layer_gemm(row.cursor, row.a, c, fopts);
      outputs[i] = std::move(c);
    }
  }

  // Phase 3 — this step's own verification, per executed row in admission
  // order. Global ABFT defers into the next boundary (or the final drain);
  // the in-kernel schemes check synchronously, exactly like the serial
  // path.
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    Row& row = rows_[i];
    if (row.cursor >= num_layers) continue;  // retirement-only row
    const auto& layer = layers[row.cursor];
    const GemmShape& shape = layer.entry.layer.gemm;
    Matrix<half_t>& c = outputs[i];
    LayerTrace trace;
    trace.name = layer.entry.layer.name;
    trace.scheme = layer.entry.scheme();
    trace.executions = 1;
    if (opts_.defer_verification &&
        layer.entry.scheme() == Scheme::global_abft) {
      row.pending = true;
    } else if (layer.entry.scheme() == Scheme::none) {
      trace.output_digest = digest_rows(c, 0, shape.m);
    } else {
      ++stats_.synchronous_checks;
      if (session_->check_layer(layer, row.a, c)) {
        recover_row(row, row.cursor, row.a, c, trace);
      }
      trace.output_digest = digest_rows(c, 0, shape.m);
    }
    row.res.layers.push_back(std::move(trace));
  }

  // Phase 4 — advance every executed row past the boundary, retaining its
  // operands one step for the deferred drain, and derive the next layer's
  // activation (speculative for rows with a pending check). The per-row
  // activations are independent, so they fan out over the pool.
  std::vector<std::size_t> activate;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    Row& row = rows_[i];
    if (row.cursor >= num_layers) continue;
    row.prev_a = std::move(row.a);
    row.prev_c = std::move(outputs[i]);
    ++row.cursor;
    if (row.cursor < num_layers) activate.push_back(i);
  }
  const auto activate_body = [&](std::int64_t t) {
    Row& row = rows_[activate[static_cast<std::size_t>(t)]];
    const GemmShape& next = layers[row.cursor].entry.layer.gemm;
    row.a = activate_and_repack(row.prev_c, sopts.activation, next.m, next.k);
  };
  if (opts_.parallel) {
    parallel_for(0, static_cast<std::int64_t>(activate.size()),
                 activate_body);
  } else {
    serial_for(0, static_cast<std::int64_t>(activate.size()), activate_body);
  }

  // Retirement — rows past their last layer with no check outstanding
  // leave the batch. A row whose final check is still deferred stays one
  // more step, its reduction hiding behind the next step's GEMMs.
  for (auto it = rows_.begin(); it != rows_.end();) {
    if (it->cursor >= num_layers && !it->pending) {
      it->res.output = std::move(it->prev_c);
      finished_.emplace_back(it->id, std::move(it->res));
      it = rows_.erase(it);
    } else {
      ++it;
    }
  }
}

BatchResult BatchExecutor::run(const std::vector<BatchRequest>& batch,
                               const BatchOptions& opts) const {
  return run_from(0, batch, opts);
}

BatchResult BatchExecutor::run_from(std::size_t first_layer,
                                    const std::vector<BatchRequest>& batch,
                                    const BatchOptions& opts) const {
  AIFT_CHECK_MSG(!batch.empty(), "cannot execute an empty batch");
  ContinuousBatch cont(session_, opts);
  for (const auto& request : batch) {
    (void)cont.admit(request, first_layer);
  }
  while (!cont.idle()) cont.step();
  BatchResult out;
  out.stats = cont.stats();
  out.requests.resize(batch.size());
  for (auto& [id, res] : cont.take_finished()) {
    out.requests[static_cast<std::size_t>(id)] = std::move(res);
  }
  return out;
}

}  // namespace aift
