#pragma once
// Batched serving engine — the "serve" stage of the plan -> compile ->
// execute -> serve split.
//
// A BatchExecutor marches B requests through one InferenceSession's plan
// layer-by-layer: every layer runs as a single functional_gemm over the
// batch's stacked rows (the requests share weights and the tile-padding
// waste of small-M serving shapes is amortized across the batch; each
// request's faults shift into its row band), and each global-ABFT layer's
// output-checksum reduction is deferred into a verification queue that
// drains *while the next layer's GEMM runs* — the overlap the paper
// exploits to hide ABFT cost behind unexploited compute in memory-bound
// GEMMs (§2.5 step 5).
//
// A drained check that flags rewinds only the faulted request: its
// speculative next-layer execution is flushed, the layer re-executes from
// the request's retained clean input under the session's retry budget, and
// the request rejoins the batch. Sibling requests are never re-executed.
//
// The batch need not be closed: ContinuousBatch is the streaming core the
// executor itself runs on. Rows are admitted individually at any layer
// boundary, advance one layer per step() grouped into stacked GEMMs by
// layer cursor, and retire independently — a retiring row's final deferred
// check drains behind whatever GEMM the *remaining* (or newly admitted)
// rows run next, so the last layer's reduction of batch N hides behind
// batch N+1's first GEMM instead of dying at the batch boundary.
//
// The invariant that makes all of this safe is testable and CTest-pinned:
// outputs and per-layer traces are bit-identical to running the B requests
// sequentially through InferenceSession::run, at any batch size, at any
// AIFT_NUM_THREADS, with verification deferred or synchronous, and under
// any join/leave interleaving of the continuous form.

#include <cstdint>
#include <utility>
#include <vector>

#include "common/matrix.hpp"
#include "runtime/session.hpp"

namespace aift {

/// One request of a batch: its input activation plus the faults to inject
/// into its executions (SessionFault::layer is absolute, as in run_from).
struct BatchRequest {
  Matrix<half_t> input;
  std::vector<SessionFault> faults;
};

struct BatchOptions {
  /// Fan the stacked GEMMs, verification drains and inter-layer flow out
  /// over the worker pool. Parallel and serial execution are bit-identical.
  bool parallel = true;
  /// Defer each global-ABFT layer's output-checksum reduction and drain it
  /// during the next layer's GEMM (the paper's overlap). When false every
  /// check runs synchronously after its layer, like InferenceSession::run.
  /// Both modes produce bit-identical results and traces — deferral only
  /// moves *when* checks execute, never what they compute.
  bool defer_verification = true;
};

/// Engine-level counters of one batched run (the per-request architectural
/// story — detections, retries, digests — lives in the SessionResults).
struct BatchStats {
  std::int64_t deferred_checks = 0;   ///< checks drained behind a later GEMM
  std::int64_t synchronous_checks = 0;  ///< attempt-0 checks run in-line
  std::int64_t rewinds = 0;  ///< deferred detections that rolled a row back
  /// Speculative next-layer executions discarded by a rewind (never counted
  /// in any LayerTrace — traces record architecturally retired executions).
  std::int64_t flushed_executions = 0;
  /// Deferred checks of already-retired rows drained behind a later step's
  /// GEMM — the cross-batch overlap continuous batching unlocks. A closed
  /// run()/run_from() batch retires all rows together, so its final drain
  /// has no GEMM to hide behind and this stays 0 there.
  std::int64_t cross_batch_overlapped = 0;

  friend bool operator==(const BatchStats&, const BatchStats&) = default;
};

struct BatchResult {
  /// Element r is exactly what InferenceSession::run (or run_from) would
  /// return for request r, bit for bit — output, traces, digests.
  std::vector<SessionResult> requests;
  BatchStats stats;
};

/// The streaming core of the batched engine: an open batch that rows join
/// and leave at layer boundaries. Each step() advances every in-flight row
/// one layer — rows sharing a layer cursor execute as one stacked GEMM,
/// rows at different cursors (mid-flight joins) run as separate per-layer
/// groups in the same step — and drains all deferred checks of the
/// previous boundary behind the first GEMM it issues. A row whose final
/// deferred check is still pending stays in flight one extra step, so its
/// last-layer reduction hides behind the next step's GEMMs (including
/// GEMMs of rows admitted after it: the cross-batch overlap).
///
/// Admission at a layer boundary never changes a row's SessionResult:
/// every row retires bit-identical to a standalone InferenceSession::run,
/// whatever joins or leaves around it and at any AIFT_NUM_THREADS.
///
/// Not thread-safe: one ContinuousBatch is driven by one thread at a time.
class ContinuousBatch {
 public:
  /// The session must outlive the batch.
  explicit ContinuousBatch(const InferenceSession& session,
                           const BatchOptions& opts = {});

  /// Admits a request whose input feeds layer `first_layer`, joining the
  /// batch at the current layer boundary. Validates like run_from and
  /// returns the row id (admission order, starting at 0) that
  /// take_finished() reports the result under.
  std::int64_t admit(BatchRequest request, std::size_t first_layer = 0);

  /// Advances every in-flight row one layer boundary (no-op when idle).
  void step();

  /// No rows in flight (finished results may still be waiting to be taken).
  [[nodiscard]] bool idle() const { return rows_.empty(); }
  /// Rows currently in flight (admitted, not yet retired).
  [[nodiscard]] std::int64_t in_flight() const {
    return static_cast<std::int64_t>(rows_.size());
  }

  /// Retired rows in retirement order, each bit-identical to a standalone
  /// InferenceSession::run of the same request. Clears the finished set.
  [[nodiscard]] std::vector<std::pair<std::int64_t, SessionResult>>
  take_finished();

  /// Counters accumulated across every step so far.
  [[nodiscard]] const BatchStats& stats() const { return stats_; }

 private:
  struct Row {
    std::int64_t id = 0;
    std::size_t first_layer = 0;
    std::size_t cursor = 0;   // next layer this row executes
    Matrix<half_t> a;         // input activation of layer `cursor`
    std::vector<SessionFault> faults;
    SessionResult res;
    // Deferred global-ABFT check of layer cursor-1, plus the operands it
    // runs against (already request-local — no band extraction needed).
    bool pending = false;
    Matrix<half_t> prev_a;
    Matrix<half_t> prev_c;
    char flagged = 0;           // drain slot (disjoint per row)
    double drained_digest = 0;  // drain slot (disjoint per row)
  };

  void recover_row(const Row& row, std::size_t layer,
                   const Matrix<half_t>& a_local, Matrix<half_t>& c_local,
                   LayerTrace& trace) const;

  const InferenceSession* session_;
  BatchOptions opts_;
  std::int64_t next_id_ = 0;
  std::vector<Row> rows_;  // in-flight, admission order
  std::vector<std::pair<std::int64_t, SessionResult>> finished_;
  BatchStats stats_;
};

class BatchExecutor {
 public:
  /// The session must outlive the executor. All state lives per-run, so
  /// one executor may serve concurrent run() calls.
  explicit BatchExecutor(const InferenceSession& session)
      : session_(session) {}

  [[nodiscard]] const InferenceSession& session() const { return session_; }

  /// Runs the whole batch through every planned layer.
  [[nodiscard]] BatchResult run(const std::vector<BatchRequest>& batch,
                                const BatchOptions& opts = {}) const;

  /// Runs only the layer suffix [first_layer, num_layers), every request's
  /// input feeding layer first_layer — the batched form of
  /// InferenceSession::run_from (campaigns batch trials that share a
  /// faulted layer this way). Implemented as a ContinuousBatch that admits
  /// the whole batch up front and steps it to quiescence.
  [[nodiscard]] BatchResult run_from(std::size_t first_layer,
                                     const std::vector<BatchRequest>& batch,
                                     const BatchOptions& opts = {}) const;

  /// Opens a continuous batch over this executor's session, ready for
  /// mid-flight admission (the serving engine's continuous mode).
  [[nodiscard]] ContinuousBatch begin(const BatchOptions& opts = {}) const {
    return ContinuousBatch(session_, opts);
  }

 private:
  const InferenceSession& session_;
};

}  // namespace aift
