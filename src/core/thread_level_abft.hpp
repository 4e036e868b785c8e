#pragma once
// Functional thread-level ABFT (paper §5.1–§5.2).
//
// Each GPU thread owns a scattered Mt x Nt sub-tile of its warp's output
// (rows lane_rows(), columns lane_cols() of tile_config.hpp — the PTX
// m16n8k8 accumulator distribution). Thread-level ABFT performs the
// checksum arithmetic entirely within that sub-problem, sharing the
// operand loads the thread already performs and storing nothing:
//
//   one-sided (§5.2.2): maintain the row checksum of the thread's Bt
//     columns (s[k] = sum of owned B[k][*]) and accumulate the redundant
//     products abft[r] += A[r][k]*s[k] via extra MMAs; at the end compare
//     abft[r] with the sum of the thread's outputs in row r.
//   two-sided: additionally checksum At's rows, collapsing the redundant
//     computation to a single running scalar.
//
// check() replays that arithmetic against a possibly-faulty C and reports
// every failing thread with its location — the fault is localized to a
// specific (block, warp, lane, row), unlike global ABFT's single bit.
//
// On the host the replay is one skinny product (core/skinny_product).
// Only lane % 4 picks a lane's columns, so a warp column has just four
// distinct checksum vectors s[k]; gathered over every warp column they
// form S, a K x (4 * warp columns) table, and the one-sided redundant
// values of every (row, lane) are the entries of A · S. Two-sided, the
// rows of A collapse first into one checksum row per lane group. Each
// entry keeps the scalar chain — ascending k, multiply then add, in
// double — so the prepared and online checks agree to the bit.

#include <cstdint>
#include <vector>

#include "common/half.hpp"
#include "common/matrix.hpp"
#include "core/error_bound.hpp"
#include "gemm/tile_config.hpp"

namespace aift {

enum class ThreadAbftSide { one_sided, two_sided };

struct ThreadCheckFailure {
  std::int64_t block_row = 0, block_col = 0;  ///< threadblock grid coords
  int warp_m = 0, warp_n = 0;                 ///< warp coords within block
  int lane = 0;                               ///< lane within warp
  std::int64_t row = -1;  ///< global C row (one-sided localization; -1 for
                          ///< two-sided, which checks a single scalar)
  double residual = 0.0;
  double threshold = 0.0;
};

struct ThreadLevelResult {
  bool fault_detected = false;
  std::vector<ThreadCheckFailure> failures;
  std::int64_t threads_checked = 0;
};

class ThreadLevelAbft {
 public:
  ThreadLevelAbft(TileConfig tile, ThreadAbftSide side,
                  ErrorBoundParams bound = {});

  /// Verifies C (claimed to equal A*B computed with this tile config).
  [[nodiscard]] ThreadLevelResult check(const Matrix<half_t>& a,
                                        const Matrix<half_t>& b,
                                        const Matrix<half_t>& c) const;

  /// Precomputes the lane-column checksum table S for the immutable
  /// operand `b` — S is a pure function of (b, tile), so a session checking
  /// the same weights every request builds it once at construction instead
  /// of once per check. Each entry is summed in exactly the order check()
  /// sums it online, so a prepared check is bit-identical to an unprepared
  /// one. After prepare(b), check() must only be given that same `b` (it
  /// matches on dimensions alone, like a PackedOperand, and the session's
  /// per-layer checker only ever sees its own layer's weights).
  void prepare(const Matrix<half_t>& b);

  /// Whether prepare() has been called (the table serves any b with the
  /// prepared dimensions).
  [[nodiscard]] bool prepared() const { return prepared_k_ >= 0; }

  [[nodiscard]] const TileConfig& tile() const { return tile_; }
  [[nodiscard]] ThreadAbftSide side() const { return side_; }

 private:
  TileConfig tile_;
  ThreadAbftSide side_;
  ErrorBoundParams bound_;
  LaneMap lanes_;
  /// S, row-major K x (4 * warp columns): entry (k, w * 4 + tig) sums
  /// B(k, c) over the columns c that lanes with lane % 4 == tig own in warp
  /// column w, clipped to the problem (0 where none is in range). It does
  /// not depend on the block row or warp row, so it covers the whole grid.
  std::vector<double> prepared_sums_;
  std::int64_t prepared_k_ = -1;
  std::int64_t prepared_n_ = -1;
};

}  // namespace aift
