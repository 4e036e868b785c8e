#include "core/thread_level_abft.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/scratch.hpp"
#include "core/skinny_product.hpp"

namespace aift {
namespace {

/// C rows per one-sided work item: two of the widest register tiles, or
/// one for short (serving-sized) checks, so those still fan out.
constexpr std::int64_t kPanelRows = 8;
constexpr std::int64_t kShortPanelRows = 4;
constexpr std::int64_t kShortCheckRows = 64;

/// Estimated check work below which panels run serially on the caller.
constexpr std::int64_t kParallelWorkNs = 32'000;

/// Lanes per warp that share one column set (PTX threadID_in_group).
constexpr int kColumnSets = 4;

std::int64_t warp_columns(const TileConfig& tile, std::int64_t n) {
  return (n + tile.nw - 1) / tile.nw;
}

// One warp column's sums per column set, each over its lanes' owned
// in-range columns in ascending order (row after row when given several).
struct ColumnSetSums {
  double sum[kColumnSets] = {};
  double abs[kColumnSets] = {};
  int seen[kColumnSets] = {};

  void add_row(const half_t* crow, std::int64_t wc0, std::int64_t n,
               const LaneMap& lanes, const float* f16) {
    const auto nw = static_cast<std::int64_t>(lanes.col_tig.size());
    if (wc0 + nw <= n) {
      // Interior warp column: all four sets own nt columns; run the four
      // chains side by side.
      for (int q = 0; q < lanes.nt; ++q) {
        for (int tig = 0; tig < kColumnSets; ++tig) {
          const double v =
              f16[crow[wc0 + lanes.tig_cols[static_cast<std::size_t>(
                                 tig * lanes.nt + q)]]
                      .bits()];
          sum[tig] += v;
          abs[tig] += std::abs(v);
        }
      }
      for (int& cnt : seen) cnt += lanes.nt;
      return;
    }
    for (std::int64_t o = 0; o < n - wc0; ++o) {
      const int tig = lanes.col_tig[static_cast<std::size_t>(o)];
      const double v = f16[crow[wc0 + o].bits()];
      sum[tig] += v;
      abs[tig] += std::abs(v);
      ++seen[tig];
    }
  }
  /// Whether the column set owns any in-range column (else its lanes are
  /// not checked).
  [[nodiscard]] bool owned(int tig) const { return seen[tig] > 0; }
};

// S (see prepared_sums_): per k row, per warp column, per column set, the
// owned in-range B columns summed in ascending order from 0.0 — the same
// sums a lane forms over its outputs of C.
void fill_lane_sums(const Matrix<half_t>& b, const TileConfig& tile,
                    const LaneMap& lanes, double* s) {
  const std::int64_t k = b.rows(), n = b.cols();
  const std::int64_t wcols = warp_columns(tile, n);
  const float* f16 = f16_to_f32_table();
  for (std::int64_t kk = 0; kk < k; ++kk) {
    double* srow = s + kk * kColumnSets * wcols;
    for (std::int64_t w = 0; w < wcols; ++w) {
      ColumnSetSums sums;
      sums.add_row(b.data() + kk * n, w * tile.nw, n, lanes, f16);
      for (int tig = 0; tig < kColumnSets; ++tig) {
        srow[w * kColumnSets + tig] = sums.sum[tig];  // 0.0 where none owned
      }
    }
  }
}

// Per-(unit, S column) verdicts of one check, written by the panel that
// owns the unit and read by the grid-order emission. A unit is a C row
// (one-sided) or a (warp row, lane group) pair (two-sided).
struct Verdicts {
  double* residual;
  double* threshold;
  unsigned char* failed;

  static Verdicts carve(std::int64_t entries) {
    const auto bytes = static_cast<std::size_t>(entries);
    auto* base = static_cast<unsigned char*>(
        scratch_bytes(ScratchSlot::check_verdicts, bytes * 17));
    return Verdicts{reinterpret_cast<double*>(base),
                    reinterpret_cast<double*>(base + bytes * 8),
                    base + bytes * 16};
  }

  // Returns whether the entry failed.
  bool record(std::int64_t idx, double abft, double out_sum, double out_abs,
              const ErrorBoundParams& bound) const {
    const double res = std::abs(abft - out_sum);
    const double thr = detection_threshold(out_abs, bound);
    // Non-finite outputs (overflow from a corrupted exponent) are faults by
    // definition: finite FP16 inputs cannot produce them.
    const bool fail = res > thr || !std::isfinite(out_sum);
    residual[idx] = res;
    threshold[idx] = thr;
    failed[idx] = fail ? 1 : 0;
    return fail;
  }
};

}  // namespace

ThreadLevelAbft::ThreadLevelAbft(TileConfig tile, ThreadAbftSide side,
                                 ErrorBoundParams bound)
    : tile_(tile), side_(side), bound_(bound), lanes_(tile_) {}

void ThreadLevelAbft::prepare(const Matrix<half_t>& b) {
  prepared_sums_.resize(static_cast<std::size_t>(
      b.rows() * kColumnSets * warp_columns(tile_, b.cols())));
  fill_lane_sums(b, tile_, lanes_, prepared_sums_.data());
  prepared_k_ = b.rows();
  prepared_n_ = b.cols();
}

ThreadLevelResult ThreadLevelAbft::check(const Matrix<half_t>& a,
                                         const Matrix<half_t>& b,
                                         const Matrix<half_t>& c) const {
  AIFT_CHECK(a.cols() == b.rows());
  AIFT_CHECK(c.rows() == a.rows() && c.cols() == b.cols());
  const std::int64_t m = a.rows(), n = b.cols(), k = a.cols();
  const bool one_sided = side_ == ThreadAbftSide::one_sided;
  const std::int64_t ld = kColumnSets * warp_columns(tile_, n);
  const std::int64_t warp_rows = (m + tile_.mw - 1) / tile_.mw;
  const std::int64_t units = one_sided ? m : warp_rows * 8;

  // Bt row checksums (§5.2.1): the prepared weight table when the session
  // built one, recomputed online (identical order, identical bits) if not.
  const double* s = prepared_sums_.data();
  if (prepared_k_ != k || prepared_n_ != n) {
    double* online = scratch_array<double>(ScratchSlot::check_sums,
                                           static_cast<std::size_t>(k * ld));
    fill_lane_sums(b, tile_, lanes_, online);
    s = online;
  }

  const Verdicts verdicts = Verdicts::carve(units * ld);
  std::atomic<std::int64_t> failures{0};
  const half_t* adata = a.data();
  const half_t* cdata = c.data();
  const float* f16 = f16_to_f32_table();

  // A panel is a run of units: up to panel_rows C rows (one-sided), or
  // the 8 lane groups of one warp row (two-sided). Each panel builds its
  // rows of the product's left side once, runs the redundant products as
  // one L·S panel, and sums the matching outputs of C. FP16 decodes read
  // the exact 64K-entry table (f16_to_f32_table).
  const std::int64_t panel_rows =
      m < kShortCheckRows ? kShortPanelRows : kPanelRows;
  const std::int64_t panels =
      one_sided ? (m + panel_rows - 1) / panel_rows : warp_rows;
  // Small checks (serving-sized layers) run on the calling thread: waking
  // a worker costs more than the work. About 16 products and one output
  // per nanosecond on the hosts this was sized on.
  const std::int64_t work_ns = (units * k * ld) / 16 + m * n;
  const auto body = [&](std::int64_t panel) {
    const std::int64_t unit0 = one_sided ? panel * panel_rows : panel * 8;
    const std::int64_t wr0 = panel * tile_.mw;  // two-sided warp row
    const std::int64_t nunits = one_sided ? std::min(panel_rows, m - unit0) : 8;
    // Unit u's C rows: one-sided the row itself; two-sided lane group u's
    // owned in-range rows, ascending.
    const auto unit_rows = [&](std::int64_t u) {
      return one_sided ? 1 : lanes_.rows_below(static_cast<int>(u) * 4, m - wr0);
    };
    const auto unit_row = [&](std::int64_t u, int i) -> std::int64_t {
      return one_sided ? unit0 + u : wr0 + lanes_.rows(static_cast<int>(u) * 4)[i];
    };

    double* l = scratch_array<double>(ScratchSlot::check_lhs,
                                      static_cast<std::size_t>(nunits * k));
    for (std::int64_t u = 0; u < nunits; ++u) {
      double* lu = l + u * k;
      if (one_sided) {
        // abft[r] = sum_k A[r][k] * s[k].
        const half_t* arow = adata + unit_row(u, 0) * k;
        for (std::int64_t kk = 0; kk < k; ++kk) lu[kk] = f16[arow[kk].bits()];
      } else {
        // Two-sided: additionally checksum At over the group's rows (from
        // 0.0, ascending), collapsing the lane's redundant computation to a
        // single running scalar per column set.
        std::fill(lu, lu + k, 0.0);
        for (int i = 0; i < unit_rows(u); ++i) {
          const half_t* arow = adata + unit_row(u, i) * k;
          for (std::int64_t kk = 0; kk < k; ++kk) lu[kk] += f16[arow[kk].bits()];
        }
      }
    }
    double* d = scratch_array<double>(ScratchSlot::check_product,
                                      static_cast<std::size_t>(nunits * ld));
    skinny_product({l, k, s, ld, d, ld, nunits, ld, k});

    // Compare each (unit, column set) against the sum of its lanes' outputs.
    std::int64_t local_failures = 0;
    for (std::int64_t u = 0; u < nunits; ++u) {
      for (std::int64_t w = 0; w < ld / kColumnSets; ++w) {
        ColumnSetSums sums;
        for (int i = 0; i < unit_rows(u); ++i) {
          sums.add_row(cdata + unit_row(u, i) * n, w * tile_.nw, n, lanes_, f16);
        }
        for (int tig = 0; tig < kColumnSets; ++tig) {
          if (!sums.owned(tig)) continue;
          const std::int64_t j = w * kColumnSets + tig;
          local_failures +=
              verdicts.record((unit0 + u) * ld + j, d[u * ld + j],
                              sums.sum[tig], sums.abs[tig], bound_);
        }
      }
    }
    failures.fetch_add(local_failures, std::memory_order_relaxed);
  };
  if (work_ns >= kParallelWorkNs) {
    parallel_for(0, panels, body);
  } else {
    serial_for(0, panels, body);
  }

  // Count the checked threads and, when any verdict failed, report the
  // failures in grid order (block, warp, lane, row): the same order at any
  // worker count.
  const bool any_failed = failures.load(std::memory_order_relaxed) > 0;
  const std::int64_t bm = (m + tile_.mb - 1) / tile_.mb;
  const std::int64_t bn = (n + tile_.nb - 1) / tile_.nb;
  const int warps_m = tile_.mb / tile_.mw;
  const int warps_n = tile_.nb / tile_.nw;
  ThreadLevelResult result;
  for (std::int64_t bi = 0; bi < bm; ++bi) {
    for (std::int64_t bj = 0; bj < bn; ++bj) {
      for (int wm = 0; wm < warps_m; ++wm) {
        for (int wn = 0; wn < warps_n; ++wn) {
          const std::int64_t wr0 = bi * tile_.mb + wm * tile_.mw;
          const std::int64_t wc0 = bj * tile_.nb + wn * tile_.nw;
          if (wr0 >= m || wc0 >= n) continue;  // fully out-of-range warp
          if (!any_failed) {
            result.threads_checked += lanes_.lanes_owning(m - wr0, n - wc0);
            continue;
          }
          const std::int64_t j0 = (wc0 / tile_.nw) * kColumnSets;
          for (int lane = 0; lane < 32; ++lane) {
            const int rows_in = lanes_.rows_below(lane, m - wr0);
            if (rows_in == 0 || lanes_.cols_below(lane, n - wc0) == 0) continue;
            ++result.threads_checked;
            const std::int64_t j = j0 + lane % kColumnSets;
            const auto emit = [&](std::int64_t idx, std::int64_t row) {
              if (verdicts.failed[idx] == 0) return;
              result.failures.push_back(ThreadCheckFailure{
                  bi, bj, wm, wn, lane, row, verdicts.residual[idx],
                  verdicts.threshold[idx]});
            };
            if (one_sided) {
              for (int i = 0; i < rows_in; ++i) {
                const std::int64_t row = wr0 + lanes_.rows(lane)[i];
                emit(row * ld + j, row);
              }
            } else {
              emit(((wr0 / tile_.mw) * 8 + lane / 4) * ld + j, -1);
            }
          }
        }
      }
    }
  }
  result.fault_detected = !result.failures.empty();
  return result;
}

}  // namespace aift
