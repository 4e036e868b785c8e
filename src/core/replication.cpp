#include "core/replication.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace aift {

ThreadReplication::ThreadReplication(TileConfig tile, ReplicationKind kind,
                                     ErrorBoundParams bound)
    : tile_(tile), kind_(kind), bound_(bound), lanes_(tile_) {}

ThreadLevelResult ThreadReplication::check(const Matrix<half_t>& a,
                                           const Matrix<half_t>& b,
                                           const Matrix<half_t>& c) const {
  AIFT_CHECK(a.cols() == b.rows());
  AIFT_CHECK(c.rows() == a.rows() && c.cols() == b.cols());
  const std::int64_t m = a.rows(), n = b.cols(), k = a.cols();

  const std::int64_t bm = (m + tile_.mb - 1) / tile_.mb;
  const std::int64_t bn = (n + tile_.nb - 1) / tile_.nb;
  const int warps_m = tile_.mb / tile_.mw;
  const int warps_n = tile_.nb / tile_.nw;

  // Per-block slots, merged in grid order below: the failure order is the
  // same at any worker count.
  std::vector<std::vector<ThreadCheckFailure>> block_failures(
      static_cast<std::size_t>(bm * bn));
  std::vector<std::int64_t> block_threads(static_cast<std::size_t>(bm * bn));

  parallel_for(0, bm * bn, [&](std::int64_t block) {
    const std::int64_t bi = block / bn;
    const std::int64_t bj = block % bn;
    auto& local_failures = block_failures[static_cast<std::size_t>(block)];
    std::int64_t local_threads = 0;

    for (int wm = 0; wm < warps_m; ++wm) {
      for (int wn = 0; wn < warps_n; ++wn) {
        const std::int64_t wr0 = bi * tile_.mb + wm * tile_.mw;
        const std::int64_t wc0 = bj * tile_.nb + wn * tile_.nw;
        if (wr0 >= m || wc0 >= n) continue;

        for (int lane = 0; lane < 32; ++lane) {
          // The thread's owned rows/columns, clipped to the problem: a
          // prefix of each ascending list.
          const auto rows = lanes_.rows(lane).first(
              static_cast<std::size_t>(lanes_.rows_below(lane, m - wr0)));
          const auto cols = lanes_.cols(lane).first(
              static_cast<std::size_t>(lanes_.cols_below(lane, n - wc0)));
          if (rows.empty() || cols.empty()) continue;
          ++local_threads;

          if (kind_ == ReplicationKind::traditional) {
            // Element-wise duplicate-and-compare.
            for (const int r : rows) {
              const std::int64_t row = wr0 + r;
              for (const int cc : cols) {
                const std::int64_t col = wc0 + cc;
                double redo = 0.0;
                for (std::int64_t kk = 0; kk < k; ++kk) {
                  redo += a(row, kk).to_float() * b(kk, col).to_float();
                }
                const double v = c(row, col).to_float();
                const double residual = std::abs(redo - v);
                const double threshold =
                    detection_threshold(std::abs(v), bound_);
                // Non-finite stored outputs are faults: finite FP16 inputs
                // cannot overflow the FP32 accumulator.
                if (residual > threshold || !std::isfinite(v)) {
                  local_failures.push_back(ThreadCheckFailure{
                      bi, bj, wm, wn, lane, row, residual, threshold});
                }
              }
            }
          } else {
            // Single-accumulation: the replicated MMAs accumulate every
            // product into one register set; compare aggregate sums.
            double redo_sum = 0.0;
            for (std::int64_t kk = 0; kk < k; ++kk) {
              double a_dot_b = 0.0;
              for (const int r : rows) {
                const double av = a(wr0 + r, kk).to_float();
                for (const int cc : cols) {
                  a_dot_b += av * b(kk, wc0 + cc).to_float();
                }
              }
              redo_sum += a_dot_b;
            }
            double out_sum = 0.0, out_abs = 0.0;
            for (const int r : rows) {
              for (const int cc : cols) {
                const double v = c(wr0 + r, wc0 + cc).to_float();
                out_sum += v;
                out_abs += std::abs(v);
              }
            }
            const double residual = std::abs(redo_sum - out_sum);
            const double threshold = detection_threshold(out_abs, bound_);
            if (residual > threshold || !std::isfinite(out_sum)) {
              local_failures.push_back(ThreadCheckFailure{bi, bj, wm, wn, lane,
                                                          -1, residual,
                                                          threshold});
            }
          }
        }
      }
    }

    block_threads[static_cast<std::size_t>(block)] = local_threads;
  });

  ThreadLevelResult result;
  for (std::size_t block = 0; block < block_failures.size(); ++block) {
    result.threads_checked += block_threads[block];
    for (const auto& f : block_failures[block]) result.failures.push_back(f);
  }
  result.fault_detected = !result.failures.empty();
  return result;
}

}  // namespace aift
