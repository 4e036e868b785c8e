#pragma once
// Hierarchical GEMM tiling (paper Figure 2, CUTLASS-style).
//
// The kernel-level M x N x K problem is decomposed into Mb x Nb
// threadblock tiles, Mw x Nw warp tiles and 16x8x8 tensor-core MMAs.
// Within each MMA, every lane of the warp owns four accumulator elements
// (two rows x two columns, PTX m16n8k8 layout); across the warp tile a
// lane therefore owns Mt = Mw/8 rows and Nt = Nw/4 columns — the "thread
// tile" over which thread-level ABFT operates (paper §5.1).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "device/device.hpp"
#include "gemm/gemm_shape.hpp"

namespace aift {

/// The tensor-core operation modeled throughout (paper §2.1).
struct MmaShape {
  static constexpr int kM = 16;
  static constexpr int kN = 8;
  static constexpr int kK = 8;
};

struct TileConfig {
  int mb = 128;  ///< threadblock tile M
  int nb = 128;  ///< threadblock tile N
  int kb = 32;   ///< K slab per mainloop iteration
  int mw = 64;   ///< warp tile M
  int nw = 64;   ///< warp tile N
  int stages = 2;  ///< shared-memory pipeline stages (double buffering)

  [[nodiscard]] bool valid() const;

  [[nodiscard]] int warps() const { return (mb / mw) * (nb / nw); }
  [[nodiscard]] int threads() const { return warps() * 32; }

  /// MMAs per warp per k8-step: (Mw/16)*(Nw/8).
  [[nodiscard]] int mmas_per_warp_step() const {
    return (mw / MmaShape::kM) * (nw / MmaShape::kN);
  }

  /// Per-lane thread-tile dimensions (elements of C owned by one thread).
  [[nodiscard]] int mt() const { return mw / 8; }
  [[nodiscard]] int nt() const { return nw / 4; }
  [[nodiscard]] int accumulators_per_thread() const { return mt() * nt(); }

  /// Estimated register usage per thread for the FP16 tensor-core
  /// mainloop: FP32 accumulators + double-buffered A/B fragments +
  /// bookkeeping (pointers, predicates, loop counters).
  [[nodiscard]] int regs_per_thread() const;

  /// Shared-memory bytes per threadblock for the software pipeline.
  [[nodiscard]] int smem_bytes(DType t) const;

  /// Threadblocks in the grid for a problem shape.
  [[nodiscard]] std::int64_t grid_blocks(const GemmShape& s) const;
  [[nodiscard]] std::int64_t grid_blocks_m(const GemmShape& s) const;
  [[nodiscard]] std::int64_t grid_blocks_n(const GemmShape& s) const;

  /// Mainloop k8-steps executed per threadblock (K padded to kb slabs).
  [[nodiscard]] std::int64_t k8_steps(const GemmShape& s) const;

  /// Rows of the warp tile owned by `lane` (size mt()).
  [[nodiscard]] std::vector<int> lane_rows(int lane) const;
  /// Columns of the warp tile owned by `lane` (size nt()).
  [[nodiscard]] std::vector<int> lane_cols(int lane) const;
  /// Lane owning warp-tile element (row, col).
  [[nodiscard]] int owner_lane(int row_in_warp, int col_in_warp) const;

  [[nodiscard]] std::string name() const;

  friend bool operator==(const TileConfig&, const TileConfig&) = default;
};

/// Every lane's owned warp-tile rows and columns, read once from
/// TileConfig::lane_rows()/lane_cols() so per-check code indexes flat
/// arrays instead of rebuilding two vectors per lane per warp. Rows depend
/// only on the PTX group (lane / 4) and columns only on the thread-in-group
/// (lane % 4); both lists ascend, so clipping a lane to the problem edge
/// keeps a prefix of them.
struct LaneMap {
  /// Throws (AIFT_CHECK) on an invalid tile.
  explicit LaneMap(const TileConfig& tile);

  int mt = 0;  ///< rows per lane
  int nt = 0;  ///< columns per lane
  std::vector<int> group_rows;  ///< [group * mt + i], group = lane / 4
  std::vector<int> tig_cols;    ///< [tig * nt + j], tig = lane % 4
  /// [warp-tile column] = the tig whose lanes own it. Each column has one
  /// owner, so walking a row's columns in order visits every tig's owned
  /// columns in its ascending order.
  std::vector<int> col_tig;

  [[nodiscard]] std::span<const int> rows(int lane) const {
    return {group_rows.data() + (lane / 4) * mt, static_cast<std::size_t>(mt)};
  }
  [[nodiscard]] std::span<const int> cols(int lane) const {
    return {tig_cols.data() + (lane % 4) * nt, static_cast<std::size_t>(nt)};
  }
  /// How many of `lane`'s rows (columns) lie below `limit`, the problem
  /// extent left past the warp's origin: the clipped prefix length.
  [[nodiscard]] int rows_below(int lane, std::int64_t limit) const;
  [[nodiscard]] int cols_below(int lane, std::int64_t limit) const;
  /// Lanes owning at least one element below (row_limit, col_limit): a
  /// lane is a (group, tig) pair, so this is (groups with a row in range)
  /// x (tigs with a column in range).
  [[nodiscard]] int lanes_owning(std::int64_t row_limit,
                                 std::int64_t col_limit) const;
};

/// The candidate configurations enumerated by the pre-deployment profiler
/// (paper §5.3: mirrors the CUTLASS profiler's tile sweep).
[[nodiscard]] const std::vector<TileConfig>& candidate_tiles();

}  // namespace aift
