#include "gemm/tile_config.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace aift {

bool TileConfig::valid() const {
  if (mb <= 0 || nb <= 0 || kb <= 0 || mw <= 0 || nw <= 0) return false;
  if (mb % mw != 0 || nb % nw != 0) return false;
  if (mw % MmaShape::kM != 0 || nw % MmaShape::kN != 0) return false;
  if (kb % MmaShape::kK != 0) return false;
  if (nw % 4 != 0 || mw % 8 != 0) return false;  // thread-tile divisibility
  if (warps() < 1 || warps() > 16) return false;
  if (threads() > 1024) return false;
  if (stages < 2 || stages > 4) return false;
  return true;
}

int TileConfig::regs_per_thread() const {
  const int acc = accumulators_per_thread();           // FP32, 1 reg each
  const int a_frag = (mw / MmaShape::kM) * 2 * stages; // 4 halfs = 2 regs
  const int b_frag = (nw / MmaShape::kN) * 1 * stages; // 2 halfs = 1 reg
  const int bookkeeping = 28;
  return acc + a_frag + b_frag + bookkeeping;
}

int TileConfig::smem_bytes(DType t) const {
  return stages * (mb * kb + kb * nb) * dtype_bytes(t);
}

std::int64_t TileConfig::grid_blocks_m(const GemmShape& s) const {
  return (s.m + mb - 1) / mb;
}

std::int64_t TileConfig::grid_blocks_n(const GemmShape& s) const {
  return (s.n + nb - 1) / nb;
}

std::int64_t TileConfig::grid_blocks(const GemmShape& s) const {
  return grid_blocks_m(s) * grid_blocks_n(s);
}

std::int64_t TileConfig::k8_steps(const GemmShape& s) const {
  const std::int64_t k_slabs = (s.k + kb - 1) / kb;
  return k_slabs * (kb / MmaShape::kK);
}

std::vector<int> TileConfig::lane_rows(int lane) const {
  AIFT_CHECK(lane >= 0 && lane < 32);
  std::vector<int> rows;
  rows.reserve(static_cast<std::size_t>(mt()));
  const int group = lane / 4;  // PTX: groupID = lane >> 2
  for (int band = 0; band < mw / MmaShape::kM; ++band) {
    rows.push_back(band * MmaShape::kM + group);
    rows.push_back(band * MmaShape::kM + group + 8);
  }
  return rows;
}

std::vector<int> TileConfig::lane_cols(int lane) const {
  AIFT_CHECK(lane >= 0 && lane < 32);
  std::vector<int> cols;
  cols.reserve(static_cast<std::size_t>(nt()));
  const int tig = lane % 4;  // PTX: threadID_in_group
  for (int band = 0; band < nw / MmaShape::kN; ++band) {
    cols.push_back(band * MmaShape::kN + tig * 2);
    cols.push_back(band * MmaShape::kN + tig * 2 + 1);
  }
  return cols;
}

int TileConfig::owner_lane(int row_in_warp, int col_in_warp) const {
  AIFT_CHECK(row_in_warp >= 0 && row_in_warp < mw);
  AIFT_CHECK(col_in_warp >= 0 && col_in_warp < nw);
  const int group = (row_in_warp % MmaShape::kM) % 8;
  const int tig = (col_in_warp % MmaShape::kN) / 2;
  return group * 4 + tig;
}

LaneMap::LaneMap(const TileConfig& tile) : mt(tile.mt()), nt(tile.nt()) {
  AIFT_CHECK_MSG(tile.valid(), "invalid tile " << tile.name());
  group_rows.reserve(static_cast<std::size_t>(8 * mt));
  tig_cols.reserve(static_cast<std::size_t>(4 * nt));
  for (int group = 0; group < 8; ++group) {
    for (int r : tile.lane_rows(group * 4)) group_rows.push_back(r);
  }
  col_tig.assign(static_cast<std::size_t>(tile.nw), -1);
  for (int tig = 0; tig < 4; ++tig) {
    for (int c : tile.lane_cols(tig)) {
      tig_cols.push_back(c);
      AIFT_CHECK(col_tig[static_cast<std::size_t>(c)] == -1);
      col_tig[static_cast<std::size_t>(c)] = tig;
    }
  }
  for (int lane = 0; lane < 32; ++lane) {
    const auto r = rows(lane);
    const auto c = cols(lane);
    AIFT_CHECK(tile.lane_rows(lane) == std::vector<int>(r.begin(), r.end()));
    AIFT_CHECK(tile.lane_cols(lane) == std::vector<int>(c.begin(), c.end()));
    AIFT_CHECK(std::is_sorted(r.begin(), r.end()));
    AIFT_CHECK(std::is_sorted(c.begin(), c.end()));
  }
}

namespace {
int prefix_below(std::span<const int> offsets, std::int64_t limit) {
  return static_cast<int>(
      std::lower_bound(offsets.begin(), offsets.end(), limit) -
      offsets.begin());
}
}  // namespace

int LaneMap::rows_below(int lane, std::int64_t limit) const {
  return prefix_below(rows(lane), limit);
}

int LaneMap::cols_below(int lane, std::int64_t limit) const {
  return prefix_below(cols(lane), limit);
}

int LaneMap::lanes_owning(std::int64_t row_limit,
                          std::int64_t col_limit) const {
  int groups = 0, tigs = 0;
  for (int group = 0; group < 8; ++group) groups += rows_below(group * 4, row_limit) > 0;
  for (int tig = 0; tig < 4; ++tig) tigs += cols_below(tig, col_limit) > 0;
  return groups * tigs;
}

std::string TileConfig::name() const {
  std::ostringstream os;
  os << mb << "x" << nb << "x" << kb << "_" << mw << "x" << nw;
  return os.str();
}

const std::vector<TileConfig>& candidate_tiles() {
  static const std::vector<TileConfig> tiles = [] {
    std::vector<TileConfig> t = {
        {256, 128, 32, 64, 64, 2}, {128, 256, 32, 64, 64, 2},
        {128, 128, 32, 64, 64, 2}, {128, 128, 64, 64, 64, 2},
        {128, 64, 32, 64, 32, 2},  {64, 128, 32, 32, 64, 2},
        {64, 64, 32, 32, 32, 2},   {64, 64, 64, 32, 32, 2},
        {64, 32, 32, 32, 16, 2},   {32, 64, 32, 16, 32, 2},
        {32, 32, 32, 16, 16, 2},   {16, 64, 32, 16, 16, 2},
        {16, 32, 32, 16, 16, 2},
    };
    for (const auto& cfg : t) AIFT_CHECK_MSG(cfg.valid(), cfg.name());
    return t;
  }();
  return tiles;
}

}  // namespace aift
