// aift-lint fixture: MUST PASS [hot-path-alloc].
// The microkernel bodies keep their accumulators in local arrays; the
// variant table is built once, outside them, and merely naming or calling
// a kernel elsewhere is fine.
#include <cstdint>
#include <vector>

namespace aift {
namespace {

struct GemmBlockArgs {
  const float* a;
  float* c;
  std::int64_t rows, k;
};

template <int MR>
inline void micro_tile(const GemmBlockArgs& p, std::int64_t r0) {
  float acc[MR] = {};
  for (std::int64_t kx = 0; kx < p.k; ++kx) acc[0] += p.a[r0 + kx];
  p.c[r0] = acc[0];
}

template <int MR>
inline void micro_tiles(const GemmBlockArgs& p) {
  for (std::int64_t r = 0; r < p.rows; r += MR) micro_tile<MR>(p, r);
}

void gemm_block_generic(const GemmBlockArgs& p) { micro_tiles<4>(p); }

}  // namespace

using GemmBlockFn = void (*)(const GemmBlockArgs&);

std::vector<GemmBlockFn> gemm_kernel_variants() {
  std::vector<GemmBlockFn> out;
  out.reserve(1);
  out.push_back(&gemm_block_generic);
  return out;
}

}  // namespace aift
