// aift-lint fixture: MUST TRIGGER [hot-path-alloc].
// Allocations inside the GEMM microkernel bodies (a micro-tile template,
// its block loop and a target-attribute variant), defined inside
// namespaces the way src/gemm/ defines them; linted with --as-path
// src/gemm/..., where every block of every GEMM runs these bodies.
#include <cstdint>
#include <memory>
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
  std::vector<float> acc(static_cast<unsigned long>(MR * 8));
  for (std::int64_t kx = 0; kx < p.k; ++kx) acc[0] += p.a[r0 + kx];
  p.c[r0] = acc[0];
}

template <int MR>
inline void micro_tiles(const GemmBlockArgs& p) {
  auto rows = std::make_unique<std::int64_t[]>(4);
  for (std::int64_t r = 0; r < p.rows; r += MR) {
    micro_tile<MR>(p, r + rows[0]);
  }
}

__attribute__((target("avx2"))) void gemm_block_avx2(const GemmBlockArgs& p) {
  float* staged = new float[64];
  micro_tiles<4>(p);
  delete[] staged;
}

}  // namespace
}  // namespace aift
