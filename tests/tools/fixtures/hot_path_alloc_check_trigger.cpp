// aift-lint fixture: MUST TRIGGER [hot-path-alloc].
// Allocations inside ThreadLevelAbft::check, defined inside namespaces the
// way src/core/ defines it; linted with --as-path src/core/..., where a
// steady-state check must draw its buffers from the scratch arena.
#include <memory>
#include <vector>

namespace aift {
namespace {
int panel_rows() { return 8; }
}  // namespace

struct ThreadLevelResult {
  std::vector<int> failures;
};

class ThreadLevelAbft {
 public:
  ThreadLevelResult check(int m, int k) const;
};

ThreadLevelResult ThreadLevelAbft::check(int m, int k) const {
  std::vector<float> decoded(static_cast<unsigned long>(m * k));
  std::vector<long> rows;
  rows.reserve(static_cast<unsigned long>(panel_rows()));
  auto sums = std::make_unique<double[]>(16);
  float* raw = new float[64];
  ThreadLevelResult out;
  out.failures.push_back(static_cast<int>(decoded.size() + rows.size()) +
                         static_cast<int>(sums[0] + raw[0]));
  delete[] raw;
  return out;
}

}  // namespace aift
