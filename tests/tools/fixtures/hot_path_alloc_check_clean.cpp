// aift-lint fixture: MUST PASS [hot-path-alloc].
// The check body takes its buffers from the scratch arena and only grows
// its result on a failure; allocating in prepare() (once per session) and
// merely calling check() from elsewhere are fine.
#include <vector>

namespace aift {

double* scratch_doubles(int slot, unsigned long count);

struct ThreadLevelResult {
  std::vector<int> failures;
};

class ThreadLevelAbft {
 public:
  void prepare(int k);
  ThreadLevelResult check(int m, int k) const;

 private:
  std::vector<double> sums_;
};

void ThreadLevelAbft::prepare(int k) {
  sums_.resize(static_cast<unsigned long>(k));
}

ThreadLevelResult ThreadLevelAbft::check(int m, int k) const {
  double* decoded = scratch_doubles(0, static_cast<unsigned long>(m * k));
  ThreadLevelResult out;
  for (int i = 0; i < m * k; ++i) {
    if (decoded[i] < 0.0) out.failures.push_back(i);
  }
  return out;
}

int run_check(const ThreadLevelAbft& abft) {
  std::vector<int> keep(4, 0);
  return static_cast<int>(abft.check(2, 2).failures.size() + keep.size());
}

}  // namespace aift
