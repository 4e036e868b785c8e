// aift-lint fixture: MUST PASS via allow() suppression [hot-path-alloc].
#include <vector>

namespace aift {

struct ThreadLevelResult {
  std::vector<int> failures;
};

class ThreadLevelAbft {
 public:
  ThreadLevelResult check(int m, int k) const;
};

ThreadLevelResult ThreadLevelAbft::check(int m, int k) const {
  // Sanctioned cold path: sized once per result, never per panel.
  // aift-lint: allow(hot-path-alloc)
  std::vector<int> counts(static_cast<unsigned long>(m + k));
  ThreadLevelResult out;
  out.failures.swap(counts);
  return out;
}

}  // namespace aift
