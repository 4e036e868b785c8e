#include "nn/activation.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace aift {

const char* activation_name(Activation a) {
  switch (a) {
    case Activation::identity: return "identity";
    case Activation::relu: return "relu";
    case Activation::squash: return "squash";
  }
  return "?";
}

namespace {

template <Activation A>
inline float activate(float x) {
  if constexpr (A == Activation::relu) {
    return x > 0.0f ? x : 0.0f;
  } else if constexpr (A == Activation::squash) {
    if (std::isinf(x)) {
      // A fault-overflowed activation saturates (inf/inf would be NaN);
      // keeps unprotected corruption propagation deterministic.
      return x > 0.0f ? 1.0f : -1.0f;
    }
    return x / (1.0f + std::fabs(x));
  } else {
    return x;
  }
}

/// Output elements per work item of the inter-layer flow: below this a
/// request is one item, above it its rows split over the pool.
constexpr std::int64_t kTaskElements = std::int64_t{1} << 14;

// Output rows [r0, r1) of one request band, each below the band's source
// rows: every element read from the source is activated exactly once, and
// columns past the source width repeat the activated row by whole-run
// copies (a copy of half(activate(x)) is that value, bit for bit).
template <Activation A>
void activate_rows(const half_t* src, std::int64_t src_cols, half_t* dst,
                   std::int64_t cols, std::int64_t r0, std::int64_t r1) {
  const std::int64_t run = std::min(cols, src_cols);
  const float* f16 = f16_to_f32_table();
  for (std::int64_t r = r0; r < r1; ++r) {
    const half_t* s = src + r * src_cols;
    half_t* d = dst + r * cols;
    for (std::int64_t c = 0; c < run; ++c) {
      d[c] = half_t(activate<A>(f16[s[c].bits()]));
    }
    for (std::int64_t c = run; c < cols; c += run) {
      std::memcpy(d + c, d, static_cast<std::size_t>(std::min(run, cols - c)) *
                                sizeof(half_t));
    }
  }
}

void activate_rows(Activation a, const half_t* src, std::int64_t src_cols,
                   half_t* dst, std::int64_t cols, std::int64_t r0,
                   std::int64_t r1) {
  switch (a) {
    case Activation::identity:
      return activate_rows<Activation::identity>(src, src_cols, dst, cols, r0,
                                                 r1);
    case Activation::relu:
      return activate_rows<Activation::relu>(src, src_cols, dst, cols, r0, r1);
    case Activation::squash:
      return activate_rows<Activation::squash>(src, src_cols, dst, cols, r0,
                                               r1);
  }
}

}  // namespace

float activate_value(float x, Activation a) {
  switch (a) {
    case Activation::identity: return activate<Activation::identity>(x);
    case Activation::relu: return activate<Activation::relu>(x);
    case Activation::squash: return activate<Activation::squash>(x);
  }
  return x;
}
void apply_activation(Matrix<half_t>& m, Activation a) {
  if (a == Activation::identity) return;
  for (std::int64_t r = 0; r < m.rows(); ++r) {
    for (std::int64_t c = 0; c < m.cols(); ++c) {
      m(r, c) = half_t(activate_value(m(r, c).to_float(), a));
    }
  }
}

Matrix<half_t> repack_activations(const Matrix<half_t>& prev,
                                  std::int64_t rows, std::int64_t cols) {
  AIFT_CHECK(prev.rows() > 0 && prev.cols() > 0);
  AIFT_CHECK(rows > 0 && cols > 0);
  Matrix<half_t> out(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      out(r, c) = prev(r % prev.rows(), c % prev.cols());
    }
  }
  return out;
}

Matrix<half_t> activate_and_repack(const Matrix<half_t>& prev, Activation a,
                                   std::int64_t rows, std::int64_t cols) {
  return activate_and_repack_stacked(prev, 1, a, rows, cols);
}

Matrix<half_t> activate_and_repack_stacked(const Matrix<half_t>& prev_stacked,
                                           std::int64_t requests, Activation a,
                                           std::int64_t rows, std::int64_t cols,
                                           bool parallel) {
  AIFT_CHECK(requests > 0);
  AIFT_CHECK_MSG(prev_stacked.rows() % requests == 0,
                 "stacked output of " << prev_stacked.rows()
                                      << " rows is not a whole number of "
                                      << requests << " request bands");
  const std::int64_t prev_rows = prev_stacked.rows() / requests;
  const std::int64_t prev_cols = prev_stacked.cols();
  AIFT_CHECK(prev_rows > 0 && prev_cols > 0);
  AIFT_CHECK(rows > 0 && cols > 0);

  Matrix<half_t> out(requests * rows, cols);
  const std::int64_t rows_per_task =
      std::max<std::int64_t>(1, kTaskElements / cols);
  const auto for_tasks = [&](std::int64_t band_rows, const auto& body) {
    // Work items: (request, chunk of rows_per_task of its band_rows rows).
    const std::int64_t chunks = (band_rows + rows_per_task - 1) / rows_per_task;
    const auto task = [&](std::int64_t t) {
      const std::int64_t req = t / chunks;
      const std::int64_t r0 = (t % chunks) * rows_per_task;
      body(req, r0, std::min(band_rows, r0 + rows_per_task));
    };
    if (parallel) {
      parallel_for(0, requests * chunks, task);
    } else {
      serial_for(0, requests * chunks, task);
    }
  };

  // Rows below the source height are activated from the source; rows past
  // it wrap onto those and are whole-row copies, so they wait for the first
  // pass. Index wrapping never crosses a request boundary.
  const std::int64_t active_rows = std::min(rows, prev_rows);
  for_tasks(active_rows, [&](std::int64_t req, std::int64_t r0,
                             std::int64_t r1) {
    activate_rows(a, prev_stacked.data() + req * prev_rows * prev_cols,
                  prev_cols, out.data() + req * rows * cols, cols, r0, r1);
  });
  if (rows > active_rows) {
    for_tasks(rows - active_rows, [&](std::int64_t req, std::int64_t r0,
                                      std::int64_t r1) {
      half_t* band = out.data() + req * rows * cols;
      for (std::int64_t r = active_rows + r0; r < active_rows + r1; ++r) {
        std::memcpy(band + r * cols, band + (r % prev_rows) * cols,
                    static_cast<std::size_t>(cols) * sizeof(half_t));
      }
    });
  }
  return out;
}

}  // namespace aift
