#include "src/predict/fcbf.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "src/util/stats.h"

namespace shedmon::predict {

namespace {

// Rows per block in the window passes. Each pass keeps one accumulator per
// column in memory; adding a block's rows to it in one visit, oldest first,
// cuts that memory traffic kBlockRows-fold while every column's sum stays
// the same left-to-right sequence of additions, so no result depends on the
// block size or on where the ring splits the window.
constexpr size_t kBlockRows = 4;

// Calls fn(block, x, y) over the window, `block` (a std::integral_constant)
// consecutive rows at a time: kBlockRows, then single rows at the end of
// each run. The row count is a compile-time constant so a block's rows
// unroll into one register sum per column; a runtime count measured slower
// than one row at a time.
template <typename Fn>
void ForEachRowBlock(const RowRun& older, const RowRun& newer, size_t stride, Fn&& fn) {
  for (const RowRun* run : {&older, &newer}) {
    size_t r = 0;
    for (; r + kBlockRows <= run->rows; r += kBlockRows) {
      fn(std::integral_constant<size_t, kBlockRows>{}, run->x + r * stride, run->y + r);
    }
    for (; r < run->rows; ++r) {
      fn(std::integral_constant<size_t, 1>{}, run->x + r * stride, run->y + r);
    }
  }
}

}  // namespace

const FcbfResult& FcbfKernel::Select(const RowRun& older, const RowRun& newer, size_t cols,
                                     size_t stride, double threshold) {
  result_.selected.clear();
  result_.relevance.assign(cols, 0.0);
  const size_t n = older.rows + newer.rows;
  if (cols == 0 || n < 2) {
    return result_;
  }

  // Pass 1: every column's mean (and y's).
  mean_.assign(cols, 0.0);
  double y_mean = 0.0;
  {
    double* __restrict sum = mean_.data();
    ForEachRowBlock(older, newer, stride, [&](auto block, const double* __restrict x,
                                              const double* y) {
      constexpr size_t kRows = decltype(block)::value;
      for (size_t c = 0; c < cols; ++c) {
        double s = sum[c];
        for (size_t r = 0; r < kRows; ++r) {
          s += x[r * stride + c];
        }
        sum[c] = s;
      }
      for (size_t r = 0; r < kRows; ++r) {
        y_mean += y[r];
      }
    });
  }
  const auto rows = static_cast<double>(n);
  for (double& m : mean_) {
    m /= rows;
  }
  y_mean /= rows;

  // Pass 2: centred sums of squares and cross products with y.
  sum_sq_.assign(cols, 0.0);
  cross_.assign(cols, 0.0);
  double y_sum_sq = 0.0;
  {
    const double* __restrict mean = mean_.data();
    double* __restrict sxx = sum_sq_.data();
    double* __restrict sxy = cross_.data();
    ForEachRowBlock(older, newer, stride, [&](auto block, const double* __restrict x,
                                              const double* y) {
      constexpr size_t kRows = decltype(block)::value;
      double dy[kRows];
      for (size_t r = 0; r < kRows; ++r) {
        dy[r] = y[r] - y_mean;
        y_sum_sq += dy[r] * dy[r];
      }
      for (size_t c = 0; c < cols; ++c) {
        double xx = sxx[c];
        double xy = sxy[c];
        for (size_t r = 0; r < kRows; ++r) {
          const double dx = x[r * stride + c] - mean[c];
          xy += dx * dy[r];
          xx += dx * dx;
        }
        sxx[c] = xx;
        sxy[c] = xy;
      }
    });
  }
  for (size_t c = 0; c < cols; ++c) {
    result_.relevance[c] = std::abs(util::CorrelationFromSums(cross_[c], sum_sq_[c], y_sum_sq));
  }

  // Phase 1: relevance filtering, ranked by decreasing |corr(X_i, y)|.
  ranked_.clear();
  for (size_t c = 0; c < cols; ++c) {
    if (result_.relevance[c] >= threshold && result_.relevance[c] > 0.0) {
      ranked_.push_back(static_cast<int>(c));
    }
  }
  std::sort(ranked_.begin(), ranked_.end(), [&](int a, int b) {
    return result_.relevance[static_cast<size_t>(a)] > result_.relevance[static_cast<size_t>(b)];
  });

  if (ranked_.empty()) {
    // Fall back to the best single predictor so MLR degrades to SLR rather
    // than to an intercept-only model.
    const auto best = std::max_element(result_.relevance.begin(), result_.relevance.end());
    if (*best > 0.0) {
      result_.selected.push_back(static_cast<int>(best - result_.relevance.begin()));
    }
    return result_;
  }

  RemoveRedundant(older, newer, cols, stride);
  return result_;
}

// Phase 2: redundancy elimination. One row pass per surviving predictor
// yields its centred cross products with every column at once; batching is
// exact because a candidate is judged only against that survivor, never
// against another candidate of the same pass.
void FcbfKernel::RemoveRedundant(const RowRun& older, const RowRun& newer, size_t cols,
                                 size_t stride) {
  const size_t k = ranked_.size();
  removed_.assign(k, 0);
  dot_.resize(cols);
  for (size_t i = 0; i < k; ++i) {
    if (removed_[i]) {
      continue;
    }
    size_t first = i + 1;  // first candidate still in the running
    while (first < k && removed_[first]) {
      ++first;
    }
    if (first == k) {
      break;
    }
    const auto fi = static_cast<size_t>(ranked_[i]);
    std::fill(dot_.begin(), dot_.end(), 0.0);
    {
      const double* __restrict mean = mean_.data();
      double* __restrict dot = dot_.data();
      ForEachRowBlock(older, newer, stride, [&](auto block, const double* __restrict x,
                                                const double* /*y*/) {
        constexpr size_t kRows = decltype(block)::value;
        double di[kRows];
        for (size_t r = 0; r < kRows; ++r) {
          di[r] = x[r * stride + fi] - mean[fi];
        }
        for (size_t c = 0; c < cols; ++c) {
          double d = dot[c];
          for (size_t r = 0; r < kRows; ++r) {
            d += di[r] * (x[r * stride + c] - mean[c]);
          }
          dot[c] = d;
        }
      });
    }
    for (size_t j = first; j < k; ++j) {
      if (removed_[j]) {
        continue;
      }
      const auto fj = static_cast<size_t>(ranked_[j]);
      const double between =
          std::abs(util::CorrelationFromSums(dot_[fj], sum_sq_[fi], sum_sq_[fj]));
      if (between >= result_.relevance[fj]) {
        removed_[j] = 1;
      }
    }
  }
  for (size_t i = 0; i < k; ++i) {
    if (!removed_[i]) {
      result_.selected.push_back(ranked_[i]);
    }
  }
}

FcbfResult SelectFeatures(const Matrix& x, const std::vector<double>& y, double threshold) {
  if (y.size() != x.rows()) {
    throw std::invalid_argument("SelectFeatures: y size mismatch");
  }
  FcbfKernel kernel;
  return kernel.Select({x.data(), y.data(), x.rows()}, {}, x.cols(), x.cols(), threshold);
}

}  // namespace shedmon::predict
