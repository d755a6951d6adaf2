#pragma once

#include <cstddef>
#include <vector>

#include "src/predict/linalg.h"

namespace shedmon::predict {

struct FcbfResult {
  // Indices of selected columns of X, ordered by decreasing relevance.
  std::vector<int> selected;
  // |corr(X_i, y)| for every column (0 for constant columns).
  std::vector<double> relevance;
};

// A run of consecutive window rows: row r's features start at x + r * stride
// and its response is y[r]. A ring buffer is read as two runs, oldest first.
struct RowRun {
  const double* x = nullptr;
  const double* y = nullptr;
  size_t rows = 0;
};

// Calls fn(row_features, response) for every row of `older`, then `newer`.
template <typename Fn>
void ForEachRow(const RowRun& older, const RowRun& newer, size_t stride, Fn&& fn) {
  for (const RowRun* run : {&older, &newer}) {
    for (size_t r = 0; r < run->rows; ++r) {
      fn(run->x + r * stride, run->y[r]);
    }
  }
}

// Fast Correlation-Based Filter, the thesis variant (§3.2.3): predictor
// goodness is the absolute linear correlation coefficient instead of the
// original symmetrical uncertainty. Phase 1 drops columns whose relevance is
// below `threshold`; phase 2 walks the relevance-ranked survivors and removes
// any predictor whose correlation with a better-ranked one exceeds its own
// correlation with the response (redundancy). If nothing clears the
// threshold, the single most relevant predictor is kept so the regression
// never runs empty.
//
// The kernel reads the window in place and keeps its scratch between calls,
// so a refit allocates nothing once warm. Every column's mean, centred sum of
// squares and centred cross product with y come from two row-major passes
// whose inner loops run across columns; each column's sums therefore stay
// left-to-right sums over the rows, oldest first, and every correlation is
// bit-identical to util::PearsonCorrelation on the extracted columns.
class FcbfKernel {
 public:
  // Selects over the window `older` followed by `newer`, `cols` features per
  // row. Needs at least two rows; fewer leave every relevance at 0.
  const FcbfResult& Select(const RowRun& older, const RowRun& newer, size_t cols,
                           size_t stride, double threshold);

  // Per-column mean and centred sum of squares of the last Select's window
  // (valid when it had at least two rows): what standardizing the selected
  // columns needs, so the regression never re-walks the window for them.
  const std::vector<double>& mean() const { return mean_; }
  const std::vector<double>& sum_sq() const { return sum_sq_; }

 private:
  void RemoveRedundant(const RowRun& older, const RowRun& newer, size_t cols, size_t stride);

  FcbfResult result_;
  std::vector<double> mean_;
  std::vector<double> sum_sq_;
  std::vector<double> cross_;  // centred sum of x_c * y per column
  std::vector<int> ranked_;
  std::vector<double> dot_;  // centred cross products of every column with one survivor
  std::vector<char> removed_;
};

// One-shot entry point over a dense matrix (tests, micro-benchmarks); y has
// one entry per row of x (std::invalid_argument otherwise).
FcbfResult SelectFeatures(const Matrix& x, const std::vector<double>& y, double threshold);

}  // namespace shedmon::predict
