#pragma once

#include <cstddef>
#include <vector>

namespace shedmon::predict {

// Minimal dense row-major matrix, sized for regression problems of at most a
// few hundred rows by a few dozen columns.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols) : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  double& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  const double* data() const { return data_.data(); }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

struct LeastSquaresResult {
  std::vector<double> coef;  // size = a.cols()
  int rank = 0;
  bool ok = false;
};

// Solves min ||A x - y||_2 through the singular value decomposition, the
// paper's choice (§3.2.2) because it returns the best approximation even for
// rank-deficient or under-determined systems (e.g. collinear features during
// a SYN flood). Implemented with one-sided Jacobi rotations; singular values
// below rcond * max_sv are truncated, yielding the minimum-norm solution.
LeastSquaresResult SolveLeastSquaresSvd(const Matrix& a, const std::vector<double>& y,
                                        double rcond = 1e-10);

// The same solver over buffers it keeps between solves, so refitting a model
// of a steady shape allocates nothing once warm. Reset() sizes and zeroes the
// row-major design and the response for the caller to fill; Solve()
// overwrites the design.
class SvdSolver {
 public:
  void Reset(size_t rows, size_t cols);
  double* design() { return w_.data(); }
  double* response() { return y_.data(); }
  const LeastSquaresResult& Solve(double rcond);

 private:
  size_t rows_ = 0;  // max(data rows, cols): zero rows pad an underdetermined fit
  size_t cols_ = 0;
  std::vector<double> w_;
  std::vector<double> y_;
  std::vector<double> v_;
  std::vector<double> sv_;
  LeastSquaresResult result_;
};

}  // namespace shedmon::predict
