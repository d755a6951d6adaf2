#include "src/predict/linalg.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace shedmon::predict {

LeastSquaresResult SolveLeastSquaresSvd(const Matrix& a, const std::vector<double>& y,
                                        double rcond) {
  if (a.cols() == 0 || a.rows() == 0) {
    return {};
  }
  if (y.size() != a.rows()) {
    throw std::invalid_argument("SolveLeastSquaresSvd: y size mismatch");
  }
  SvdSolver solver;
  solver.Reset(a.rows(), a.cols());
  std::copy(a.data(), a.data() + a.rows() * a.cols(), solver.design());
  std::copy(y.begin(), y.end(), solver.response());
  return solver.Solve(rcond);
}

void SvdSolver::Reset(size_t rows, size_t cols) {
  // Work on W = A padded with zero rows up to max(rows, cols); padding does
  // not change the normal equations, and one-sided Jacobi wants n >= p.
  rows_ = rows == 0 ? 0 : std::max(rows, cols);
  cols_ = cols;
  w_.assign(rows_ * cols_, 0.0);
  y_.assign(rows_, 0.0);
}

const LeastSquaresResult& SvdSolver::Solve(double rcond) {
  LeastSquaresResult& result = result_;
  result.coef.clear();
  result.rank = 0;
  result.ok = false;
  const size_t n = rows_;
  const size_t p = cols_;
  if (p == 0 || n == 0) {
    return result;
  }
  std::vector<double>& w = w_;
  const std::vector<double>& yy = y_;

  // V accumulates the right singular vectors (p x p, row-major).
  std::vector<double>& v = v_;
  v.assign(p * p, 0.0);
  for (size_t i = 0; i < p; ++i) {
    v[i * p + i] = 1.0;
  }

  auto col_dot = [&](size_t i, size_t j) {
    double s = 0.0;
    for (size_t r = 0; r < n; ++r) {
      s += w[r * p + i] * w[r * p + j];
    }
    return s;
  };

  // One-sided Jacobi: rotate column pairs of W until all pairs are
  // (numerically) orthogonal; the same rotations applied to V give A = U S V^T.
  constexpr int kMaxSweeps = 40;
  constexpr double kOrthTol = 1e-13;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool rotated = false;
    for (size_t i = 0; i + 1 < p; ++i) {
      for (size_t j = i + 1; j < p; ++j) {
        // The pair's three dot products in one pass over the rows: three
        // independent sums, each still added row by row in order.
        double alpha = 0.0;
        double beta = 0.0;
        double gamma = 0.0;
        for (size_t r = 0; r < n; ++r) {
          const double wi = w[r * p + i];
          const double wj = w[r * p + j];
          alpha += wi * wi;
          beta += wj * wj;
          gamma += wi * wj;
        }
        if (std::abs(gamma) <= kOrthTol * std::sqrt(alpha * beta) || gamma == 0.0) {
          continue;
        }
        rotated = true;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (size_t r = 0; r < n; ++r) {
          const double wi = w[r * p + i];
          const double wj = w[r * p + j];
          w[r * p + i] = c * wi - s * wj;
          w[r * p + j] = s * wi + c * wj;
        }
        for (size_t r = 0; r < p; ++r) {
          const double vi = v[r * p + i];
          const double vj = v[r * p + j];
          v[r * p + i] = c * vi - s * vj;
          v[r * p + j] = s * vi + c * vj;
        }
      }
    }
    if (!rotated) {
      break;
    }
  }

  // Singular values are the column norms of the rotated W.
  std::vector<double>& sv = sv_;
  sv.assign(p, 0.0);
  double sv_max = 0.0;
  for (size_t i = 0; i < p; ++i) {
    sv[i] = std::sqrt(col_dot(i, i));
    sv_max = std::max(sv_max, sv[i]);
  }
  const double cutoff = sv_max * rcond;

  // x = V * diag(1/sv) * U^T * y, truncating negligible singular values.
  // U^T y for column i equals (W_i . y) / sv_i.
  result.coef.assign(p, 0.0);
  for (size_t i = 0; i < p; ++i) {
    if (sv[i] <= cutoff || sv[i] == 0.0) {
      continue;
    }
    ++result.rank;
    double uy = 0.0;
    for (size_t r = 0; r < n; ++r) {
      uy += w[r * p + i] * yy[r];
    }
    const double scale = uy / (sv[i] * sv[i]);
    for (size_t c = 0; c < p; ++c) {
      result.coef[c] += v[c * p + i] * scale;
    }
  }
  result.ok = result.rank > 0;
  return result;
}

}  // namespace shedmon::predict
