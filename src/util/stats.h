#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace shedmon::util {

// Streaming mean / standard deviation (Welford) with min/max tracking.
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Sample standard deviation (n - 1 denominator), as reported in the paper's
  // "mean +/- stdev" tables.
  double stdev() const;
  double variance() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// p in [0, 1]; linear interpolation between closest ranks. Sorts a copy.
double Percentile(std::vector<double> values, double p);

// Empirical CDF evaluated at `points` equally spaced values between the min
// and max of the sample. Returns (x, F(x)) pairs; used by the Fig. 4.1 bench.
struct CdfPoint {
  double x;
  double f;
};
std::vector<CdfPoint> EmpiricalCdf(std::vector<double> values, size_t points);

// |1 - estimate/actual|, the paper's relative error (§2.2.1). Returns 0 when
// both are zero and 1 when only the actual is zero.
double RelativeError(double estimate, double actual);

// Pearson linear correlation coefficient (eq. 3.3). Returns 0 when either
// series is (numerically) constant.
double PearsonCorrelation(const std::vector<double>& x, const std::vector<double>& y);

// The last step of PearsonCorrelation: the coefficient from the centred sums
// sxy = sum dx*dy, sxx = sum dx^2, syy = sum dy^2; 0 when either series is
// (numerically) constant.
double CorrelationFromSums(double sxy, double sxx, double syy);

}  // namespace shedmon::util
