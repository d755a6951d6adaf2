#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/cost.h"
#include "src/features/extractor.h"
#include "src/features/features.h"
#include "src/obs/snapshot.h"
#include "src/predict/fcbf.h"
#include "src/predict/linalg.h"
#include "src/predict/predictors.h"
#include "src/trace/batch.h"
#include "src/trace/generator.h"
#include "src/trace/spec.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace shedmon::predict {
namespace {

using features::FeatureVector;
using features::kFeatBytes;
using features::kFeatNewFiveTuple;
using features::kFeatPackets;

TEST(Svd, SolvesExactSquareSystem) {
  // [1 1; 1 2] x = [3; 5] -> x = [1, 2].
  Matrix a(2, 2);
  a.At(0, 0) = 1;
  a.At(0, 1) = 1;
  a.At(1, 0) = 1;
  a.At(1, 1) = 2;
  const auto r = SolveLeastSquaresSvd(a, {3.0, 5.0});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.rank, 2);
  EXPECT_NEAR(r.coef[0], 1.0, 1e-9);
  EXPECT_NEAR(r.coef[1], 2.0, 1e-9);
}

TEST(Svd, LeastSquaresOverdetermined) {
  // y = 2x with one noisy point; OLS slope is known in closed form.
  Matrix a(4, 1);
  std::vector<double> y(4);
  const double xs[4] = {1, 2, 3, 4};
  const double ys[4] = {2, 4, 6, 9};
  double sxy = 0.0;
  double sxx = 0.0;
  for (int i = 0; i < 4; ++i) {
    a.At(static_cast<size_t>(i), 0) = xs[i];
    y[static_cast<size_t>(i)] = ys[i];
    sxy += xs[i] * ys[i];
    sxx += xs[i] * xs[i];
  }
  const auto r = SolveLeastSquaresSvd(a, y);
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.coef[0], sxy / sxx, 1e-9);
}

TEST(Svd, HandlesDuplicatedColumns) {
  // Two identical columns: rank 1; pseudo-inverse splits the weight evenly.
  Matrix a(4, 2);
  for (size_t i = 0; i < 4; ++i) {
    a.At(i, 0) = static_cast<double>(i + 1);
    a.At(i, 1) = static_cast<double>(i + 1);
  }
  const std::vector<double> y = {2, 4, 6, 8};
  const auto r = SolveLeastSquaresSvd(a, y);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.rank, 1);
  EXPECT_NEAR(r.coef[0], 1.0, 1e-9);
  EXPECT_NEAR(r.coef[1], 1.0, 1e-9);
  // Residual must be zero: the system is consistent.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(a.At(i, 0) * r.coef[0] + a.At(i, 1) * r.coef[1], y[i], 1e-9);
  }
}

TEST(Svd, UnderdeterminedReturnsMinimumNorm) {
  // One equation, two unknowns: x0 + x1 = 4 -> min-norm solution (2, 2).
  Matrix a(1, 2);
  a.At(0, 0) = 1;
  a.At(0, 1) = 1;
  const auto r = SolveLeastSquaresSvd(a, {4.0});
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.coef[0], 2.0, 1e-9);
  EXPECT_NEAR(r.coef[1], 2.0, 1e-9);
}

TEST(Svd, LargeRandomSystemResidualIsOptimal) {
  // Residual of SVD solution must be orthogonal to the column space.
  util::Rng rng(5);
  const size_t n = 60;
  const size_t p = 8;
  Matrix a(n, p);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < p; ++j) {
      a.At(i, j) = rng.NextGaussian();
    }
    y[i] = rng.NextGaussian();
  }
  const auto r = SolveLeastSquaresSvd(a, y);
  ASSERT_TRUE(r.ok);
  std::vector<double> resid(n);
  for (size_t i = 0; i < n; ++i) {
    double pred = 0.0;
    for (size_t j = 0; j < p; ++j) {
      pred += a.At(i, j) * r.coef[j];
    }
    resid[i] = y[i] - pred;
  }
  for (size_t j = 0; j < p; ++j) {
    double dot = 0.0;
    for (size_t i = 0; i < n; ++i) {
      dot += a.At(i, j) * resid[i];
    }
    EXPECT_NEAR(dot, 0.0, 1e-6) << "column " << j;
  }
}

TEST(Svd, EmptyInputsRejected) {
  Matrix a;
  const auto r = SolveLeastSquaresSvd(a, {});
  EXPECT_FALSE(r.ok);
  Matrix b(2, 1);
  EXPECT_THROW(SolveLeastSquaresSvd(b, {1.0}), std::invalid_argument);
}

Matrix MakeFeatureMatrix(const std::vector<std::vector<double>>& rows) {
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) {
      m.At(r, c) = rows[r][c];
    }
  }
  return m;
}

TEST(Fcbf, SelectsTheRelevantFeature) {
  // Column 0 = y exactly, column 1 = noise, column 2 = constant.
  util::Rng rng(3);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 40; ++i) {
    const double v = static_cast<double>(i);
    rows.push_back({v, rng.NextGaussian() * 100.0, 7.0});
    y.push_back(3.0 * v);
  }
  const auto r = SelectFeatures(MakeFeatureMatrix(rows), y, 0.6);
  ASSERT_FALSE(r.selected.empty());
  EXPECT_EQ(r.selected[0], 0);
  for (int s : r.selected) {
    EXPECT_NE(s, 2);  // constants are never relevant
  }
}

TEST(Fcbf, RemovesRedundantCopies) {
  // Columns 0 and 1 are identical and both perfectly relevant; only one may
  // survive the redundancy phase.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 30; ++i) {
    const double v = static_cast<double>(i);
    rows.push_back({v, v, 30.0 - v});
    y.push_back(v);
  }
  const auto r = SelectFeatures(MakeFeatureMatrix(rows), y, 0.5);
  int copies = 0;
  for (int s : r.selected) {
    if (s == 0 || s == 1) {
      ++copies;
    }
  }
  EXPECT_EQ(copies, 1);
}

TEST(Fcbf, FallsBackToBestFeatureWhenThresholdTooHigh) {
  util::Rng rng(9);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    const double v = static_cast<double>(i);
    // Weak but nonzero correlation in column 1.
    rows.push_back({rng.NextGaussian(), v + rng.NextGaussian() * 30.0});
    y.push_back(v);
  }
  const auto r = SelectFeatures(MakeFeatureMatrix(rows), y, 0.99);
  ASSERT_EQ(r.selected.size(), 1u);
  EXPECT_EQ(r.selected[0], 1);
}

TEST(Fcbf, HigherThresholdSelectsFewer) {
  util::Rng rng(13);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 80; ++i) {
    const double v = static_cast<double>(i);
    rows.push_back({v + rng.NextGaussian() * 2.0, v + rng.NextGaussian() * 20.0,
                    v + rng.NextGaussian() * 60.0, rng.NextGaussian() * 10.0});
    y.push_back(v);
  }
  const auto low = SelectFeatures(MakeFeatureMatrix(rows), y, 0.1);
  const auto high = SelectFeatures(MakeFeatureMatrix(rows), y, 0.95);
  EXPECT_GE(low.selected.size(), high.selected.size());
}

FeatureVector MakeFeatures(double pkts, double bytes, double new5t) {
  FeatureVector f{};
  f[kFeatPackets] = pkts;
  f[kFeatBytes] = bytes;
  f[kFeatNewFiveTuple] = new5t;
  return f;
}

TEST(EwmaPredictorTest, TracksConstantSignal) {
  EwmaPredictor p(0.3);
  for (int i = 0; i < 20; ++i) {
    p.Observe(MakeFeatures(100, 1000, 10), 5000.0);
  }
  EXPECT_NEAR(p.Predict(MakeFeatures(500, 5000, 50)), 5000.0, 1e-6);
}

TEST(EwmaPredictorTest, CannotAnticipateInputChanges) {
  // The paper's core observation (Fig. 3.9): EWMA ignores the traffic, so a
  // sudden surge in packets is invisible until after it has cost cycles.
  EwmaPredictor p(0.3);
  for (int i = 0; i < 50; ++i) {
    p.Observe(MakeFeatures(100, 1000, 10), 1000.0);
  }
  const double pred_surge = p.Predict(MakeFeatures(1000, 10000, 100));
  EXPECT_NEAR(pred_surge, 1000.0, 1e-6);  // blind to the 10x input surge
}

TEST(SlrPredictorTest, RecoversLinearPacketCost) {
  SlrPredictor p(kFeatPackets, 60);
  util::Rng rng(7);
  for (int i = 0; i < 60; ++i) {
    const double pkts = 100.0 + rng.NextDouble() * 400.0;
    p.Observe(MakeFeatures(pkts, pkts * 10, 5), 500.0 + 30.0 * pkts);
  }
  const double pred = p.Predict(MakeFeatures(300, 3000, 5));
  EXPECT_NEAR(pred, 500.0 + 30.0 * 300.0, 200.0);
}

TEST(SlrPredictorTest, MissesCostsDrivenByOtherFeatures) {
  // Cost depends on new flows while packets stay constant: SLR on packets
  // must fail (the Fig. 3.14 failure mode).
  SlrPredictor p(kFeatPackets, 60);
  util::Rng rng(11);
  for (int i = 0; i < 60; ++i) {
    const double flows = (i % 2 == 0) ? 10.0 : 500.0;
    p.Observe(MakeFeatures(200, 2000, flows), 100.0 * flows);
  }
  const double pred_attack = p.Predict(MakeFeatures(200, 2000, 500));
  EXPECT_GT(util::RelativeError(pred_attack, 100.0 * 500.0), 0.30);
}

TEST(MlrPredictorTest, LearnsMultiFeatureCost) {
  MlrPredictor::Config cfg;
  cfg.history = 60;
  // Both drivers must clear the relevance filter: the packet term explains
  // only ~25% of the variance here, so the threshold sits below that.
  cfg.fcbf_threshold = 0.15;
  MlrPredictor p(cfg);
  util::Rng rng(13);
  for (int i = 0; i < 60; ++i) {
    const double pkts = 100.0 + rng.NextDouble() * 400.0;
    const double new5t = 10.0 + rng.NextDouble() * 200.0;
    p.Observe(MakeFeatures(pkts, pkts * 8, new5t), 20.0 * pkts + 150.0 * new5t);
  }
  const double pred = p.Predict(MakeFeatures(250, 2000, 100));
  EXPECT_NEAR(pred, 20.0 * 250 + 150.0 * 100, 0.05 * (20.0 * 250 + 150.0 * 100));
}

TEST(MlrPredictorTest, AnticipatesFlowAnomalyUnlikeSlr) {
  // Reproduces the §3.4.3 comparison in miniature: cost = f(new flows);
  // during a spoofed DDoS the flow count explodes while packets stay flat.
  MlrPredictor::Config cfg;
  cfg.fcbf_threshold = 0.6;
  MlrPredictor mlr(cfg);
  SlrPredictor slr(kFeatPackets, 60);
  util::Rng rng(17);
  for (int i = 0; i < 60; ++i) {
    const double pkts = 180.0 + rng.NextDouble() * 40.0;  // nearly flat
    const double new5t = 20.0 + rng.NextDouble() * 180.0;
    const double cost = 10.0 * pkts + 120.0 * new5t;
    const auto f = MakeFeatures(pkts, pkts * 8, new5t);
    mlr.Observe(f, cost);
    slr.Observe(f, cost);
  }
  const auto attack = MakeFeatures(200, 1600, 2000);  // flow explosion
  const double truth = 10.0 * 200 + 120.0 * 2000;
  EXPECT_LT(util::RelativeError(mlr.Predict(attack), truth), 0.10);
  EXPECT_GT(util::RelativeError(slr.Predict(attack), truth), 0.50);
}

TEST(MlrPredictorTest, SelectionCountsAccumulate) {
  MlrPredictor p;
  util::Rng rng(19);
  for (int i = 0; i < 30; ++i) {
    const double pkts = 100.0 + rng.NextDouble() * 100.0;
    p.Observe(MakeFeatures(pkts, pkts * 10, 5), 40.0 * pkts);
  }
  EXPECT_FALSE(p.selection_counts().empty());
  EXPECT_FALSE(p.last_selected().empty());
}

TEST(MlrPredictorTest, ColdStartReturnsHistoryMean) {
  MlrPredictor p;
  EXPECT_DOUBLE_EQ(p.Predict(MakeFeatures(100, 1000, 5)), 0.0);
  p.Observe(MakeFeatures(100, 1000, 5), 4000.0);
  p.Observe(MakeFeatures(100, 1000, 5), 6000.0);
  EXPECT_NEAR(p.Predict(MakeFeatures(100, 1000, 5)), 5000.0, 1e-6);
}

// The cycles column of an MlrPredictor's saved window, oldest first: the
// observations as the regression sees them, after scrubbing.
std::vector<double> SavedCycles(const MlrPredictor& p) {
  std::stringstream stream;
  obs::SnapshotWriter w(stream);
  p.SaveState(w);
  obs::SnapshotReader r(stream);
  EXPECT_EQ(r.Str(), "mlr+fcbf");
  std::vector<double> cycles(r.U64());
  for (double& c : cycles) {
    for (int i = 0; i < features::kNumFeatures; ++i) {
      r.F64();
    }
    c = r.F64();
  }
  return cycles;
}

MlrPredictor TrainedOnPacketCost(uint64_t seed) {
  MlrPredictor p;
  util::Rng rng(seed);
  for (int i = 0; i < 40; ++i) {
    const double pkts = 100.0 + rng.NextDouble() * 100.0;
    p.Observe(MakeFeatures(pkts, pkts * 10, 5), 40.0 * pkts);
  }
  return p;
}

TEST(MlrPredictorTest, ScrubReplacesIsolatedOutlierWithPrediction) {
  MlrPredictor p = TrainedOnPacketCost(23);
  // A "context switch" inflates one measurement far beyond 8x the model.
  const auto f = MakeFeatures(150, 1500, 5);
  const double expected = p.Predict(f);
  ASSERT_NEAR(expected, 6000.0, 600.0);
  p.Observe(f, 1e9);
  EXPECT_EQ(SavedCycles(p).back(), expected);
  EXPECT_NEAR(p.Predict(f), 6000.0, 600.0);

  // Deflated readings are scrubbed too.
  const double expected_low = p.Predict(f);
  p.Observe(f, expected_low / 100.0);
  EXPECT_EQ(SavedCycles(p).back(), expected_low);

  // A reading within the factor is kept as measured.
  p.Observe(f, 7000.0);
  EXPECT_EQ(SavedCycles(p).back(), 7000.0);
}

TEST(MlrPredictorTest, ThirdConsecutiveOutlierIsAcceptedAsRegimeChange) {
  MlrPredictor p = TrainedOnPacketCost(29);
  const auto f = MakeFeatures(150, 1500, 5);
  std::vector<double> expected;
  for (int i = 0; i < 3; ++i) {
    expected.push_back(p.Predict(f));
    p.Observe(f, 20.0 * 40.0 * 150.0);
  }
  const std::vector<double> saved = SavedCycles(p);
  ASSERT_GE(saved.size(), 3u);
  const size_t n = saved.size();
  EXPECT_EQ(saved[n - 3], expected[0]);  // isolated so far: scrubbed
  EXPECT_EQ(saved[n - 2], expected[1]);
  EXPECT_EQ(saved[n - 1], 20.0 * 40.0 * 150.0);  // persistent: a real change
  // The run is over, so the next outlier is scrubbed again.
  const double next = p.Predict(f);
  p.Observe(f, 1e12);
  EXPECT_EQ(SavedCycles(p).back(), next);
}

TEST(MlrPredictorTest, RestoreMidRingReplaysIdentically) {
  // Save once the window has wrapped, so the ring's oldest row is not at
  // the start of its storage, and check the restored predictor carries on
  // bit-identically.
  MlrPredictor::Config cfg;
  cfg.history = 30;
  MlrPredictor a(cfg);
  util::Rng rng(31);
  auto next = [&] {
    const double pkts = 100.0 + rng.NextDouble() * 300.0;
    const double flows = 5.0 + rng.NextDouble() * 50.0;
    return std::make_pair(MakeFeatures(pkts, pkts * 9, flows), 30.0 * pkts + 80.0 * flows);
  };
  for (int i = 0; i < 47; ++i) {
    const auto [f, c] = next();
    a.Observe(f, c);
  }
  std::stringstream stream;
  obs::SnapshotWriter w(stream);
  a.SaveState(w);
  const std::string saved = stream.str();
  MlrPredictor b(cfg);
  obs::SnapshotReader r(stream);
  b.LoadState(r);
  std::stringstream again;
  obs::SnapshotWriter w2(again);
  b.SaveState(w2);
  EXPECT_EQ(again.str(), saved);
  for (int i = 0; i < 40; ++i) {
    const auto [f, c] = next();
    ASSERT_EQ(std::bit_cast<uint64_t>(a.Predict(f)), std::bit_cast<uint64_t>(b.Predict(f)));
    a.Observe(f, c);
    b.Observe(f, c);
  }
  EXPECT_EQ(a.selection_counts(), b.selection_counts());
}

TEST(MlrPredictorTest, LoadRejectsWindowLongerThanHistory) {
  MlrPredictor::Config big;
  big.history = 60;
  MlrPredictor a(big);
  for (int i = 0; i < 40; ++i) {
    a.Observe(MakeFeatures(100 + i, 1000, 5), 4000.0 + i);
  }
  std::stringstream stream;
  obs::SnapshotWriter w(stream);
  a.SaveState(w);
  MlrPredictor::Config small;
  small.history = 30;
  MlrPredictor b(small);
  obs::SnapshotReader r(stream);
  EXPECT_THROW(b.LoadState(r), obs::SnapshotError);
}

TEST(MlrPredictorTest, SlidingWindowForgetsOldRegime) {
  MlrPredictor::Config cfg;
  cfg.history = 30;
  MlrPredictor p(cfg);
  util::Rng rng(29);
  // Regime 1: expensive per packet.
  for (int i = 0; i < 30; ++i) {
    const double pkts = 100.0 + rng.NextDouble() * 100.0;
    p.Observe(MakeFeatures(pkts, pkts * 10, 5), 100.0 * pkts);
  }
  // Regime 2: cheap per packet; window is fully replaced.
  for (int i = 0; i < 30; ++i) {
    const double pkts = 100.0 + rng.NextDouble() * 100.0;
    p.Observe(MakeFeatures(pkts, pkts * 10, 5), 10.0 * pkts);
  }
  EXPECT_NEAR(p.Predict(MakeFeatures(200, 2000, 5)), 2000.0, 300.0);
}

TEST(PredictorFactory, BuildsAllKinds) {
  PredictorConfig cfg;
  cfg.kind = PredictorKind::kMlr;
  EXPECT_EQ(MakePredictor(cfg)->name(), "mlr+fcbf");
  cfg.kind = PredictorKind::kSlr;
  EXPECT_EQ(MakePredictor(cfg)->name(), "slr");
  cfg.kind = PredictorKind::kEwma;
  EXPECT_EQ(MakePredictor(cfg)->name(), "ewma");
}

// Parameterized: MLR accuracy as a function of history length (the Fig. 3.5
// experiment's left half as a property — more history up to ~30 observations
// must not make prediction dramatically worse on stationary inputs).
class MlrHistorySweep : public ::testing::TestWithParam<size_t> {};

TEST_P(MlrHistorySweep, StationaryErrorStaysSmall) {
  MlrPredictor::Config cfg;
  cfg.history = GetParam();
  cfg.fcbf_threshold = 0.2;  // keep the weaker (packet) driver selected
  MlrPredictor p(cfg);
  util::Rng rng(37 + GetParam());
  util::RunningStats err;
  for (int i = 0; i < 150; ++i) {
    const double pkts = 200.0 + rng.NextDouble() * 200.0;
    const double new5t = 20.0 + rng.NextDouble() * 50.0;
    const auto f = MakeFeatures(pkts, pkts * 9, new5t);
    const double truth = 15.0 * pkts + 90.0 * new5t;
    if (i > 30) {
      err.Add(util::RelativeError(p.Predict(f), truth));
    }
    p.Observe(f, truth * (1.0 + 0.01 * rng.NextGaussian()));
  }
  EXPECT_LT(err.mean(), 0.05) << "history=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Histories, MlrHistorySweep, ::testing::Values(10, 30, 60, 120));

// ---------------------------------------------------------------------------
// Bit-exactness of the single-pass fit. `reference` is the fit as it stood
// before FcbfKernel and SvdSolver: FCBF through util::PearsonCorrelation on
// copied columns, per-column standardization passes, and a solver that
// recomputes every dot product. The kernel promises the same arithmetic, so
// everything it produces must match this copy bit for bit.

namespace reference {

FcbfResult SelectFeatures(const Matrix& x, const std::vector<double>& y, double threshold) {
  FcbfResult result;
  const size_t p = x.cols();
  result.relevance.assign(p, 0.0);
  if (p == 0 || x.rows() < 2) {
    return result;
  }
  std::vector<std::vector<double>> cols(p, std::vector<double>(x.rows()));
  for (size_t c = 0; c < p; ++c) {
    for (size_t r = 0; r < x.rows(); ++r) {
      cols[c][r] = x.At(r, c);
    }
    result.relevance[c] = std::abs(util::PearsonCorrelation(cols[c], y));
  }
  std::vector<int> ranked;
  for (size_t c = 0; c < p; ++c) {
    if (result.relevance[c] >= threshold && result.relevance[c] > 0.0) {
      ranked.push_back(static_cast<int>(c));
    }
  }
  std::sort(ranked.begin(), ranked.end(), [&](int a, int b) {
    return result.relevance[static_cast<size_t>(a)] > result.relevance[static_cast<size_t>(b)];
  });
  if (ranked.empty()) {
    const auto best = std::max_element(result.relevance.begin(), result.relevance.end());
    if (*best > 0.0) {
      result.selected.push_back(static_cast<int>(best - result.relevance.begin()));
    }
    return result;
  }
  std::vector<bool> removed(ranked.size(), false);
  for (size_t i = 0; i < ranked.size(); ++i) {
    if (removed[i]) {
      continue;
    }
    const auto fi = static_cast<size_t>(ranked[i]);
    for (size_t j = i + 1; j < ranked.size(); ++j) {
      if (removed[j]) {
        continue;
      }
      const auto fj = static_cast<size_t>(ranked[j]);
      if (std::abs(util::PearsonCorrelation(cols[fi], cols[fj])) >= result.relevance[fj]) {
        removed[j] = true;
      }
    }
  }
  for (size_t i = 0; i < ranked.size(); ++i) {
    if (!removed[i]) {
      result.selected.push_back(ranked[i]);
    }
  }
  return result;
}

LeastSquaresResult SolveLeastSquaresSvd(const Matrix& a, const std::vector<double>& y,
                                        double rcond) {
  LeastSquaresResult result;
  const size_t p = a.cols();
  if (p == 0 || a.rows() == 0) {
    return result;
  }
  const size_t n = std::max(a.rows(), p);
  std::vector<double> w(n * p, 0.0);
  std::vector<double> yy(n, 0.0);
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < p; ++c) {
      w[r * p + c] = a.At(r, c);
    }
    yy[r] = y[r];
  }
  std::vector<double> v(p * p, 0.0);
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
  for (int sweep = 0; sweep < 40; ++sweep) {
    bool rotated = false;
    for (size_t i = 0; i + 1 < p; ++i) {
      for (size_t j = i + 1; j < p; ++j) {
        const double alpha = col_dot(i, i);
        const double beta = col_dot(j, j);
        const double gamma = col_dot(i, j);
        if (std::abs(gamma) <= 1e-13 * std::sqrt(alpha * beta) || gamma == 0.0) {
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
  std::vector<double> sv(p, 0.0);
  double sv_max = 0.0;
  for (size_t i = 0; i < p; ++i) {
    sv[i] = std::sqrt(col_dot(i, i));
    sv_max = std::max(sv_max, sv[i]);
  }
  const double cutoff = sv_max * rcond;
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

// MlrPredictor over a deque window, refitting from a fresh matrix copy.
class Mlr {
 public:
  explicit Mlr(const MlrPredictor::Config& config) : config_(config) {}

  double Predict(const FeatureVector& f) const {
    if (!model_valid_) {
      if (window_.empty()) {
        return 0.0;
      }
      double sum = 0.0;
      for (const auto& [feat, cycles] : window_) {
        sum += cycles;
      }
      return sum / static_cast<double>(window_.size());
    }
    double pred = coef_[0];
    for (size_t c = 0; c < selected_.size(); ++c) {
      pred += coef_[c + 1] *
              (f[static_cast<size_t>(selected_[c])] - col_mean_[c]) / col_scale_[c];
    }
    return std::max(0.0, pred);
  }

  void Observe(const FeatureVector& f, double cycles) {
    if (config_.scrub_factor > 0.0 && model_valid_) {
      const double expected = Predict(f);
      const bool out_of_range =
          expected > 0.0 && (cycles > expected * config_.scrub_factor ||
                             cycles < expected / config_.scrub_factor);
      if (out_of_range && consecutive_outliers_ < 2) {
        ++consecutive_outliers_;
        ++scrubbed_;
        cycles = expected;
      } else {
        consecutive_outliers_ = 0;
      }
    }
    window_.emplace_back(f, cycles);
    while (window_.size() > config_.history) {
      window_.pop_front();
    }
    Refit();
  }

  // MlrPredictor::SaveState's byte layout.
  std::string Saved() const {
    std::stringstream stream;
    obs::SnapshotWriter w(stream);
    w.Str("mlr+fcbf");
    w.U64(window_.size());
    for (const auto& [f, cycles] : window_) {
      for (const double v : f) {
        w.F64(v);
      }
      w.F64(cycles);
    }
    w.I64(consecutive_outliers_);
    w.U64(selection_counts_.size());
    for (const auto& [feature, count] : selection_counts_) {
      w.I64(feature);
      w.U64(count);
    }
    return stream.str();
  }

  Matrix WindowMatrix() const {
    Matrix x(window_.size(), features::kNumFeatures);
    for (size_t r = 0; r < window_.size(); ++r) {
      for (size_t c = 0; c < x.cols(); ++c) {
        x.At(r, c) = window_[r].first[c];
      }
    }
    return x;
  }
  std::vector<double> WindowCycles() const {
    std::vector<double> y;
    for (const auto& [f, cycles] : window_) {
      y.push_back(cycles);
    }
    return y;
  }

  const std::vector<int>& last_selected() const { return selected_; }
  const std::map<int, size_t>& selection_counts() const { return selection_counts_; }
  size_t scrubbed() const { return scrubbed_; }

 private:
  void Refit() {
    model_valid_ = false;
    const size_t n = window_.size();
    if (n < config_.min_history) {
      return;
    }
    const Matrix x = WindowMatrix();
    const std::vector<double> y = WindowCycles();
    selected_ = reference::SelectFeatures(x, y, config_.fcbf_threshold).selected;
    for (int idx : selected_) {
      ++selection_counts_[idx];
    }
    const size_t p = selected_.size();
    col_mean_.assign(p, 0.0);
    col_scale_.assign(p, 1.0);
    for (size_t c = 0; c < p; ++c) {
      const auto col = static_cast<size_t>(selected_[c]);
      double mean = 0.0;
      for (size_t row = 0; row < n; ++row) {
        mean += x.At(row, col);
      }
      mean /= static_cast<double>(n);
      double var = 0.0;
      for (size_t row = 0; row < n; ++row) {
        const double d = x.At(row, col) - mean;
        var += d * d;
      }
      col_mean_[c] = mean;
      col_scale_[c] = std::sqrt(var / static_cast<double>(n));
      if (col_scale_[c] <= 1e-12) {
        col_scale_[c] = 1.0;
      }
    }
    Matrix design(n, p + 1);
    for (size_t row = 0; row < n; ++row) {
      design.At(row, 0) = 1.0;
      for (size_t c = 0; c < p; ++c) {
        design.At(row, c + 1) =
            (x.At(row, static_cast<size_t>(selected_[c])) - col_mean_[c]) / col_scale_[c];
      }
    }
    const LeastSquaresResult ls = reference::SolveLeastSquaresSvd(design, y, config_.svd_rcond);
    if (!ls.ok) {
      return;
    }
    coef_ = ls.coef;
    model_valid_ = true;
  }

  MlrPredictor::Config config_;
  std::deque<std::pair<FeatureVector, double>> window_;
  std::vector<int> selected_;
  std::vector<double> coef_;
  std::vector<double> col_mean_;
  std::vector<double> col_scale_;
  int consecutive_outliers_ = 0;
  bool model_valid_ = false;
  std::map<int, size_t> selection_counts_;
  size_t scrubbed_ = 0;
};

}  // namespace reference

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(Svd, SolverMatchesReferenceBitwise) {
  // Widths 1-8, square, tall and underdetermined shapes, and duplicated
  // columns that leave the system rank-deficient.
  util::Rng rng(41);
  SvdSolver solver;
  for (size_t p = 1; p <= 8; ++p) {
    for (const size_t rows : {size_t{1}, size_t{3}, p, size_t{60}}) {
      for (int trial = 0; trial < 6; ++trial) {
        Matrix a(rows, p);
        std::vector<double> y(rows);
        for (size_t r = 0; r < rows; ++r) {
          for (size_t c = 0; c < p; ++c) {
            a.At(r, c) = (trial % 3 == 2 && c > 0) ? a.At(r, 0) * 3.0
                         : c == 0 && trial % 2 == 1 ? 1.0
                                                     : rng.NextGaussian() * 50.0;
          }
          y[r] = rng.NextGaussian() * 1e4;
        }
        for (const double rcond : {1e-10, 1e-3}) {
          const LeastSquaresResult want = reference::SolveLeastSquaresSvd(a, y, rcond);
          const LeastSquaresResult got = SolveLeastSquaresSvd(a, y, rcond);
          solver.Reset(rows, p);
          std::copy(a.data(), a.data() + rows * p, solver.design());
          std::copy(y.begin(), y.end(), solver.response());
          const LeastSquaresResult& reused = solver.Solve(rcond);
          ASSERT_EQ(got.ok, want.ok) << "p=" << p << " rows=" << rows;
          EXPECT_EQ(got.rank, want.rank);
          EXPECT_TRUE(SameBits(got.coef, want.coef)) << "p=" << p << " rows=" << rows;
          EXPECT_EQ(reused.rank, want.rank);
          EXPECT_TRUE(SameBits(reused.coef, want.coef)) << "p=" << p << " rows=" << rows;
        }
      }
    }
  }
}

enum class WindowKind { kRandom, kCollinear, kConstant, kAbilene, kUpcI };

std::string KindName(WindowKind kind) {
  switch (kind) {
    case WindowKind::kRandom:
      return "Random";
    case WindowKind::kCollinear:
      return "Collinear";
    case WindowKind::kConstant:
      return "Constant";
    case WindowKind::kAbilene:
      return "Abilene";
    case WindowKind::kUpcI:
      return "UpcI";
  }
  return "?";
}

struct Observation {
  FeatureVector f;
  double cycles;
};

constexpr size_t kExactnessSteps = 240;

// Features of consecutive 100 ms bins of a seeded trace, costed like the
// model oracle's `query`.
std::vector<Observation> TraceObservations(trace::TraceSpec spec, const std::string& query) {
  spec.duration_s = static_cast<double>(kExactnessSteps) / 10.0;
  spec.seed = 104729;
  const trace::Trace trace = trace::TraceGenerator(spec).Generate();
  features::FeatureExtractor extractor;
  const core::ModelCostOracle oracle;
  trace::Batcher batcher(trace, 100'000);
  trace::Batch batch;
  std::vector<Observation> out;
  while (batcher.Next(batch) && out.size() < kExactnessSteps) {
    if (out.size() % 10 == 0) {
      extractor.StartInterval();
    }
    out.push_back({extractor.Extract(batch.packets), oracle.QueryCost(query, batch.packets)});
  }
  return out;
}

std::vector<Observation> MakeObservations(WindowKind kind) {
  if (kind == WindowKind::kAbilene) {
    return TraceObservations(trace::Abilene(), "flows");
  }
  if (kind == WindowKind::kUpcI) {
    return TraceObservations(trace::UpcI(), "p2p-detector");
  }
  util::Rng rng(static_cast<uint64_t>(kind) + 101);
  std::vector<Observation> out(kExactnessSteps);
  for (size_t i = 0; i < out.size(); ++i) {
    FeatureVector& f = out[i].f;
    double& y = out[i].cycles;
    const double b0 = 100.0 + rng.NextDouble() * 900.0;
    const double b1 = rng.NextDouble() * 50.0;
    const double b2 = rng.NextGaussian() * 10.0;
    for (size_t c = 0; c < f.size(); ++c) {
      switch (kind) {
        case WindowKind::kRandom:
          f[c] = rng.NextDouble() * 100.0 * static_cast<double>(c + 1);
          break;
        case WindowKind::kCollinear: {
          // Exact copies (tied relevance) and scaled copies of three bases.
          const double base = c % 3 == 0 ? b0 : c % 3 == 1 ? b1 : b2;
          f[c] = c % 6 < 3 ? base : base * (static_cast<double>(c) - 20.5);
          break;
        }
        default:
          // Every other column constant (zero for some), the rest noisy
          // copies of the bases.
          f[c] = c % 2 == 0 ? (c % 4 == 0 ? 0.0 : 7.0)
                            : (c % 3 == 0 ? b0 : b1) + rng.NextGaussian();
          break;
      }
    }
    y = kind == WindowKind::kRandom ? 3.0 * f[0] + 2.0 * f[5] + rng.NextGaussian() * 200.0
                                    : 40.0 * b0 + 300.0 * b1 + rng.NextGaussian() * 100.0;
    if (kind == WindowKind::kConstant && i >= 90 && i < 150) {
      y = 5000.0;  // a flat response: every relevance is zero
    }
  }
  return out;
}

// Isolated spikes and dips, plus one three-reading burst, so the scrub
// decisions (replace, or accept the third) are compared too.
void InjectOutliers(std::vector<Observation>& obs) {
  for (size_t i = 37; i < obs.size(); i += 37) {
    obs[i].cycles *= (i / 37) % 2 == 0 ? 25.0 : 0.02;
  }
  for (size_t i = 160; i < 163 && i < obs.size(); ++i) {
    obs[i].cycles *= 30.0;
  }
}

class FitBitExactness
    : public ::testing::TestWithParam<std::tuple<WindowKind, size_t, double>> {};

TEST_P(FitBitExactness, MatchesReferenceOverSlidingWindow) {
  const WindowKind kind = std::get<0>(GetParam());
  const size_t history = std::get<1>(GetParam());
  const double threshold = std::get<2>(GetParam());
  std::vector<Observation> obs = MakeObservations(kind);
  ASSERT_EQ(obs.size(), kExactnessSteps);
  InjectOutliers(obs);

  MlrPredictor::Config cfg;
  cfg.history = history;
  cfg.fcbf_threshold = threshold;
  MlrPredictor mlr(cfg);
  reference::Mlr want(cfg);
  size_t redundancy_fits = 0;
  for (size_t i = 0; i < obs.size(); ++i) {
    const auto& [f, cycles] = obs[i];
    const FeatureVector& probe = obs[(i + 1) % obs.size()].f;
    ASSERT_EQ(Bits(mlr.Predict(probe)), Bits(want.Predict(probe))) << "step " << i;
    mlr.Observe(f, cycles);
    want.Observe(f, cycles);
    ASSERT_EQ(mlr.last_selected(), want.last_selected()) << "step " << i;
    ASSERT_EQ(Bits(mlr.Predict(f)), Bits(want.Predict(f))) << "step " << i;
    FeatureVector doubled = probe;
    for (double& v : doubled) {
      v *= 2.0;
    }
    ASSERT_EQ(Bits(mlr.Predict(doubled)), Bits(want.Predict(doubled))) << "step " << i;

    // The window (scrub decisions included), outlier run and selection
    // counts, in the unchanged snapshot layout.
    std::stringstream stream;
    obs::SnapshotWriter w(stream);
    mlr.SaveState(w);
    ASSERT_EQ(stream.str(), want.Saved()) << "step " << i;

    // The dense entry point over the same window.
    const Matrix x = want.WindowMatrix();
    const std::vector<double> y = want.WindowCycles();
    const FcbfResult got = SelectFeatures(x, y, threshold);
    const FcbfResult ref = reference::SelectFeatures(x, y, threshold);
    ASSERT_EQ(got.selected, ref.selected) << "step " << i;
    ASSERT_TRUE(SameBits(got.relevance, ref.relevance)) << "step " << i;
    redundancy_fits +=
        std::count_if(ref.relevance.begin(), ref.relevance.end(),
                      [&](double r) { return r >= threshold && r > 0.0; }) >= 2;
  }
  EXPECT_GT(want.scrubbed(), 0u);
  if (kind != WindowKind::kRandom) {
    EXPECT_GT(redundancy_fits, 0u) << "the redundancy phase never ran";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Windows, FitBitExactness,
    ::testing::Combine(::testing::Values(WindowKind::kRandom, WindowKind::kCollinear,
                                         WindowKind::kConstant, WindowKind::kAbilene,
                                         WindowKind::kUpcI),
                       ::testing::Values(size_t{5}, size_t{30}, size_t{60}, size_t{120}),
                       ::testing::Values(0.6, 0.2)),
    [](const auto& info) {
      return KindName(std::get<0>(info.param)) + "_h" +
             std::to_string(std::get<1>(info.param)) + "_t" +
             std::to_string(static_cast<int>(std::get<2>(info.param) * 10));
    });

}  // namespace
}  // namespace shedmon::predict
