#include "src/predict/predictors.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace shedmon::predict {

EwmaPredictor::EwmaPredictor(double alpha) : alpha_(alpha) {}

double EwmaPredictor::Predict(const features::FeatureVector& /*f*/) { return value_; }

void EwmaPredictor::Observe(const features::FeatureVector& /*f*/, double cycles) {
  ++count_;
  if (!seeded_) {
    value_ = cycles;
    seeded_ = true;
  } else {
    value_ = alpha_ * cycles + (1.0 - alpha_) * value_;
  }
}

SlrPredictor::SlrPredictor(int feature_index, size_t history)
    : feature_(feature_index), history_(history) {}

double SlrPredictor::Predict(const features::FeatureVector& f) {
  const size_t n = window_.size();
  if (n == 0) {
    return 0.0;
  }
  if (n == 1) {
    return window_.back().second;
  }
  double sx = 0.0, sy = 0.0;
  for (const auto& [x, y] : window_) {
    sx += x;
    sy += y;
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double sxx = 0.0, sxy = 0.0;
  for (const auto& [x, y] : window_) {
    sxx += (x - mx) * (x - mx);
    sxy += (x - mx) * (y - my);
  }
  if (sxx <= 1e-12) {
    return my;
  }
  const double slope = sxy / sxx;
  const double intercept = my - slope * mx;
  return std::max(0.0, intercept + slope * f[static_cast<size_t>(feature_)]);
}

void SlrPredictor::Observe(const features::FeatureVector& f, double cycles) {
  window_.emplace_back(f[static_cast<size_t>(feature_)], cycles);
  while (window_.size() > history_) {
    window_.pop_front();
  }
}

MlrPredictor::MlrPredictor() : MlrPredictor(Config()) {}

MlrPredictor::MlrPredictor(const Config& config) : config_(config) {}

std::pair<RowRun, RowRun> MlrPredictor::Window() const {
  constexpr size_t kCols = features::kNumFeatures;
  const size_t n = y_.size();
  return {{x_.data() + head_ * kCols, y_.data() + head_, n - head_},
          {x_.data(), y_.data(), head_}};
}

std::span<const double> MlrPredictor::newest_features() const {
  if (y_.empty()) {
    return {};
  }
  // Rows fill in order, then head_ is the next row to be overwritten.
  const size_t newest = (head_ == 0 ? y_.size() : head_) - 1;
  return {x_.data() + newest * features::kNumFeatures, features::kNumFeatures};
}

void MlrPredictor::Push(const features::FeatureVector& f, double cycles) {
  if (y_.size() < config_.history) {
    x_.insert(x_.end(), f.begin(), f.end());
    y_.push_back(cycles);
    return;
  }
  if (config_.history == 0) {
    return;
  }
  std::copy(f.begin(), f.end(), x_.begin() + static_cast<std::ptrdiff_t>(head_ * f.size()));
  y_[head_] = cycles;
  head_ = (head_ + 1) % config_.history;
}

void MlrPredictor::Refit() {
  model_valid_ = false;
  const size_t n = y_.size();
  if (n < config_.min_history) {
    return;
  }

  // FCBF over the full 42-feature window.
  constexpr size_t kCols = features::kNumFeatures;
  const auto [older, newer] = Window();
  last_selected_ = fcbf_.Select(older, newer, kCols, kCols, config_.fcbf_threshold).selected;
  for (int idx : last_selected_) {
    ++selection_counts_[idx];
  }

  // OLS with intercept over the selected predictors (eq. 3.1 / 3.2). The
  // columns are standardized first so the singular-value truncation acts on
  // comparable scales; near-collinear feature combinations then fall below
  // rcond and are dropped from the fit instead of producing huge canceling
  // coefficients that explode out of sample. FCBF already summed each
  // column's mean and centred square, so the scales cost no window pass.
  const size_t p = last_selected_.size();
  col_mean_.resize(p);
  col_scale_.resize(p);
  for (size_t c = 0; c < p; ++c) {
    const auto sel = static_cast<size_t>(last_selected_[c]);
    col_mean_[c] = fcbf_.mean()[sel];
    col_scale_[c] = std::sqrt(fcbf_.sum_sq()[sel] / static_cast<double>(n));
    if (col_scale_[c] <= 1e-12) {
      col_scale_[c] = 1.0;  // constant column: contributes via the intercept
    }
  }
  solver_.Reset(n, p + 1);
  double* design = solver_.design();
  double* response = solver_.response();
  ForEachRow(older, newer, kCols, [&](const double* x, double cycles) {
    design[0] = 1.0;
    for (size_t c = 0; c < p; ++c) {
      design[c + 1] =
          (x[static_cast<size_t>(last_selected_[c])] - col_mean_[c]) / col_scale_[c];
    }
    design += p + 1;
    *response++ = cycles;
  });
  const LeastSquaresResult& ls = solver_.Solve(config_.svd_rcond);
  if (!ls.ok) {
    return;
  }
  coef_ = ls.coef;
  model_valid_ = true;
}

double MlrPredictor::Predict(const features::FeatureVector& f) {
  if (!model_valid_) {
    // Cold start: mean of whatever history exists.
    if (y_.empty()) {
      return 0.0;
    }
    double sum = 0.0;
    const auto [older, newer] = Window();
    ForEachRow(older, newer, features::kNumFeatures,
               [&](const double* /*x*/, double cycles) { sum += cycles; });
    return sum / static_cast<double>(y_.size());
  }
  double pred = coef_[0];
  for (size_t c = 0; c < last_selected_.size(); ++c) {
    pred += coef_[c + 1] *
            (f[static_cast<size_t>(last_selected_[c])] - col_mean_[c]) / col_scale_[c];
  }
  return std::max(0.0, pred);
}

void MlrPredictor::Observe(const features::FeatureVector& f, double cycles) {
  // Scrub measurements corrupted by events unrelated to the traffic
  // (§3.2.4: the thesis replaces context-switch-polluted readings with the
  // prediction so one bad sample cannot poison the regression window).
  // Corruption is sporadic while genuine cost-regime changes persist, so a
  // run of consecutive out-of-range observations is accepted as real.
  if (config_.scrub_factor > 0.0 && model_valid_) {
    const double expected = Predict(f);
    const bool out_of_range =
        expected > 0.0 && (cycles > expected * config_.scrub_factor ||
                           cycles < expected / config_.scrub_factor);
    if (out_of_range && consecutive_outliers_ < 2) {
      ++consecutive_outliers_;
      cycles = expected;
    } else {
      consecutive_outliers_ = 0;
    }
  }
  Push(f, cycles);
  Refit();
}

namespace {

// Every predictor opens its state section with a name tag so a stream saved
// by one kind can never be silently misread by another.
void CheckTag(obs::SnapshotReader& r, std::string_view expected) {
  const std::string tag = r.Str();
  if (tag != expected) {
    throw obs::SnapshotError("predictor state tagged '" + tag + "', expected '" +
                             std::string(expected) + "'");
  }
}

}  // namespace

void EwmaPredictor::SaveState(obs::SnapshotWriter& w) const {
  w.Str(name());
  w.F64(value_);
  w.Bool(seeded_);
  w.U64(count_);
}

void EwmaPredictor::LoadState(obs::SnapshotReader& r) {
  CheckTag(r, name());
  value_ = r.F64();
  seeded_ = r.Bool();
  count_ = static_cast<size_t>(r.U64());
}

void SlrPredictor::SaveState(obs::SnapshotWriter& w) const {
  w.Str(name());
  w.U64(window_.size());
  for (const auto& [x, y] : window_) {
    w.F64(x);
    w.F64(y);
  }
}

void SlrPredictor::LoadState(obs::SnapshotReader& r) {
  CheckTag(r, name());
  window_.clear();
  const uint64_t n = r.U64();
  for (uint64_t i = 0; i < n; ++i) {
    const double x = r.F64();
    const double y = r.F64();
    window_.emplace_back(x, y);
  }
}

void MlrPredictor::SaveState(obs::SnapshotWriter& w) const {
  w.Str(name());
  w.U64(y_.size());
  const auto [older, newer] = Window();
  ForEachRow(older, newer, features::kNumFeatures, [&](const double* x, double cycles) {
    for (int c = 0; c < features::kNumFeatures; ++c) {
      w.F64(x[c]);
    }
    w.F64(cycles);
  });
  w.I64(consecutive_outliers_);
  w.U64(selection_counts_.size());
  for (const auto& [feature, count] : selection_counts_) {
    w.I64(feature);
    w.U64(count);
  }
}

void MlrPredictor::LoadState(obs::SnapshotReader& r) {
  CheckTag(r, name());
  x_.clear();
  y_.clear();
  head_ = 0;
  const uint64_t n = r.U64();
  if (n > config_.history) {
    throw obs::SnapshotError("predictor window of " + std::to_string(n) +
                             " rows exceeds its history of " +
                             std::to_string(config_.history));
  }
  for (uint64_t i = 0; i < n; ++i) {
    features::FeatureVector f{};
    for (double& v : f) {
      v = r.F64();
    }
    Push(f, r.F64());
  }
  const int64_t outliers = r.I64();
  // The fit is a pure function of the window; recompute it instead of
  // serializing coefficients so the model can never disagree with its own
  // history. Refit() increments selection_counts_, so the saved counts are
  // reinstated afterwards to keep save -> load -> save byte-identical.
  Refit();
  consecutive_outliers_ = static_cast<int>(outliers);
  selection_counts_.clear();
  const uint64_t counts = r.U64();
  for (uint64_t i = 0; i < counts; ++i) {
    const int64_t feature = r.I64();
    const uint64_t count = r.U64();
    selection_counts_[static_cast<int>(feature)] = static_cast<size_t>(count);
  }
}

std::unique_ptr<CostPredictor> MakePredictor(const PredictorConfig& config) {
  switch (config.kind) {
    case PredictorKind::kEwma:
      return std::make_unique<EwmaPredictor>(config.ewma_alpha);
    case PredictorKind::kSlr:
      return std::make_unique<SlrPredictor>(config.slr_feature, config.history);
    case PredictorKind::kMlr: {
      MlrPredictor::Config c;
      c.history = config.history;
      c.fcbf_threshold = config.fcbf_threshold;
      return std::make_unique<MlrPredictor>(c);
    }
  }
  return nullptr;
}

}  // namespace shedmon::predict
