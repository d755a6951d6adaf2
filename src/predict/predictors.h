#pragma once

#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/features/features.h"
#include "src/obs/snapshot.h"
#include "src/predict/fcbf.h"

namespace shedmon::predict {

// Predicts the CPU cycles a query will need for a batch with the given
// feature vector, learning online from (features, measured cycles) pairs.
class CostPredictor {
 public:
  virtual ~CostPredictor() = default;

  virtual double Predict(const features::FeatureVector& f) = 0;
  virtual void Observe(const features::FeatureVector& f, double cycles) = 0;
  virtual std::string_view name() const = 0;
  // Number of observations currently backing the model (0 = cold).
  virtual size_t history_size() const = 0;

  // Snapshot/restore of the learned state. Each implementation writes a
  // name tag first and LoadState verifies it, so restoring into the wrong
  // predictor kind fails loudly instead of misreading the stream. The
  // contract is behavioral identity: after LoadState, Predict/Observe emit
  // exactly the sequence the saved instance would have, and a second
  // SaveState produces byte-identical output (round-trip identity).
  virtual void SaveState(obs::SnapshotWriter& w) const = 0;
  virtual void LoadState(obs::SnapshotReader& r) = 0;
};

// §3.4.1: exponentially weighted moving average of past cycle usage. Blind to
// the input traffic, so it trails every workload change.
class EwmaPredictor : public CostPredictor {
 public:
  explicit EwmaPredictor(double alpha = 0.3);

  double Predict(const features::FeatureVector& f) override;
  void Observe(const features::FeatureVector& f, double cycles) override;
  std::string_view name() const override { return "ewma"; }
  size_t history_size() const override { return count_; }
  void SaveState(obs::SnapshotWriter& w) const override;
  void LoadState(obs::SnapshotReader& r) override;

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
  size_t count_ = 0;
};

// §3.4.1: simple linear regression on one fixed feature (packets by default,
// the best single predictor for most queries in Table 3.2).
class SlrPredictor : public CostPredictor {
 public:
  explicit SlrPredictor(int feature_index = features::kFeatPackets, size_t history = 60);

  double Predict(const features::FeatureVector& f) override;
  void Observe(const features::FeatureVector& f, double cycles) override;
  std::string_view name() const override { return "slr"; }
  size_t history_size() const override { return window_.size(); }
  void SaveState(obs::SnapshotWriter& w) const override;
  void LoadState(obs::SnapshotReader& r) override;

 private:
  int feature_;
  size_t history_;
  std::deque<std::pair<double, double>> window_;  // (x, y)
};

// §3.2.2-3.2.3: FCBF feature selection + multiple linear regression with an
// intercept over a sliding window of n batches, refit on every observation.
class MlrPredictor : public CostPredictor {
 public:
  struct Config {
    size_t history = 60;          // n observations (6 s of 100 ms batches)
    double fcbf_threshold = 0.6;  // relevance cutoff (Fig. 3.5 sweet spot)
    // Relative singular-value cutoff of the (standardized) design matrix.
    // Traffic features are strongly collinear (e.g. packets vs repeated
    // counts); truncating weak directions keeps the out-of-sample variance
    // bounded — the multicollinearity concern of §3.2.3 handled numerically.
    double svd_rcond = 1e-3;
    size_t min_history = 5;  // below this, fall back to mean cost
    // §3.2.4-style measurement scrubbing: an observation that deviates from
    // the model's own prediction *at the same features* by more than this
    // factor is treated as corrupted (context switch, bus contention) and
    // replaced by the prediction. 0 disables scrubbing.
    double scrub_factor = 8.0;
  };

  MlrPredictor();
  explicit MlrPredictor(const Config& config);

  double Predict(const features::FeatureVector& f) override;
  void Observe(const features::FeatureVector& f, double cycles) override;
  std::string_view name() const override { return "mlr+fcbf"; }
  size_t history_size() const override { return y_.size(); }

  // Features used by the most recent fit (after FCBF), for Table 3.2.
  const std::vector<int>& last_selected() const { return last_selected_; }
  // How often each feature has been selected across the run.
  const std::map<int, size_t>& selection_counts() const { return selection_counts_; }
  // Features of the newest observation in the window (what the last Observe
  // was fed); empty before the first.
  std::span<const double> newest_features() const;

  // Saves the observation window plus scrub/selection bookkeeping; the fit
  // itself (coefficients, selected features) is recomputed deterministically
  // from the window on load, then the selection counts are reinstated so the
  // refit's own increments don't inflate them past the saved run's.
  void SaveState(obs::SnapshotWriter& w) const override;
  void LoadState(obs::SnapshotReader& r) override;

 private:
  // The window's rows, oldest first: the ring from head_ on, then its start.
  std::pair<RowRun, RowRun> Window() const;
  void Push(const features::FeatureVector& f, double cycles);
  void Refit();

  Config config_;
  // The observation window, a ring of up to config_.history rows that the
  // fit reads in place: row i's features are x_[i * kNumFeatures, ...) and
  // its cycles y_[i]. Rows append in order until the ring is full; from then
  // on head_ is the oldest row and the next one to be overwritten.
  std::vector<double> x_;
  std::vector<double> y_;
  size_t head_ = 0;
  FcbfKernel fcbf_;
  SvdSolver solver_;
  std::vector<int> last_selected_;
  std::vector<double> coef_;      // intercept followed by per-selected weights
  std::vector<double> col_mean_;  // standardization of the selected columns
  std::vector<double> col_scale_;
  int consecutive_outliers_ = 0;
  bool model_valid_ = false;
  std::map<int, size_t> selection_counts_;
};

enum class PredictorKind { kMlr, kSlr, kEwma };

struct PredictorConfig {
  PredictorKind kind = PredictorKind::kMlr;
  size_t history = 60;
  double fcbf_threshold = 0.6;
  double ewma_alpha = 0.3;
  int slr_feature = features::kFeatPackets;
};

std::unique_ptr<CostPredictor> MakePredictor(const PredictorConfig& config);

}  // namespace shedmon::predict
