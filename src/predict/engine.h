#pragma once

#include <memory>

#include "src/features/extractor.h"
#include "src/predict/predictors.h"

namespace shedmon::predict {

// Per-query prediction state: the cost predictor plus the query's own
// feature counter. The counter re-counts the rows the query kept after
// sampling, from the bin's shared keys, so the regression history pairs the
// cycles a query actually spent with the features of the packets it
// actually processed (Alg. 1 lines 12 & 16). It holds bitmaps only: the
// extractor config's seed belongs to the system extractor that keyed the
// bin.
class PredictionEngine {
 public:
  PredictionEngine(const PredictorConfig& predictor_config,
                   const features::FeatureExtractor::Config& extractor_config);

  // Predicted cycles for processing all packets described by `full_features`.
  double PredictCycles(const features::FeatureVector& full_features);

  // Records the measured cost of the processed (possibly sampled) batch.
  void ObserveActual(const features::FeatureVector& processed_features, double cycles);

  // Marks the current interval boundary (resets "new"-item state).
  void StartInterval();

  features::FeatureCounter& counter() { return counter_; }
  CostPredictor& predictor() { return *predictor_; }
  const CostPredictor& predictor() const { return *predictor_; }

  // Returns the MLR predictor if that is what backs this engine, else null.
  const MlrPredictor* mlr() const;

 private:
  std::unique_ptr<CostPredictor> predictor_;
  features::FeatureCounter counter_;
};

}  // namespace shedmon::predict
