#include "src/predict/engine.h"

namespace shedmon::predict {

PredictionEngine::PredictionEngine(const PredictorConfig& predictor_config,
                                   const features::FeatureExtractor::Config& extractor_config)
    : predictor_(MakePredictor(predictor_config)),
      counter_(extractor_config.mrb_components, extractor_config.mrb_bits) {}

double PredictionEngine::PredictCycles(const features::FeatureVector& full_features) {
  return predictor_->Predict(full_features);
}

void PredictionEngine::ObserveActual(const features::FeatureVector& processed_features,
                                     double cycles) {
  predictor_->Observe(processed_features, cycles);
}

void PredictionEngine::StartInterval() { counter_.StartInterval(); }

const MlrPredictor* PredictionEngine::mlr() const {
  return dynamic_cast<const MlrPredictor*>(predictor_.get());
}

}  // namespace shedmon::predict
