#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/api/pipeline.h"
#include "src/exec/thread_pool.h"
#include "src/trace/generator.h"

namespace shedmon::api {

// Runs one configured pipeline over a whole trace: builds it (registering
// the builder's queries and sinks), pushes every record and finishes. The
// returned pipeline holds the system log and the live reference instances.
std::unique_ptr<Pipeline> RunTrace(const PipelineBuilder& builder, const trace::Trace& trace);

// Fans `cells` independent RunTrace runs — the K-sweeps and system-comparison
// grids of the paper-figure programs — over `pool` (serially when null).
// Each cell gets its own system and cost oracle over the shared read-only
// trace, so result i corresponds to cell i and is bit-identical to running
// that cell alone. make_builder must be safe to call concurrently.
std::vector<std::unique_ptr<Pipeline>> RunPipelineGrid(
    size_t cells, const std::function<PipelineBuilder(size_t)>& make_builder,
    const trace::Trace& trace, exec::ThreadPool* pool);

}  // namespace shedmon::api
