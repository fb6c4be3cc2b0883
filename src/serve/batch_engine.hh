/**
 * @file
 * Compute-bound batched inference engine for image/audio generative
 * models (Table 3), served "as they arrive ... with a maximum batch
 * size" chosen at peak throughput (§B).
 *
 * These engines are AQUA's natural memory producers: at their
 * throughput plateau tens of GB of HBM stay free (Fig. 2a/2b), and
 * donating it costs them almost nothing (Fig. 3b) because peer copies
 * only tax the SMs by a few percent.
 */

#ifndef AQUA_SERVE_BATCH_ENGINE_HH
#define AQUA_SERVE_BATCH_ENGINE_HH

#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "aqua/aqua_lib.hh"
#include "model/perf_model.hh"
#include "serve/offload_backend.hh"
#include "stats/timeseries.hh"
#include "workload/request.hh"

namespace aqua::serve {

/** Batch engine tunables. */
struct BatchEngineConfig
{
    /** Items per iteration; 0 = the model's peak-throughput batch. */
    std::uint32_t batchSize = 0;
    /** Call AQUA-LIB informStats() every this many iterations. */
    std::uint32_t informEveryIters = 1;
};

/**
 * The image/audio serving engine.
 */
class BatchEngine
{
  public:
    using CompletionCallback =
        std::function<void(const workload::RequestMetrics &)>;

    BatchEngine(hw::Server &server, hw::GpuId gpu,
                const model::ModelSpec &modelSpec,
                BatchEngineConfig config = {});

    BatchEngine(const BatchEngine &) = delete;
    BatchEngine &operator=(const BatchEngine &) = delete;
    ~BatchEngine();

    /** Attach AQUA-LIB for the producer role (batch-informer). */
    void attachAquaLib(core::AquaLib *lib);

    /** Submit a generation request. */
    void submit(const workload::Request &request);

    void onComplete(CompletionCallback cb) { completionCb = std::move(cb); }

    hw::GpuId gpuId() const { return myGpu; }
    std::uint64_t itemsGenerated() const { return itemsTotal; }
    std::size_t queuedCount() const { return queue.size(); }

    /** (time, items) series: generations completed per iteration. */
    const stats::TimeSeries &itemSeries() const { return items; }

    const std::vector<workload::RequestMetrics> &
    finished() const
    {
        return finishedMetrics;
    }

    /** Mean items/second over the engine's lifetime so far. */
    double throughput() const;

  private:
    void scheduleStep(aqua::sim::Tick when);
    void step();
    void doInform();

    hw::Server &server;
    hw::GpuId myGpu;
    model::ModelSpec spec;
    model::PerfModel perf;
    BatchEngineConfig cfg;
    core::AquaLib *aquaLib = nullptr;

    /** Weights + runtime overhead + peak-batch activations. */
    std::optional<aqua::mem::Region> workingSet;
    std::deque<workload::Request> queue;

    CompletionCallback completionCb;
    std::vector<workload::RequestMetrics> finishedMetrics;

    bool stepPending = false;
    std::uint32_t itersSinceInform = 0;
    std::uint64_t arrivalsSinceInform = 0;
    std::uint64_t itemsTotal = 0;
    std::uint32_t effectiveBatch;
    stats::TimeSeries items;
};

} // namespace aqua::serve

#endif // AQUA_SERVE_BATCH_ENGINE_HH
