#include "serve/batch_engine.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace aqua::serve {

using namespace aqua::sim;

/** Housekeeping cadence while idle. */
constexpr Tick idleTickPeriod = 100 * nsPerMs;

BatchEngine::BatchEngine(hw::Server &server, hw::GpuId gpu,
                         const model::ModelSpec &modelSpec,
                         BatchEngineConfig config)
    : server(server), myGpu(gpu), spec(modelSpec),
      perf(modelSpec, server.gpu(gpu).spec()), cfg(config),
      items("items")
{
    if (spec.isText())
        panic("BatchEngine: %s is a text model; use VllmEngine",
              spec.name.c_str());
    effectiveBatch =
        cfg.batchSize != 0 ? cfg.batchSize : spec.maxUsefulBatch;
    std::uint64_t footprint =
        perf.memoryFootprint(effectiveBatch, 0);
    workingSet = server.gpu(gpu).hbm().allocate(footprint);
    if (!workingSet) {
        panic("BatchEngine: %s working set does not fit on %s",
              spec.name.c_str(), server.gpu(gpu).name().c_str());
    }
}

BatchEngine::~BatchEngine()
{
    if (workingSet)
        server.gpu(myGpu).hbm().free(*workingSet);
}

void
BatchEngine::attachAquaLib(core::AquaLib *lib)
{
    aquaLib = lib;
    scheduleStep(server.simulation().now());
}

void
BatchEngine::submit(const workload::Request &request)
{
    if (request.arrival > server.simulation().now()) {
        workload::Request r = request;
        server.simulation().queue().schedule(r.arrival, [this, r] {
            submit(r);
        });
        return;
    }
    queue.push_back(request);
    ++arrivalsSinceInform;
    scheduleStep(server.simulation().now());
}

void
BatchEngine::scheduleStep(Tick when)
{
    if (stepPending)
        return;
    EventQueue &q = server.simulation().queue();
    if (when < q.now())
        when = q.now();
    stepPending = true;
    q.schedule(when, [this] {
        stepPending = false;
        step();
    });
}

void
BatchEngine::doInform()
{
    if (!aquaLib)
        return;
    core::EngineStats st;
    st.now = server.simulation().now();
    st.pendingRequests = queue.size();
    st.runningRequests = 0;
    st.arrivalsSinceLast = arrivalsSinceInform;
    // The batch engine has no reserved pool; it reports raw free HBM
    // (accurate right after a batch completes, §B).
    st.freePoolBytes = server.gpu(myGpu).hbm().freeBytes();
    st.reservedPoolBytes = st.freePoolBytes;
    arrivalsSinceInform = 0;

    std::int64_t delta = aquaLib->informStats(st);
    if (delta < 0) {
        // Free HBM is directly donatable; no pool to shrink.
        aquaLib->confirmDonate(static_cast<std::uint64_t>(-delta));
    }
    // Positive deltas (a completed reclaim) just mean the HBM is free
    // again; nothing to grow.
}

double
BatchEngine::throughput() const
{
    Tick now = server.simulation().now();
    if (now == 0)
        return 0.0;
    return static_cast<double>(itemsTotal) / ticksToSec(now);
}

void
BatchEngine::step()
{
    Tick now = server.simulation().now();
    if (++itersSinceInform >= cfg.informEveryIters) {
        itersSinceInform = 0;
        doInform();
    }

    if (queue.empty()) {
        if (aquaLib)
            scheduleStep(now + idleTickPeriod);
        return;
    }

    std::size_t batch =
        std::min<std::size_t>(queue.size(), effectiveBatch);
    Tick t = perf.batchIterTime(batch);
    Tick completion = server.gpu(myGpu).submitCompute(t);

    for (std::size_t i = 0; i < batch; ++i) {
        workload::Request request = queue.front();
        queue.pop_front();
        workload::RequestMetrics m;
        m.id = request.id;
        m.arrival = request.arrival;
        m.firstToken = completion;
        m.finish = completion;
        m.tokensGenerated = 1;
        finishedMetrics.push_back(m);
        if (completionCb) {
            server.simulation().queue().schedule(completion,
                                                 [this, m] {
                completionCb(m);
            });
        }
    }
    itemsTotal += batch;
    items.record(completion, static_cast<double>(batch));
    scheduleStep(completion);
}

} // namespace aqua::serve
