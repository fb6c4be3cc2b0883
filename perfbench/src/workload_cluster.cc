/**
 * @file
 * cluster_scale: the 64-GPU ClusterSim (8 NVLink domains x 8 GPUs,
 * open-loop Poisson arrivals, federated hot-prefix layer) on the
 * sequential single-queue twin, with no placement churn. The initial
 * MILP placement runs in ClusterSim::setup() and so falls in set-up.
 *
 * The traced run adds the sharded-executor column: the same config on
 * runClusterSharded() with min(4, nproc) threads, which must
 * reproduce the sequential digests exactly.
 */

#include <sched.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exp/cluster_sim.hh"
#include "report.hh"
#include "workload.hh"

namespace perfbench {

using namespace aqua;

namespace {

constexpr std::uint64_t kRequests = 150000;

exp::ClusterSimConfig
clusterConfig(std::uint64_t seed)
{
    exp::ClusterSimConfig cfg;
    cfg.numDomains = 8;
    cfg.gpusPerDomain = 8;
    cfg.modelsPerDomain = 2;
    cfg.seed = seed;
    cfg.numRequests = kRequests;
    cfg.arrivalRatePerDomain = 4000.0;
    cfg.prefixProb = 0.3;
    cfg.prefixPool = 64;
    cfg.placementEvents = 0;
    return cfg;
}

class ClusterScale : public Instance
{
  public:
    ClusterScale(std::uint64_t seed, Spans *spans)
        : spans(spans), cfg(clusterConfig(seed)),
          net(queue, cfg.numDomains, cfg.seed, cfg.lookahead()),
          model(cfg, net)
    {
        Scope s(spans, "placer.initial");
        model.setup();
    }

    void
    run() override
    {
        Scope s(spans, "sim.run");
        events = queue.runUntil(sim::maxTick);
    }

    Outputs
    outputs() override
    {
        Outputs out;
        std::uint64_t arrivals = 0, completed = 0, forwards = 0;
        std::uint64_t hits = 0, lookups = 0, streamed = 0, rctTicks = 0;
        for (std::size_t d = 0; d < cfg.numDomains; ++d) {
            const exp::ClusterDomainStats &s = model.stats(d);
            arrivals += s.arrivals;
            completed += s.completed;
            forwards += s.forwardsOut;
            hits += s.prefixHitsLocal + s.prefixHitsRemote;
            lookups += s.prefixHitsLocal + s.prefixHitsRemote +
                       s.prefixMisses;
            streamed += s.prefixBytesStreamed;
            rctTicks += s.sumRctTicks;
        }
        out.attempted = cfg.numRequests;
        out.failed = cfg.numRequests - std::min(cfg.numRequests, completed);
        out.broken = out.failed;
        if (arrivals != cfg.numRequests || completed != arrivals)
            out.errors.push_back(
                std::to_string(arrivals - std::min(arrivals, completed)) +
                " of " + std::to_string(arrivals) +
                " requests unfinished (" + std::to_string(cfg.numRequests) +
                " issued)");
        out.rctSumS = sim::ticksToSec(rctTicks);
        out.rctCount = completed;
        stats = model.statsJson();
        if (const json::Value *p = stats.find("placer"))
            out.objectiveSum = p->getDouble("objective", 0.0);
        out.objectives = 1;

        Digest dg;
        for (std::uint64_t v : model.digests())
            dg.mix(v);
        dg.mix(events);
        dg.mix(net.crossMessages());
        for (char c : json::Value(stats).dump())
            dg.mix(static_cast<unsigned char>(c));
        out.digest = dg.value();

        auto &k = out.counters;
        k["sim.events"] = double(events);
        k["sim.cross_messages"] = double(net.crossMessages());
        k["cluster.prefix_hits"] = double(hits);
        k["cluster.prefix_lookups"] = double(lookups);
        k["cluster.prefix_bytes_streamed"] = double(streamed);
        k["cluster.forwards"] = double(forwards);
        return out;
    }

    void
    afterTrace(Spans &traced, Outputs &out) override
    {
        exp::ClusterRunResult sharded;
        {
            Scope s(&traced, "sim.sharded.run");
            sharded = exp::runClusterSharded(cfg, shardedThreads());
        }
        exp::ClusterRunResult seq;
        seq.stats = stats;
        seq.digests = model.digests();
        seq.eventsFired = events;
        seq.crossMessages = net.crossMessages();
        std::string why;
        if (!exp::equivalentRuns(seq, sharded, &why))
            out.errors.push_back("sharded run differs from sequential: " +
                                 why);
        out.counters["sim.sharded.windows"] += double(sharded.windows);
        out.counters["sim.sharded.events"] += double(sharded.eventsFired);
    }

  private:
    Spans *spans;
    exp::ClusterSimConfig cfg;
    sim::EventQueue queue;
    sim::SequentialDomainNet net;
    exp::ClusterSim model;
    std::uint64_t events = 0;
    json::Object stats;
};

} // anonymous namespace

unsigned
shardedThreads()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    int usable = sched_getaffinity(0, sizeof set, &set) == 0
                     ? CPU_COUNT(&set)
                     : int(std::thread::hardware_concurrency());
    return unsigned(std::clamp(usable, 1, 4));
}

WorkloadDef
clusterScaleWorkload()
{
    return {"cluster_scale", 4, [](std::uint64_t seed, Spans *spans) {
                return std::make_unique<ClusterScale>(seed, spans);
            }};
}

} // namespace perfbench
