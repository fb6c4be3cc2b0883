#include "exp/cluster_sim.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "exp/experiments.hh"
#include "sim/logging.hh"

namespace aqua::exp {

using aqua::sim::Tick;
using aqua::sim::usToTicks;

namespace {

/** Digest event codes (stable ABI of the equivalence check). */
enum : std::uint32_t
{
    evArrival = 1,
    evForward = 2,
    evServe = 3,
    evComplete = 4,
    evPrefixHit = 5,
    evPrefixMiss = 6,
    evViewApply = 7,
    evChurn = 8,
    evRemoteLookup = 9,
};

constexpr std::uint64_t fnvPrime = 1099511628211ULL;

/** KV bytes of one hot prefix chain. */
constexpr std::uint64_t prefixBytes = 64ull << 20;
/**
 * Node budget of the placer's full solves. Cluster-scale instances
 * rarely prove optimality, so the budget is mostly spent improving
 * the greedy incumbent; keep it small — a full solve runs inline in a
 * simulation event, on both executors.
 */
constexpr std::uint64_t placerNodeBudget = 500;

/** Inter-server fabric: peak bandwidth (bytes/s) and latency. */
constexpr double interBandwidth = 50e9;
constexpr double interLatencyUs = 2.0;
/** Software floor on any cross-domain message; the executor
 *  lookahead is interLatencyUs + rpcFloorUs. */
constexpr double rpcFloorUs = 25.0;

/** Service model: per-token costs (microseconds). */
constexpr double prefillUsPerToken = 0.4;
constexpr double decodeUsPerToken = 12.0;

std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    return (h ^ v) * fnvPrime;
}

/** Structural prefix identity: key/verify derived from the pool id. */
std::uint64_t
prefixKey(std::size_t id)
{
    return static_cast<std::uint64_t>(id) * 2654435761ULL + 1;
}

std::uint64_t
prefixVerify(std::size_t id)
{
    return static_cast<std::uint64_t>(id) * 31ULL + 7;
}

} // anonymous namespace

Tick
ClusterSimConfig::lookahead() const
{
    return usToTicks(interLatencyUs + rpcFloorUs);
}

/** Versioned model -> domain assignment, broadcast by domain 0. */
struct ClusterSim::View
{
    std::uint64_t version = 0;
    /** domain[m], -1 when model m has departed. */
    std::vector<int> domain;
};

/** One in-flight request. */
struct ClusterSim::ClusterRequest
{
    std::uint64_t id = 0;
    std::uint32_t origin = 0;
    int model = -1;
    std::uint32_t promptTokens = 0;
    std::uint32_t decodeTokens = 0;
    /** Hot-prefix pool id, -1 for prefix-less requests. */
    int prefix = -1;
    std::uint32_t hops = 0;
    Tick arrival = 0;
};

/** One NVLink domain's private world. */
struct ClusterSim::Domain
{
    ClusterDomainStats stats;
    trace::TraceLog traceLog;
    /** Stream 0: arrival process. */
    sim::Random arrivalRng;
    /** Stream 1: service jitter. */
    sim::Random serviceRng;
    /** Stream 2: request shape (model, tokens, prefix). */
    sim::Random shapeRng;
    /** Next-free tick per local GPU. */
    std::vector<Tick> gpuFree;
    /** Latest applied placement view. */
    View view;
    /** Registry of hot prefixes homed in this domain. */
    cluster::PrefixRegistry registry;
    /** Arrivals still to generate here. */
    std::uint64_t arrivalsLeft = 0;
    std::uint64_t nextReq = 0;

    Domain(const sim::DomainNet &net, std::size_t d, std::size_t gpus)
        : arrivalRng(net.domainRandom(d, 0)),
          serviceRng(net.domainRandom(d, 1)),
          shapeRng(net.domainRandom(d, 2)),
          gpuFree(gpus, 0)
    {}
};

ClusterSim::ClusterSim(const ClusterSimConfig &config,
                       sim::DomainNet &net)
    : cfg(config), net(net),
      interLink("inter-server", interBandwidth, 3ull << 20,
                usToTicks(interLatencyUs))
{
    if (cfg.numDomains == 0 || cfg.numDomains != net.numDomains())
        sim::panic("ClusterSim: config/net domain mismatch (%zu vs "
                   "%zu)", cfg.numDomains, net.numDomains());
    for (std::size_t d = 0; d < cfg.numDomains; ++d)
        domains.push_back(std::make_unique<Domain>(net, d,
                                                   cfg.gpusPerDomain));
}

ClusterSim::~ClusterSim() = default;

const ClusterDomainStats &
ClusterSim::stats(std::size_t domain) const
{
    return domains.at(domain)->stats;
}

std::string
ClusterSim::traceJsonl(std::size_t domain) const
{
    return domains.at(domain)->traceLog.toJsonl();
}

std::vector<std::uint64_t>
ClusterSim::digests() const
{
    std::vector<std::uint64_t> out;
    out.reserve(domains.size());
    for (const auto &d : domains)
        out.push_back(d->stats.digest);
    return out;
}

void
ClusterSim::digestEvent(std::size_t d, Tick t, std::uint32_t code,
                        std::uint64_t a, std::uint64_t b)
{
    auto &h = domains[d]->stats.digest;
    h = fnvMix(h, t);
    h = fnvMix(h, code);
    h = fnvMix(h, a);
    h = fnvMix(h, b);
}

template <typename MakeFields>
void
ClusterSim::trace(std::size_t d, Tick t, const char *category,
                  MakeFields &&makeFields)
{
    if (cfg.captureTrace)
        domains[d]->traceLog.emit(t, category, makeFields());
}

void
ClusterSim::setup()
{
    // Initial placement: modelsPerDomain models per server sampled
    // from the balanced split, placed by one full MILP solve. Server
    // index s is served by domain s; the spare GPU slots absorb churn
    // arrivals.
    placer::PlacementInput in = makeClusterInput(
        cfg.numDomains, cfg.modelsPerDomain, "balanced", cfg.seed);
    in.gpusPerServer = cfg.gpusPerDomain;
    placer::RepairConfig rc;
    rc.solveMaxNodes = placerNodeBudget;
    placerState = std::make_unique<placer::IncrementalPlacer>(
        std::move(in), rc);

    ++viewVersion;
    View initial;
    initial.version = viewVersion;
    initial.domain = placerState->assignment();
    for (auto &d : domains)
        d->view = initial;

    // Per-domain arrival quota (remainder to the low domains).
    std::uint64_t per = cfg.numRequests / cfg.numDomains;
    std::uint64_t rem = cfg.numRequests % cfg.numDomains;
    for (std::size_t d = 0; d < cfg.numDomains; ++d) {
        domains[d]->arrivalsLeft = per + (d < rem ? 1 : 0);
        scheduleNextArrival(d);
    }

    // Churn runs on domain 0 (the coordinator's domain).
    for (std::size_t k = 0; k < cfg.placementEvents; ++k) {
        Tick when = static_cast<Tick>(
            aqua::sim::secToTicks((k + 1) * cfg.churnIntervalSec));
        net.queueOf(0).schedule(when, [this, k] { runChurn(k); });
    }
}

void
ClusterSim::scheduleNextArrival(std::size_t d)
{
    Domain &dom = *domains[d];
    if (dom.arrivalsLeft == 0)
        return;
    --dom.arrivalsLeft;
    aqua::sim::EventQueue &q = net.queueOf(d);
    double gap = dom.arrivalRng.exponential(cfg.arrivalRatePerDomain);
    Tick when = q.now() + std::max<Tick>(
        1, static_cast<Tick>(aqua::sim::secToTicks(gap)));

    ClusterRequest req;
    req.id = (static_cast<std::uint64_t>(d) << 40) | dom.nextReq++;
    req.origin = static_cast<std::uint32_t>(d);
    q.schedule(when, [this, d, req]() mutable { onArrival(d, req); });
}

void
ClusterSim::onArrival(std::size_t d, ClusterRequest req)
{
    Domain &dom = *domains[d];
    Tick now = net.queueOf(d).now();
    req.arrival = now;
    req.promptTokens = static_cast<std::uint32_t>(
        dom.shapeRng.uniformInt(64, 2048));
    req.decodeTokens = static_cast<std::uint32_t>(
        dom.shapeRng.uniformInt(32, 512));
    if (dom.shapeRng.bernoulli(cfg.prefixProb))
        req.prefix = static_cast<int>(dom.shapeRng.uniformInt(
            0, static_cast<std::int64_t>(cfg.prefixPool) - 1));

    // Pick a model uniformly among those the local view thinks are
    // live (the view may lag churn; routing tolerates that).
    std::vector<int> live;
    for (std::size_t m = 0; m < dom.view.domain.size(); ++m)
        if (dom.view.domain[m] >= 0)
            live.push_back(static_cast<int>(m));
    if (!live.empty())
        req.model = live[static_cast<std::size_t>(dom.shapeRng.uniformInt(
            0, static_cast<std::int64_t>(live.size()) - 1))];

    ++dom.stats.arrivals;
    digestEvent(d, now, evArrival, req.id,
                static_cast<std::uint64_t>(req.model + 1));
    trace(d, now, "arrival", [&] {
        json::Object o;
        o["req"] = req.id;
        o["model"] = req.model;
        o["prompt"] = req.promptTokens;
        o["decode"] = req.decodeTokens;
        o["prefix"] = req.prefix;
        return o;
    });

    scheduleNextArrival(d);
    routeOrServe(d, req);
}

void
ClusterSim::routeOrServe(std::size_t d, ClusterRequest req)
{
    Domain &dom = *domains[d];
    Tick now = net.queueOf(d).now();
    int host = -1;
    if (req.model >= 0 &&
        static_cast<std::size_t>(req.model) < dom.view.domain.size())
        host = dom.view.domain[req.model];

    // Serve here when the model is local, the view lost it, or the
    // request already bounced twice between stale views.
    if (host < 0 || static_cast<std::size_t>(host) == d ||
        req.hops >= 2) {
        bool viaForward = req.hops > 0;
        if (req.hops >= 2 && host >= 0 &&
            static_cast<std::size_t>(host) != d)
            ++dom.stats.reforwards;
        if (viaForward)
            ++dom.stats.servedForwarded;
        else
            ++dom.stats.servedLocal;

        if (req.prefix >= 0) {
            std::size_t home =
                static_cast<std::size_t>(req.prefix) % cfg.numDomains;
            if (home != d) {
                // Remote-homed prefix: ask the home domain's registry
                // and begin service when the answer comes back.
                ++dom.stats.forwardsOut;
                digestEvent(d, now, evRemoteLookup, req.id, home);
                net.send(d, home, now + net.lookahead(),
                         [this, home, d, req] {
                             handleRemoteLookup(home, d, req);
                         });
                return;
            }
            // Locally-homed prefix.
            bool hit = handleLocalPrefix(d, req);
            beginService(d, req, 0, hit, viaForward);
            return;
        }
        beginService(d, req, 0, false, viaForward);
        return;
    }

    // Forward to the hosting domain.
    ++dom.stats.forwardsOut;
    ++req.hops;
    digestEvent(d, now, evForward, req.id,
                static_cast<std::uint64_t>(host));
    trace(d, now, "forward", [&] {
        json::Object o;
        o["req"] = req.id;
        o["to"] = host;
        return o;
    });
    auto dst = static_cast<std::size_t>(host);
    net.send(d, dst, now + net.lookahead(),
             [this, dst, req] { routeOrServe(dst, req); });
}

bool
ClusterSim::handleLocalPrefix(std::size_t d, const ClusterRequest &req)
{
    Domain &dom = *domains[d];
    aqua::sim::EventQueue &q = net.queueOf(d);
    Tick now = q.now();
    std::uint64_t key = prefixKey(static_cast<std::size_t>(req.prefix));
    std::uint64_t verify =
        prefixVerify(static_cast<std::size_t>(req.prefix));
    hw::GpuId gpu =
        static_cast<hw::GpuId>(d * cfg.gpusPerDomain);
    std::uint32_t blocks = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1, prefixBytes >> 20));

    cluster::CandidateKey cand{key, verify, blocks};
    cluster::LookupResult r = dom.registry.lookup(gpu, {cand}, now);
    if (r.found) {
        ++dom.stats.prefixHitsLocal;
        digestEvent(d, now, evPrefixHit, req.id,
                    static_cast<std::uint64_t>(req.prefix));
        return true;
    }
    dom.registry.publish(gpu, key, verify, blocks, cfg.prefixTokens,
                         prefixBytes, key ^ verify, now);
    ++dom.stats.prefixMisses;
    digestEvent(d, now, evPrefixMiss, req.id,
                static_cast<std::uint64_t>(req.prefix));
    return false;
}

void
ClusterSim::handleRemoteLookup(std::size_t home, std::size_t asker,
                               ClusterRequest req)
{
    Domain &dom = *domains[home];
    aqua::sim::EventQueue &q = net.queueOf(home);
    Tick now = q.now();
    std::uint64_t key = prefixKey(static_cast<std::size_t>(req.prefix));
    std::uint64_t verify =
        prefixVerify(static_cast<std::size_t>(req.prefix));
    hw::GpuId consumerGpu =
        static_cast<hw::GpuId>(asker * cfg.gpusPerDomain);
    std::uint32_t blocks = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1, prefixBytes >> 20));

    cluster::CandidateKey cand{key, verify, blocks};
    cluster::LookupResult r =
        dom.registry.lookup(consumerGpu, {cand}, now);
    bool hit = r.found;
    Tick streamTicks = 0;
    if (hit) {
        // Lease the chain for the duration of the NVLink-fabric read.
        cluster::PinResult pin =
            dom.registry.pin(consumerGpu, key, verify, now);
        streamTicks = interLink.transferTime(prefixBytes);
        if (pin.ok) {
            std::uint64_t pinId = pin.pin;
            q.schedule(now + streamTicks, [this, home, pinId] {
                domains[home]->registry.unpin(
                    pinId, net.queueOf(home).now());
            });
        }
    } else {
        hw::GpuId homeGpu =
            static_cast<hw::GpuId>(home * cfg.gpusPerDomain);
        dom.registry.publish(homeGpu, key, verify, blocks,
                             cfg.prefixTokens, prefixBytes,
                             key ^ verify, now);
    }
    digestEvent(home, now, hit ? evPrefixHit : evPrefixMiss, req.id,
                static_cast<std::uint64_t>(req.prefix));

    net.send(home, asker, now + net.lookahead(),
             [this, asker, req, hit, streamTicks] {
                 Domain &a = *domains[asker];
                 if (hit) {
                     ++a.stats.prefixHitsRemote;
                     a.stats.prefixBytesStreamed += prefixBytes;
                 } else {
                     ++a.stats.prefixMisses;
                 }
                 beginService(asker, req, streamTicks, hit,
                              req.hops > 0);
             });
}

void
ClusterSim::beginService(std::size_t d, ClusterRequest req,
                         Tick extraDelay, bool prefixHit,
                         bool viaForward)
{
    (void)viaForward;
    Domain &dom = *domains[d];
    aqua::sim::EventQueue &q = net.queueOf(d);
    Tick now = q.now();

    // Least-loaded local GPU, lowest index on ties.
    std::size_t gpu = 0;
    for (std::size_t g = 1; g < dom.gpuFree.size(); ++g)
        if (dom.gpuFree[g] < dom.gpuFree[gpu])
            gpu = g;
    Tick start = std::max(now + extraDelay, dom.gpuFree[gpu]);

    std::uint32_t prompt = req.promptTokens;
    if (prefixHit)
        prompt -= std::min(prompt, cfg.prefixTokens);
    double us = prefillUsPerToken * prompt +
                decodeUsPerToken * req.decodeTokens;
    us *= dom.serviceRng.uniform(0.9, 1.1);
    Tick service = std::max<Tick>(1, usToTicks(us));
    Tick finish = start + service;
    dom.gpuFree[gpu] = finish;

    digestEvent(d, now, evServe, req.id,
                (static_cast<std::uint64_t>(gpu) << 32) | prompt);
    trace(d, now, "serve", [&] {
        json::Object o;
        o["req"] = req.id;
        o["gpu"] = static_cast<std::int64_t>(gpu);
        o["start"] = start;
        o["finish"] = finish;
        o["prefix_hit"] = prefixHit;
        return o;
    });

    if (req.origin == d) {
        q.schedule(finish, [this, d, req, finish] {
            completeAtOrigin(d, req, finish);
        });
    } else {
        // The origin learns of completion one fabric hop later.
        std::size_t origin = req.origin;
        q.schedule(finish, [this, d, origin, req, finish] {
            Tick t = net.queueOf(d).now();
            net.send(d, origin, t + net.lookahead(),
                     [this, origin, req, finish] {
                         completeAtOrigin(origin, req, finish);
                     });
        });
    }
}

void
ClusterSim::completeAtOrigin(std::size_t d, const ClusterRequest &req,
                             Tick finish)
{
    Domain &dom = *domains[d];
    Tick now = net.queueOf(d).now();
    ++dom.stats.completed;
    dom.stats.sumRctTicks += now - req.arrival;
    digestEvent(d, now, evComplete, req.id, finish);
    trace(d, now, "complete", [&] {
        json::Object o;
        o["req"] = req.id;
        o["rct_ns"] = now - req.arrival;
        return o;
    });
}

void
ClusterSim::runChurn(std::size_t index)
{
    Tick now = net.queueOf(0).now();
    ++pstats.churnEvents;
    placer::RepairOutcome out;
    std::uint64_t what = index % 3;

    // Stream 3 of domain 0: churn decisions. Recreate lazily so the
    // draw count is part of coordinator state.
    if (!churnRng)
        churnRng = std::make_unique<sim::Random>(net.domainRandom(0, 3));

    if (what == 0) {
        // A new model joins: clone a random initial model.
        const auto &models = placerState->models();
        auto pick = static_cast<std::size_t>(churnRng->uniformInt(
            0, static_cast<std::int64_t>(models.size()) - 1));
        placer::ModelToPlace m = models[pick];
        m.name += "#churn" + std::to_string(index);
        out = placerState->onArrival(m);
    } else if (what == 1) {
        // A random live model departs.
        std::vector<std::size_t> live;
        for (std::size_t m = 0; m < placerState->models().size(); ++m)
            if (placerState->live(m))
                live.push_back(m);
        if (live.empty())
            return;
        auto pick = static_cast<std::size_t>(churnRng->uniformInt(
            0, static_cast<std::int64_t>(live.size()) - 1));
        out = placerState->onDeparture(live[pick]);
    } else {
        // A GPU fails on a random server.
        auto server = static_cast<int>(churnRng->uniformInt(
            0, static_cast<std::int64_t>(cfg.numDomains) - 1));
        out = placerState->onGpuFailure(server);
    }

    if (out.kind == placer::RepairOutcome::Kind::Infeasible)
        ++pstats.infeasible;
    digestEvent(0, now, evChurn, what,
                static_cast<std::uint64_t>(out.kind));
    trace(0, now, "churn", [&] {
        json::Object o;
        o["index"] = static_cast<std::int64_t>(index);
        o["what"] = static_cast<std::int64_t>(what);
        o["kind"] = static_cast<std::int64_t>(out.kind);
        o["objective"] = out.objective;
        return o;
    });
    broadcastView();
}

void
ClusterSim::broadcastView()
{
    Tick now = net.queueOf(0).now();
    ++viewVersion;
    View view;
    view.version = viewVersion;
    view.domain = placerState->assignment();

    applyView(0, view);
    for (std::size_t d = 1; d < cfg.numDomains; ++d)
        net.send(0, d, now + net.lookahead(),
                 [this, d, view] { applyView(d, view); });
}

void
ClusterSim::applyView(std::size_t d, const View &view)
{
    Domain &dom = *domains[d];
    if (view.version <= dom.view.version)
        return;
    dom.view = view;
    ++dom.stats.viewUpdates;
    dom.stats.viewVersion = view.version;
    Tick now = net.queueOf(d).now();
    digestEvent(d, now, evViewApply, view.version,
                view.domain.size());
}

json::Object
ClusterSim::statsJson() const
{
    json::Object doc;
    json::Array perDomain;
    std::uint64_t completed = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t sumRct = 0;
    for (std::size_t d = 0; d < domains.size(); ++d) {
        const ClusterDomainStats &s = domains[d]->stats;
        json::Object o;
        o["domain"] = static_cast<std::int64_t>(d);
        o["arrivals"] = s.arrivals;
        o["served_local"] = s.servedLocal;
        o["served_forwarded"] = s.servedForwarded;
        o["forwards_out"] = s.forwardsOut;
        o["reforwards"] = s.reforwards;
        o["completed"] = s.completed;
        o["sum_rct_ns"] = s.sumRctTicks;
        o["prefix_hits_local"] = s.prefixHitsLocal;
        o["prefix_hits_remote"] = s.prefixHitsRemote;
        o["prefix_misses"] = s.prefixMisses;
        o["prefix_bytes_streamed"] = s.prefixBytesStreamed;
        o["view_updates"] = s.viewUpdates;
        o["view_version"] = s.viewVersion;
        o["digest"] = s.digest;
        perDomain.push_back(std::move(o));
        completed += s.completed;
        arrivals += s.arrivals;
        sumRct += s.sumRctTicks;
    }
    doc["domains"] = std::move(perDomain);
    doc["total_arrivals"] = arrivals;
    doc["total_completed"] = completed;
    doc["mean_rct_us"] = completed == 0
        ? 0.0
        : static_cast<double>(sumRct) /
              static_cast<double>(completed) / 1e3;

    json::Object p;
    p["churn_events"] = pstats.churnEvents;
    p["repairs"] = placerState ? placerState->repairs() : 0;
    p["full_solves"] = placerState ? placerState->fullSolves() : 0;
    p["infeasible"] = pstats.infeasible;
    p["objective"] = placerState ? placerState->objective() : 0.0;
    p["live_models"] = placerState
        ? static_cast<std::uint64_t>(placerState->liveModels()) : 0;
    doc["placer"] = std::move(p);
    return doc;
}

ClusterRunResult
runClusterSequential(const ClusterSimConfig &cfg)
{
    ClusterRunResult res;
    aqua::sim::EventQueue q;
    aqua::sim::SequentialDomainNet net(q, cfg.numDomains, cfg.seed,
                                       cfg.lookahead());
    ClusterSim model(cfg, net);
    model.setup();
    auto t0 = std::chrono::steady_clock::now();
    res.eventsFired = q.runUntil(aqua::sim::maxTick);
    auto t1 = std::chrono::steady_clock::now();
    res.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    res.stats = model.statsJson();
    res.digests = model.digests();
    if (cfg.captureTrace)
        for (std::size_t d = 0; d < cfg.numDomains; ++d)
            res.traces.push_back(model.traceJsonl(d));
    res.crossMessages = net.crossMessages();
    res.windows = 0;
    res.threads = 1;
    return res;
}

ClusterRunResult
runClusterSharded(const ClusterSimConfig &cfg, unsigned threads)
{
    ClusterRunResult res;
    aqua::sim::ShardedSimulation::Config sc;
    sc.numDomains = cfg.numDomains;
    sc.seed = cfg.seed;
    sc.lookahead = cfg.lookahead();
    sc.threads = threads;
    aqua::sim::ShardedSimulation sim(sc);
    ClusterSim model(cfg, sim);
    model.setup();
    auto t0 = std::chrono::steady_clock::now();
    res.eventsFired = sim.run();
    auto t1 = std::chrono::steady_clock::now();
    res.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    res.stats = model.statsJson();
    res.digests = model.digests();
    if (cfg.captureTrace)
        for (std::size_t d = 0; d < cfg.numDomains; ++d)
            res.traces.push_back(model.traceJsonl(d));
    res.crossMessages = sim.crossMessages();
    res.windows = sim.windows();
    res.threads = sim.threadsUsed();
    return res;
}

bool
equivalentRuns(const ClusterRunResult &a, const ClusterRunResult &b,
               std::string *why)
{
    auto fail = [&](std::string reason) {
        if (why)
            *why = std::move(reason);
        return false;
    };
    if (a.digests != b.digests) {
        for (std::size_t d = 0;
             d < std::min(a.digests.size(), b.digests.size()); ++d)
            if (a.digests[d] != b.digests[d])
                return fail("digest mismatch in domain " +
                            std::to_string(d));
        return fail("digest vector length mismatch");
    }
    if (a.eventsFired != b.eventsFired)
        return fail("events fired differ: " +
                    std::to_string(a.eventsFired) + " vs " +
                    std::to_string(b.eventsFired));
    if (a.crossMessages != b.crossMessages)
        return fail("cross-domain message counts differ");
    // json::Object::operator== is order-insensitive; the canonical
    // stats doc must match byte for byte, so compare serializations.
    if (json::Value(a.stats).dump() != json::Value(b.stats).dump())
        return fail("canonical stats documents differ");
    if (a.traces.size() != b.traces.size())
        return fail("trace capture mismatch");
    for (std::size_t d = 0; d < a.traces.size(); ++d)
        if (a.traces[d] != b.traces[d])
            return fail("trace JSONL differs in domain " +
                        std::to_string(d));
    if (why)
        why->clear();
    return true;
}

} // namespace aqua::exp
