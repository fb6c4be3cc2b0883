/**
 * @file
 * Cluster-scale simulation model, executor-agnostic.
 *
 * ClusterSim models a scale-up cluster of NVLink domains serving an
 * open-loop LLM request stream: per-domain arrivals, GPU queueing
 * with analytic prefill/decode service times, a federated hot-prefix
 * layer (one cluster::PrefixRegistry per domain, consulted across
 * domains for remotely-homed chains), and live placement churn
 * (model arrival/departure/GPU failure handled by the domain-0
 * coordinator through placer::IncrementalPlacer and broadcast as
 * versioned assignment views).
 *
 * The model is written against sim::DomainNet only: domain state is
 * private to its domain's events, randomness comes from structurally
 * keyed domainRandom() streams, and every cross-domain interaction —
 * request forwarding to the hosting domain, remote prefix
 * lookup/reply, completion notifications, view broadcasts — is a
 * timestamped send. That is the contract that makes one ClusterSim
 * run bit-identically on the sequential twin and the sharded
 * executor; the differential equivalence harness
 * (tests/test_sharded_sim.cc, bench/abl_sharded_sim.cc) checks
 * exactly that, via per-domain event digests (always), full
 * per-domain trace logs (small runs) and canonical end-state stats.
 */

#ifndef AQUA_EXP_CLUSTER_SIM_HH
#define AQUA_EXP_CLUSTER_SIM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/prefix_registry.hh"
#include "hw/link.hh"
#include "json/json.hh"
#include "placer/incremental.hh"
#include "sim/sharded_sim.hh"
#include "trace/trace.hh"

namespace aqua::exp {

/** Tunables of the cluster model. */
struct ClusterSimConfig
{
    std::size_t numDomains = 8;
    std::size_t gpusPerDomain = 8;
    std::uint64_t seed = 1;

    /** Total requests across all domains. */
    std::uint64_t numRequests = 100000;
    /** Open-loop arrival rate per domain (requests/second). */
    double arrivalRatePerDomain = 2000.0;

    /** Initial models per domain ("balanced" split, placed by the
     *  full MILP before the clock starts). */
    std::size_t modelsPerDomain = 2;

    /** Probability a request opens with a hot shared prefix. */
    double prefixProb = 0.3;
    /** Distinct hot prefixes cluster-wide. */
    std::size_t prefixPool = 64;
    /** Prompt tokens a prefix hit skips. */
    std::uint32_t prefixTokens = 512;

    /** Placement churn events (arrival/departure/failure cycle). */
    std::size_t placementEvents = 12;
    /** Gap between churn events (simulated seconds). */
    double churnIntervalSec = 2.0;

    /** Capture full per-domain TraceLogs (small runs only). */
    bool captureTrace = false;

    /** Conservative lookahead implied by the fabric floor: the
     *  inter-server latency plus the software floor on any
     *  cross-domain message. */
    aqua::sim::Tick lookahead() const;
};

/** Deterministic end-state counters of one domain. */
struct ClusterDomainStats
{
    std::uint64_t arrivals = 0;
    std::uint64_t servedLocal = 0;
    std::uint64_t servedForwarded = 0;
    std::uint64_t forwardsOut = 0;
    std::uint64_t reforwards = 0;
    std::uint64_t completed = 0;
    std::uint64_t sumRctTicks = 0;
    std::uint64_t prefixHitsLocal = 0;
    std::uint64_t prefixHitsRemote = 0;
    std::uint64_t prefixMisses = 0;
    std::uint64_t prefixBytesStreamed = 0;
    std::uint64_t viewUpdates = 0;
    std::uint64_t viewVersion = 0;
    /** FNV-1a digest over the domain's ordered event tuples — the
     *  compact form of "identical per-domain trace sequences". */
    std::uint64_t digest = 14695981039346656037ULL;
};

/** Coordinator-side (domain 0) placement churn counters. */
struct ClusterPlacerStats
{
    std::uint64_t churnEvents = 0;
    std::uint64_t repairs = 0;
    std::uint64_t fullSolves = 0;
    std::uint64_t infeasible = 0;
    double finalObjective = 0.0;
    std::uint64_t liveModels = 0;
};

/**
 * The model proper. Construct over a DomainNet, setup(), run the
 * net's executor, then read stats.
 */
class ClusterSim
{
  public:
    ClusterSim(const ClusterSimConfig &config, sim::DomainNet &net);
    ~ClusterSim();

    ClusterSim(const ClusterSim &) = delete;
    ClusterSim &operator=(const ClusterSim &) = delete;

    /** Build initial placement, seed arrivals and churn events. */
    void setup();

    const ClusterDomainStats &stats(std::size_t domain) const;
    const ClusterPlacerStats &placerStats() const { return pstats; }

    /** Full trace of one domain as JSONL ("" unless captureTrace). */
    std::string traceJsonl(std::size_t domain) const;

    /** Per-domain digests, in domain order. */
    std::vector<std::uint64_t> digests() const;

    /**
     * Canonical end-state document: everything that must be
     * identical between executors (and nothing that may not be —
     * no wall-clock, no window counts).
     */
    json::Object statsJson() const;

  private:
    struct View;
    struct Domain;
    struct ClusterRequest;

    void scheduleNextArrival(std::size_t d);
    void onArrival(std::size_t d, ClusterRequest req);
    void routeOrServe(std::size_t d, ClusterRequest req);
    bool handleLocalPrefix(std::size_t d, const ClusterRequest &req);
    void beginService(std::size_t d, ClusterRequest req,
                      aqua::sim::Tick extraDelay, bool prefixHit,
                      bool viaForward);
    void handleRemoteLookup(std::size_t home, std::size_t asker,
                            ClusterRequest req);
    void completeAtOrigin(std::size_t d, const ClusterRequest &req,
                          aqua::sim::Tick finish);
    void runChurn(std::size_t index);
    void broadcastView();
    void applyView(std::size_t d, const View &view);
    void digestEvent(std::size_t d, aqua::sim::Tick t,
                     std::uint32_t code, std::uint64_t a,
                     std::uint64_t b);
    /** Emit a trace event whose fields @p makeFields builds; it is
     *  called only when captureTrace is set. */
    template <typename MakeFields>
    void trace(std::size_t d, aqua::sim::Tick t, const char *category,
               MakeFields &&makeFields);

    ClusterSimConfig cfg;
    sim::DomainNet &net;
    hw::Link interLink;
    std::vector<std::unique_ptr<Domain>> domains;
    std::unique_ptr<placer::IncrementalPlacer> placerState;
    /** Coordinator churn stream (domain 0, stream 3), lazily built. */
    std::unique_ptr<sim::Random> churnRng;
    ClusterPlacerStats pstats;
    std::uint64_t viewVersion = 0;
};

/** One executor run of the model, reduced to comparable artifacts. */
struct ClusterRunResult
{
    json::Object stats;
    std::vector<std::uint64_t> digests;
    std::vector<std::string> traces;
    std::uint64_t eventsFired = 0;
    std::uint64_t crossMessages = 0;
    /** Sharded executor only (0 for sequential). */
    std::uint64_t windows = 0;
    unsigned threads = 1;
    /** Wall-clock; excluded from any equivalence comparison. */
    double wallSeconds = 0.0;
};

/** Run the model on the sequential single-queue twin. */
ClusterRunResult runClusterSequential(const ClusterSimConfig &cfg);

/** Run the model on the sharded executor (0 threads = auto). */
ClusterRunResult runClusterSharded(const ClusterSimConfig &cfg,
                                   unsigned threads = 0);

/**
 * Differential equivalence: identical per-domain digests, identical
 * traces (when captured) and identical canonical stats. @p why gets
 * a human-readable reason on mismatch.
 */
bool equivalentRuns(const ClusterRunResult &a,
                    const ClusterRunResult &b,
                    std::string *why = nullptr);

} // namespace aqua::exp

#endif // AQUA_EXP_CLUSTER_SIM_HH
