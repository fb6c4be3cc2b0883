/**
 * @file
 * AQUA-LIB: the per-GPU memory-management library (§3, §B).
 *
 * One AquaLib instance runs on each GPU of a multi-GPU server.
 *
 *  - The *northbound* interface faces the serving engine:
 *    informStats() feeds engine-level workload insights to the control
 *    loop; its return value tells the engine how much to grow (+) or
 *    shrink (-) its reserved context pool. confirmDonate() completes a
 *    donation after the engine has shrunk its pool.
 *  - The *southbound* interface talks to the central coordinator via
 *    the REST endpoints (we dispatch real JSON payloads through the
 *    same routes the paper names).
 *  - The *consumer control loop* manages AQUA TENSORS: allocation
 *    (placement decided by the coordinator: assigned producer's lease
 *    or the host-DRAM fallback), reads and writes (with gather/scatter
 *    staging to keep NVLink transfers large), and respond(), which the
 *    engine calls at iteration boundaries to let in-flight migrations
 *    settle — the paper's aqua.respond().
 *  - The *producer control loop* donates spare HBM and reclaims it
 *    when the informer says the workload needs it back.
 */

#ifndef AQUA_AQUA_AQUA_LIB_HH
#define AQUA_AQUA_AQUA_LIB_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "aqua/informer.hh"
#include "aqua/rest.hh"
#include "aqua/staging.hh"
#include "aqua/types.hh"
#include "hw/server.hh"
#include "mem/region_allocator.hh"
#include "sim/random.hh"
#include "sim/ticks.hh"
#include "trace/trace.hh"

namespace aqua::core {

/** Tunables of one AquaLib instance. */
struct AquaLibConfig
{
    /** Modelled latency of one coordinator REST round trip. */
    aqua::sim::Tick restLatency = 200 * aqua::sim::nsPerUs;
    /**
     * Southbound retry budget: total attempts (first try included)
     * for a coordinator call that keeps coming back retryable (408
     * timeout / 503 unavailable). 1 disables retries.
     */
    std::uint32_t maxRestAttempts = 5;
    /**
     * First retry backoff; doubles per retry (exponential). The
     * backoff is charged to the caller as blocked time, not simulated
     * by re-entering the event queue.
     */
    aqua::sim::Tick restBackoffBase = 500 * aqua::sim::nsPerUs;
    /**
     * Retry-backoff jitter fraction in [0, 1): each backoff is scaled
     * by a seeded uniform draw in [1-j, 1+j), decorrelating the retry
     * storms of many instances hammering a recovering coordinator. 0
     * (the default) skips the draw entirely, so jitter-free runs stay
     * bit-identical to pre-jitter traces.
     */
    double retryJitter = 0.0;
    /** Seed of the jitter stream (mixed with the GPU id). */
    std::uint64_t jitterSeed = 0;
    /** Producer heartbeat period (startHeartbeats()). */
    aqua::sim::Tick heartbeatInterval = 5 * aqua::sim::nsPerMs;
    /**
     * Whether to gather scattered chunks into large transfers
     * (AQUA's custom kernels) or naively issue per-chunk copies.
     * Disabling this reproduces the paper's negative result that
     * naive NVLink offloads beat PCIe only marginally (§2.3).
     */
    bool useStaging = true;
};

/** Counters exposed for benches and tests. */
struct AquaLibStats
{
    std::uint64_t bytesToPeer = 0;
    std::uint64_t bytesToDram = 0;
    std::uint64_t bytesFromPeer = 0;
    std::uint64_t bytesFromDram = 0;
    std::uint64_t migrations = 0;
    std::uint64_t restCalls = 0;
    std::uint64_t tensorsAllocated = 0;
    /** Southbound retries after a retryable failure. */
    std::uint64_t restRetries = 0;
    /** Southbound calls that exhausted the retry budget. */
    std::uint64_t restFailures = 0;
    /** Heartbeats acknowledged by the coordinator. */
    std::uint64_t heartbeats = 0;
    /** Evacuations off a dead producer (emergency orders). */
    std::uint64_t emergencyMigrations = 0;
    /** Cluster prefix-registry calls (publish/lookup/pin/...). */
    std::uint64_t prefixCalls = 0;
    /** Bytes of home-chain KV streamed in from peer GPUs. */
    std::uint64_t prefixRemoteReadBytes = 0;
    /** Cross-server federation calls (lookup/fetch/fetch_done). */
    std::uint64_t federationCalls = 0;
    /** Successful /resync round trips after a coordinator restart. */
    std::uint64_t resyncs = 0;
    /** Migration payloads whose signature check failed on arrival. */
    std::uint64_t corruptionsDetected = 0;
    /** Detected corruptions repaired by retransmission. */
    std::uint64_t corruptionsRepaired = 0;
};

/**
 * Per-GPU AQUA-LIB instance.
 */
class AquaLib
{
  public:
    /**
     * @param server The multi-GPU server this GPU belongs to.
     * @param gpu This instance's GPU.
     * @param service The server's coordinator REST service.
     * @param config Tunables.
     * @param informer Producer policy; nullptr for pure consumers.
     */
    AquaLib(hw::Server &server, hw::GpuId gpu,
            CoordinatorRestService &service, AquaLibConfig config = {},
            std::unique_ptr<Informer> informer = nullptr);

    AquaLib(const AquaLib &) = delete;
    AquaLib &operator=(const AquaLib &) = delete;
    ~AquaLib();

    hw::GpuId gpuId() const { return myGpu; }
    const AquaLibStats &stats() const { return counters; }
    const AquaLibConfig &config() const { return cfg; }

    /**
     * Per-transfer accounting of the staging engine: coalesced
     * counts, effective bandwidth and queue latency of every wire
     * transfer issued through staged reads/writes.
     */
    const StagingTransferStats &stagingStats() const
    {
        return engine.stats();
    }

    /**
     * Attach a control-plane audit log; every allocation, lease,
     * migration and reclaim this instance performs is recorded.
     * Pass nullptr to detach. Not owned.
     */
    void setTraceLog(trace::TraceLog *log) { tracer = log; }

    //
    // Consumer control loop.
    //

    /**
     * Allocate an AQUA TENSOR of @p bytes. Placement (peer lease or
     * DRAM fallback) is the coordinator's call.
     *
     * @return Tensor id, or nullopt when even the DRAM fallback is
     *         exhausted.
     */
    std::optional<TensorId> allocateTensor(std::uint64_t bytes);

    /** Free an AQUA TENSOR. */
    void freeTensor(TensorId id);

    /**
     * Write @p bytes of data, scattered across @p nChunks pieces on the
     * local GPU, into the tensor's backing store. With staging enabled
     * the chunks are gathered by a kernel and shipped as one transfer;
     * otherwise each chunk is copied individually.
     *
     * @param earliest Data available no sooner than this tick; 0=now.
     * @return Transfer timing; the caller blocks until .complete.
     */
    hw::TransferTiming writeTensor(TensorId id, std::uint64_t bytes,
                                   std::uint64_t nChunks,
                                   aqua::sim::Tick earliest = 0);

    /** Read back @p bytes into @p nChunks scattered local pieces. */
    hw::TransferTiming readTensor(TensorId id, std::uint64_t bytes,
                                  std::uint64_t nChunks,
                                  aqua::sim::Tick earliest = 0);

    /**
     * aqua.respond(): called by the engine at iteration boundaries.
     * Executes pending migration orders (reclaim evacuations and
     * opportunistic promotions).
     *
     * @return Tick until which the inference loop is blocked.
     */
    aqua::sim::Tick respond();

    /** Current physical location of a tensor. */
    Location tensorLocation(TensorId id) const;

    /**
     * Generation counter of a tensor; bumped on every migration. A
     * reference captured before a migration is stale — dereferencing
     * it would be the "segmentation fault" hazard §B describes.
     */
    std::uint64_t tensorGeneration(TensorId id) const;

    /**
     * Content signature of a tensor: a deterministic digest folded on
     * every write and never touched by migration. Comparing the
     * signature before a fault and after recovery is the byte-identity
     * check of the chaos harness — a migration path that lost or
     * reordered data would have to recompute it, which nothing does.
     */
    std::uint64_t tensorSignature(TensorId id) const;

    /** Number of tensors this instance currently owns. */
    std::size_t ownedTensors() const { return tensors.size(); }

    //
    // Cluster prefix registry (southbound; cluster/registry_rest).
    //
    // All wrappers are non-panicking: a coordinator outage degrades
    // to engine-local caching (Unreachable / not-found outcomes),
    // never to a stall.
    //

    struct PrefixPublishOutcome
    {
        enum class Role
        {
            Home,
            Replica,
            Collision,
            /** Coordinator unreachable: stay engine-local. */
            Unreachable,
        };
        Role role = Role::Unreachable;
        hw::GpuId home = hw::hostDramId;
    };

    /** One candidate chain boundary for prefixLookup(). */
    struct PrefixCandidate
    {
        std::uint64_t key = 0;
        std::uint64_t verify = 0;
        std::uint32_t blocks = 0;
    };

    struct PrefixLookupOutcome
    {
        bool found = false;
        std::uint64_t key = 0;
        std::uint64_t verify = 0;
        hw::GpuId home = hw::hostDramId;
        std::uint32_t blocks = 0;
        std::uint64_t tokens = 0;
        std::uint64_t bytes = 0;
        std::uint64_t chainSig = 0;
    };

    struct PrefixPinOutcome
    {
        bool ok = false;
        std::uint64_t pin = 0;
        hw::GpuId home = hw::hostDramId;
    };

    /** POST /prefix/publish: register a resident chain. */
    PrefixPublishOutcome
    prefixPublish(std::uint64_t key, std::uint64_t verify,
                  std::uint32_t blocks, std::uint64_t tokens,
                  std::uint64_t bytes, std::uint64_t chainSig);

    /** POST /prefix/lookup: longest registered match (longest-first
     *  candidates). found=false covers misses and outages alike. */
    PrefixLookupOutcome
    prefixLookup(const std::vector<PrefixCandidate> &candidates);

    /** POST /prefix/pin: take a read lease on a home chain. */
    PrefixPinOutcome prefixPin(std::uint64_t key,
                               std::uint64_t verify);

    /** POST /prefix/unpin: release a lease (best effort). */
    void prefixUnpin(std::uint64_t pin);

    /** POST /prefix/evict_notify: this GPU dropped a chain copy. */
    void prefixEvictNotify(std::uint64_t key, std::uint64_t verify);

    /**
     * Stream @p bytes of a pinned home chain from @p home into
     * @p nChunks scattered local cache blocks through the staging
     * engine (the NVLink bandwidth ramp applies).
     */
    hw::TransferTiming readPeerPrefix(hw::GpuId home,
                                      std::uint64_t bytes,
                                      std::uint64_t nChunks,
                                      aqua::sim::Tick earliest = 0);

    //
    // Cross-server prefix federation (southbound /federation routes;
    // present only when the coordinator runs a FederationDirectory).
    //

    /** One remote chain advert as the engine sees it. */
    struct FederationChain
    {
        std::uint64_t key = 0;
        std::uint64_t verify = 0;
        std::uint32_t blocks = 0;
        std::uint64_t tokens = 0;
        std::uint64_t bytes = 0;
        std::uint64_t chainSig = 0;
        /** Home (origin) server on the fabric. */
        std::uint32_t homeServer = 0;
    };

    struct FederationLookupOutcome
    {
        bool found = false;
        FederationChain chain;
    };

    struct FederationFetchOutcome
    {
        bool ok = false;
        /** "cap", "stale", "unreachable", ... when !ok. */
        std::string reason;
        std::uint64_t ticket = 0;
        hw::GpuId homeGpu = hw::hostDramId;
        std::uint32_t homeServer = 0;
        std::uint32_t blocks = 0;
        std::uint64_t tokens = 0;
        std::uint64_t bytes = 0;
        std::uint64_t chainSig = 0;
    };

    /** POST /federation/lookup: longest live remote advert matching
     *  one of @p candidates. found=false covers misses and outages. */
    FederationLookupOutcome
    federationLookup(const std::vector<PrefixCandidate> &candidates);

    /** POST /federation/fetch: ask @p chain's home server to admit a
     *  cross-server stream (cap- and staleness-checked there). */
    FederationFetchOutcome federationFetch(const FederationChain &c);

    /** POST /federation/fetch_done: close the stream's ticket;
     *  @return whether the streamed payload is trustworthy. */
    bool federationFetchDone(std::uint32_t homeServer,
                             std::uint64_t ticket);

    //
    // Producer control loop (northbound interface).
    //

    /**
     * inform_stats(...): digest engine insights.
     *
     * @return Pool-size delta for the engine: negative asks the engine
     *         to shrink (donate), positive grants it memory back after
     *         a completed reclaim, zero means no change.
     */
    std::int64_t informStats(const EngineStats &stats);

    /**
     * The engine confirms it shrank its pool by @p bytes; AquaLib
     * allocates the freed HBM as the lease region and registers the
     * offer with the coordinator.
     */
    void confirmDonate(std::uint64_t bytes);

    /** Whether a lease is currently outstanding. */
    bool hasDonated() const { return donated; }

    /** Whether a reclaim is in flight. */
    bool reclaimInProgress() const { return reclaiming; }

    /** When this instance last executed an evacuation order (tensor
     *  pushed off a donor lease toward DRAM); 0 = never. Consumers
     *  read this as offload-path pressure. */
    aqua::sim::Tick lastEvacuationAt() const { return lastEvacAt; }

    /** Bytes currently leased out by this GPU. */
    std::uint64_t leasedBytes() const { return leaseBytes; }

    /** The informer, if any (exposed for tests). */
    Informer *informer() { return policy.get(); }

    //
    // Fault/recovery surface.
    //

    /**
     * Kill (or revive) this instance's software: a failed instance
     * stops heartbeating and ignores informStats(), so its lease
     * expires at the coordinator. The GPU's memory stays readable
     * until the topology marks it dark (the grace window).
     */
    void setFailed(bool failed) { failedFlag = failed; }
    bool isFailed() const { return failedFlag; }

    /**
     * Send one producer heartbeat (no retries — a missed heartbeat is
     * the signal the TTL machinery exists to catch).
     */
    void heartbeat();

    /**
     * Self-rescheduling heartbeat loop on the simulation queue, every
     * config heartbeatInterval until @p until. Stops silently while
     * the instance is failed.
     */
    void startHeartbeats(aqua::sim::Tick until);

    /**
     * Re-assert this instance's ground truth to a freshly restarted
     * coordinator (POST /resync): the lease it still holds and every
     * tensor it owns, at the location the *survivor* believes. The
     * coordinator adopts records its replayed journal lost and clears
     * stale in-flight migration state, so pending /done_moving acks
     * are dropped as moot.
     *
     * @return false when the coordinator stayed unreachable.
     */
    bool resyncWithCoordinator();

  private:
    struct TensorRec
    {
        std::uint64_t bytes = 0;
        std::uint64_t generation = 0;
        /** Content digest; folded by writeTensor(). */
        std::uint64_t signature = 0;
        Location location;
        /** Backing DRAM region while in HostDram. */
        std::optional<aqua::mem::Region> dramRegion;
    };

    /** Outcome of a retried southbound call. */
    struct CallOutcome
    {
        RestResponse resp;
        /** Blocked time: round trips, backoff and injected delay. */
        aqua::sim::Tick penalty = 0;
    };

    /**
     * Dispatch a coordinator call, retrying retryable failures with
     * exponential backoff up to config maxRestAttempts. Each attempt
     * stamps the body's "now" with the virtual send time (sim time
     * plus the penalty accumulated so far) so time-windowed faults
     * and lease TTLs see retries spaced out even though the caller
     * blocks synchronously.
     */
    CallOutcome tryCall(const std::string &route, json::Value body);

    /** tryCall() + panic on any non-OK final status. */
    json::Value call(const std::string &route, json::Value body);

    /** Emit an audit event if a trace log is attached. */
    void traceEvent(const char *category, json::Value fields);

    /** Allocate DRAM backing for a tensor; nullopt when DRAM full. */
    std::optional<aqua::mem::Region> allocDram(std::uint64_t bytes);

    const TensorRec &rec(TensorId id) const;
    TensorRec &rec(TensorId id);

    hw::TransferTiming transferOut(const TensorRec &t,
                                   std::uint64_t bytes,
                                   std::uint64_t nChunks,
                                   aqua::sim::Tick earliest);
    hw::TransferTiming transferIn(const TensorRec &t,
                                  std::uint64_t bytes,
                                  std::uint64_t nChunks,
                                  aqua::sim::Tick earliest);

    /** One step of the startHeartbeats() loop. */
    void scheduleHeartbeat(aqua::sim::Tick until);

    /** Execute one migration order; returns its completion tick. */
    aqua::sim::Tick executeOrder(const MigrationOrder &order);

    hw::Server &server;
    hw::GpuId myGpu;
    CoordinatorRestService &service;
    AquaLibConfig cfg;
    std::unique_ptr<Informer> policy;
    /** Coalescing/double-buffering transfer engine. */
    StagingEngine engine;

    std::map<TensorId, TensorRec> tensors;

    /** Last evacuation-order execution (consumer-side path pressure). */
    aqua::sim::Tick lastEvacAt = 0;

    // Producer state.
    bool donated = false;
    bool reclaiming = false;
    std::uint64_t leaseBytes = 0;
    std::optional<aqua::mem::Region> leaseRegion;
    std::uint64_t pendingDonate = 0;

    /** Software-dead flag (fault injection). */
    bool failedFlag = false;
    /** Seeded backoff-jitter stream (see AquaLibConfig::retryJitter);
     *  never advanced while the jitter fraction is 0. */
    aqua::sim::Random jitterRng;
    /** /done_moving acks that failed delivery; re-sent by respond(). */
    std::vector<MigrationOrder> unackedMoves;

    AquaLibStats counters;
    trace::TraceLog *tracer = nullptr;
};

} // namespace aqua::core

#endif // AQUA_AQUA_AQUA_LIB_HH
