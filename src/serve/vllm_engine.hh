/**
 * @file
 * Continuous-batching LLM serving engine (vLLM-style), with pluggable
 * scheduling policy and offload backend, plus the AQUA northbound
 * integration to act as a memory producer (Table 2) or a memory
 * consumer (Table 1).
 *
 * The engine is iteration-driven: each step() performs at most one
 * inference iteration (a batched prefill or a batched decode) plus the
 * context-switch transfers the policy decided on. Prompt (prefill)
 * computation is prioritised over token generation, as the paper notes
 * of production engines (§6.1). Per §B, AQUA-related migrations only
 * settle at iteration boundaries via backend->respond().
 */

#ifndef AQUA_SERVE_VLLM_ENGINE_HH
#define AQUA_SERVE_VLLM_ENGINE_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "aqua/aqua_lib.hh"
#include "cluster/prefix_registry.hh"
#include "federation/cost_model.hh"
#include "hw/fabric.hh"
#include "model/perf_model.hh"
#include "overload/admission.hh"
#include "overload/brownout.hh"
#include "overload/kv_precision_governor.hh"
#include "serve/kv_cache.hh"
#include "serve/lora_cache.hh"
#include "serve/offload_backend.hh"
#include "serve/scheduler.hh"
#include "serve/sequence.hh"
#include "serve/session_tier.hh"
#include "stats/summary.hh"
#include "stats/timeseries.hh"
#include "trace/trace.hh"
#include "workload/request.hh"

namespace aqua::serve {

/** How preempted sequences give up their KV cache. */
enum class PreemptionMode
{
    /** Page the KV out to the offload backend and back (the paper's
     *  CFS context switch; cost = transfer time). */
    Swap,
    /** Drop the KV and re-prefill prompt + generated tokens on
     *  resume (vLLM's other policy; cost = recompute FLOPs). */
    Recompute,
};

/** Engine tunables. */
struct VllmEngineConfig
{
    /** Max sequences decoded per iteration. */
    std::uint32_t maxBatch = 48;
    /** Admission slack beyond the prompt, in tokens. */
    std::uint32_t slackTokens = 32;
    /**
     * Chunked prefill: cap on prompt tokens processed per prefill
     * iteration (0 = unlimited). Long prompts then prefill across
     * several iterations instead of monopolizing one, which bounds
     * the decode stall a giant admission causes.
     */
    std::uint32_t maxPrefillTokensPerIter = 0;
    /** CFS slice length in generated tokens (Fig. 6 uses 5). */
    std::uint32_t cfsSliceTokens = 5;
    /** Call AQUA-LIB informStats() every this many iterations. */
    std::uint32_t informEveryIters = 8;
    /** Explicit KV pool size; 0 reserves a fixed fraction (95%) of
     *  the HBM left free after the weights. */
    std::uint64_t kvPoolBytesOverride = 0;
    /** LoRA cache configuration; nullopt disables adapter support. */
    std::optional<LoraCacheConfig> lora;
    /** What preemption costs: transfers (Swap) or FLOPs (Recompute). */
    PreemptionMode preemption = PreemptionMode::Swap;
    /**
     * Automatic prefix caching with copy-on-write block sharing: new
     * sequences reuse resident KV blocks matching their prompt prefix
     * (skipping that prefill compute), shared prefixes are offloaded
     * through the backend once per group instead of once per
     * borrower, and index-held blocks evict LRU-first under memory
     * pressure. Off by default (the vLLM baseline the paper measures
     * against does not share KV).
     */
    bool prefixCache = false;
    /**
     * Cap on the prefix cache's share of the KV pool (fraction of
     * total blocks that may be held by cache-only entries). 1.0 = no
     * cap; see KvCacheConfig::maxCacheShare.
     */
    double maxCacheShare = 1.0;
    /** Prefix-cache eviction victim ordering (Lru or CostAware). */
    EvictionPolicy prefixEviction = EvictionPolicy::Lru;
    /**
     * Longest remote chain (in blocks) a consumer serves in place
     * from the home GPU instead of streaming a local copy. Borrowed
     * leads charge every decode step a peer read of the lead's KV,
     * so only short chains are worth borrowing.
     */
    std::uint32_t clusterBorrowMaxBlocks = 4;
    /**
     * Safety factor the federation cost model applies to the streamed
     * side of the crossover; > 1 biases toward recompute when the
     * estimates are close.
     */
    double federationSafetyFactor = 1.2;
    /**
     * Deadline-aware admission control: shed waiting requests whose
     * predicted completion already misses their deadline instead of
     * serving them late (goodput over throughput). nullopt = off.
     */
    std::optional<overload::AdmissionConfig> admission;
    /**
     * Graceful brownout ladder mapping overload signals to service
     * degradations (shed best-effort, stop cache publishes, shrink
     * the CFS slice, prefer the DRAM backend, reject new). nullopt =
     * off.
     */
    std::optional<overload::BrownoutConfig> brownout;
    /**
     * Precision the KV cache is served at (QServe-style quantized KV).
     * Scales block sizes, swap/park payloads, staging transfers and
     * registry streams — smaller transfers land lower on the link
     * bandwidth ramp — at the cost of a per-step dequant pass in the
     * perf model. Fp16 (the default) is the exact pre-quantization
     * behaviour.
     */
    model::KvPrecision kvPrecision = model::KvPrecision::Fp16;
    /**
     * Fraction of resident KV each decode step reads (sparse
     * attention). Scales decode's KV memory traffic and the per-step
     * peer-read charge of borrowed remote leads — which also raises
     * the borrow-vs-copy crossover (clusterBorrowMaxBlocks is divided
     * by this). 1.0 (default) = dense reads, exact legacy behaviour.
     */
    double sparseReadFraction = 1.0;
    /**
     * Pressure-driven cold-KV precision demotion
     * (quantize-before-evict): under memory pressure, swap-out tails
     * and parked sessions are quantized below the serving precision
     * before leaving HBM. nullopt = off.
     */
    std::optional<overload::KvPrecisionGovernorConfig> precisionGovernor;
};

/** Sharing-path counters kept by the engine (all zero when off). */
struct PrefixCacheEngineStats
{
    /** Prefill tokens served from cache (compute + KV writes skipped). */
    std::uint64_t cachedTokens = 0;
    /** Copy-on-write forks of shared partial-tail blocks. */
    std::uint64_t cowForks = 0;
    /** Swap-outs whose shared prefix joined an existing group. */
    std::uint64_t sharedSwapOuts = 0;
    /** Shared-group materializations (one backend write per group). */
    std::uint64_t groupWrites = 0;
    /** Offload write bytes avoided by group dedup. */
    std::uint64_t dedupSavedBytes = 0;
    /** Swap-in read bytes avoided by re-acquiring resident blocks. */
    std::uint64_t residentReuseBytes = 0;
    /** Byte-identity violations across offload round trips (must
     *  stay zero; checked via block content signatures). */
    std::uint64_t sigMismatches = 0;

    //
    // Cluster registry path (zero unless attachClusterPrefix()).
    //

    /** Registry lookups that yielded a usable remote home chain. */
    std::uint64_t registryHits = 0;
    /** Registry lookups that missed or were unusable (dead home,
     *  signature mismatch, pin refused, self-home). */
    std::uint64_t registryMisses = 0;
    /** Full blocks admitted from remote home chains. */
    std::uint64_t remoteHitBlocks = 0;
    /** Bytes streamed from peer homes into local blocks at admission. */
    std::uint64_t remoteCopyBytes = 0;
    /** Bytes read from peer homes by decode steps of borrowed leads. */
    std::uint64_t remoteDecodeReadBytes = 0;
    /** Admissions serving the lead in place from the home GPU. */
    std::uint64_t borrowAdmissions = 0;
    /** Admissions that streamed a local copy of the remote chain. */
    std::uint64_t copyAdmissions = 0;
    /** Remote matches rejected by the consumer-side chain-signature
     *  check (must stay zero outside collision-injection tests). */
    std::uint64_t clusterSigMismatches = 0;
    /** Borrowed leads lost to a home-GPU failure mid-sequence. */
    std::uint64_t remoteBrokenChains = 0;
    /** Prefix-hit tokens by origin of the blocks that served them. */
    std::uint64_t hitTokensLocal = 0;
    std::uint64_t hitTokensRemote = 0;
    std::uint64_t hitTokensDram = 0;
    std::uint64_t hitTokensRemoteServer = 0;

    //
    // Cross-server federation path (zero unless attachFederation()).
    //

    /** Directory lookups that found a live remote-server advert. */
    std::uint64_t fedHits = 0;
    std::uint64_t fedMisses = 0;
    /** Cost-model verdicts: stream the copy / re-prefill locally. */
    std::uint64_t fedStreamDecisions = 0;
    std::uint64_t fedRecomputeDecisions = 0;
    /** Fetches the home refused (admission cap, stale, outage). */
    std::uint64_t fedFetchRefusals = 0;
    /** Completed streams by validation outcome: an invalidated
     *  stream's payload is discarded and the request re-prefills. */
    std::uint64_t fedStreamsCompleted = 0;
    std::uint64_t fedStreamsInvalidated = 0;
    /** Bytes streamed in over the inter-server fabric. */
    std::uint64_t fedStreamBytes = 0;
};

/**
 * Read-path integrity counters (payload_corrupt / ssd_bitrot faults).
 * Every KV payload entering HBM — swap-in, peer prefix stream, SSD
 * resume — is signature-verified on arrival; these count the
 * detections and which recovery path cleared them. All zero in
 * fault-free runs.
 */
struct IntegrityEngineStats
{
    /** Signature mismatches caught at read time. */
    std::uint64_t detected = 0;
    /** Repaired by re-reading (link corruption: source still good). */
    std::uint64_t repairedRetransmit = 0;
    /** Unrepairable (at-rest bitrot): KV dropped and recomputed. */
    std::uint64_t recomputeFallbacks = 0;
};

/**
 * The serving engine.
 */
class VllmEngine
{
  public:
    using CompletionCallback =
        std::function<void(const workload::RequestMetrics &)>;

    /**
     * @param server Owning server.
     * @param gpu GPU hosting the model.
     * @param modelSpec Served model (must be text).
     * @param policy Scheduling policy (owned).
     * @param backend Offload backend for swaps and adapters.
     * @param config Tunables.
     * @param adapters LoRA pool; requires config.lora.
     */
    VllmEngine(hw::Server &server, hw::GpuId gpu,
               const model::ModelSpec &modelSpec,
               std::unique_ptr<SchedulerPolicy> policy,
               OffloadBackend &backend, VllmEngineConfig config = {},
               std::vector<model::LoraAdapter> adapters = {});

    VllmEngine(const VllmEngine &) = delete;
    VllmEngine &operator=(const VllmEngine &) = delete;
    ~VllmEngine();

    /**
     * Attach an AQUA-LIB instance for the producer role: the engine
     * will feed informStats() and honour donate/reclaim deltas.
     */
    void attachAquaLib(core::AquaLib *lib);

    /**
     * Attach the cluster prefix registry plus the AquaLib carrying
     * this engine's southbound REST access, turning the cluster
     * prefix path on: publish resident shared-prefix chains to the
     * coordinator, and on a local miss look up a remote home copy and
     * stream (or borrow) it over NVLink instead of re-prefilling.
     * Registers this GPU's RegistryAgent (pin/promote callbacks).
     * Needs cfg.prefixCache. Both non-owning; must outlive the engine.
     */
    void attachClusterPrefix(cluster::PrefixRegistry *registry,
                             core::AquaLib *lib);

    /**
     * Attach the inter-server fabric, turning cross-server prefix
     * federation on: on a scale-up-domain miss, consult the
     * coordinator's federation directory for a chain homed on another
     * server and stream it over the fabric when the cost model says
     * that beats re-prefilling locally. The lookup order is local
     * registry, then federation directory, then recompute.
     * @p fabric carries the KV streams, @p serverIndex is this
     * engine's server on it, and @p lib carries the southbound
     * /federation REST access (normally the same AquaLib as the
     * cluster path). Requires attachClusterPrefix(). All non-owning;
     * must outlive the engine.
     */
    void attachFederation(hw::Fabric *fabric,
                          std::uint32_t serverIndex,
                          core::AquaLib *lib);

    /**
     * Trace overload-control events ("shed", "brownout_level") into
     * @p log (non-owning; null disables).
     */
    void setTraceLog(trace::TraceLog *log);

    /**
     * Fallback offload backend (typically host DRAM) the brownout
     * circuit breaker diverts swaps to at ForceDramOffload while the
     * primary (NVLink donor) path is reclaiming or degraded.
     * Non-owning; must outlive the engine.
     */
    void setFallbackBackend(OffloadBackend *fallbackBackend);

    /**
     * Attach a storage tier (SSD) below the offload backends. Enables
     * cold-session park/resume — sessions whose user idles past the
     * tier's park threshold move their KV down instead of holding it,
     * and a follow-up turn streams it back when that beats
     * re-prefilling — plus the periodic demotion settle pass over
     * swapped-out KV sitting in host DRAM. Non-owning; must outlive
     * the engine.
     */
    void attachSessionTier(SessionTier *tier);

    /** Submit a request (call at its arrival time). */
    void submit(const workload::Request &request);

    /** Register a completion hook (fires at the finish tick). */
    void onComplete(CompletionCallback cb) { completionCb = std::move(cb); }

    /**
     * Observe every decode iteration: called with the iteration's
     * completion tick and the request ids that generated a token.
     * Used by the Fig. 6 timeline reproduction and by tests.
     */
    using IterationCallback = std::function<void(
        aqua::sim::Tick, const std::vector<std::uint64_t> &)>;
    void onIteration(IterationCallback cb)
    {
        iterationCb = std::move(cb);
    }

    //
    // Introspection.
    //

    const model::ModelSpec &modelSpec() const { return spec; }
    const KvCache &kvCache() const { return *kv; }
    LoraCache *loraCache() { return lora.get(); }
    hw::GpuId gpuId() const { return myGpu; }

    std::size_t waitingCount() const { return waiting.size(); }
    std::size_t runningCount() const { return running.size(); }
    std::size_t swappedCount() const { return swapped.size(); }
    std::uint64_t totalTokens() const { return tokensTotal; }
    std::uint64_t iterations() const { return iterCount; }
    std::uint64_t swapOutCount() const { return nSwapOuts; }
    std::uint64_t swapInCount() const { return nSwapIns; }
    /** Preemptions resolved by dropping KV (Recompute mode). */
    std::uint64_t recomputeCount() const { return nRecomputes; }

    //
    // Overload control (null / zero unless configured).
    //

    /** Requests shed by admission control or brownout. */
    std::uint64_t shedCount() const { return nSheds; }

    //
    // Storage tier (all zero unless attachSessionTier()).
    //

    /** Cold sessions whose KV was parked on the tier. */
    std::uint64_t parkCount() const { return nParks; }
    /** Cold-session resumes served by streaming parked KV back. */
    std::uint64_t streamResumeCount() const { return nStreamResumes; }
    /** Cold-session resumes that fell back to re-prefill. */
    std::uint64_t recomputeResumeCount() const
    {
        return nRecomputeResumes;
    }
    /** Swapped-out payloads the settle pass demoted DRAM→SSD. */
    std::uint64_t tierDemotionCount() const { return nTierDemotions; }

    /** Swaps diverted to the fallback backend by the circuit breaker. */
    std::uint64_t fallbackSwapCount() const { return nFallbackSwaps; }
    const overload::AdmissionController *
    admissionController() const
    {
        return admission.get();
    }
    const overload::BrownoutController *
    brownoutController() const
    {
        return brownout.get();
    }
    /** Cold-KV precision governor (null unless configured). */
    const overload::KvPrecisionGovernor *
    precisionGovernor() const
    {
        return precisionGov.get();
    }
    /** Admission queue delay (admit - arrival, seconds) of every
     *  admitted request. */
    const stats::Summary &queueDelay() const { return queueDelays; }

    /** Sharing-path counters (all zero unless cfg.prefixCache). */
    const PrefixCacheEngineStats &
    prefixEngineStats() const
    {
        return prefixStats;
    }

    /** Read-path integrity counters (zero in fault-free runs). */
    const IntegrityEngineStats &
    integrityStats() const
    {
        return integrity;
    }

    /** Bytes written to / read from the offload backend (swaps). */
    std::uint64_t offloadWriteBytes() const { return nWriteBytes; }
    std::uint64_t offloadReadBytes() const { return nReadBytes; }

    /** Metrics of finished requests, completion order. */
    const std::vector<workload::RequestMetrics> &
    finished() const
    {
        return finishedMetrics;
    }

    /** (time, tokens) series: tokens produced per iteration. */
    const stats::TimeSeries &tokenSeries() const { return tokens; }

    /** (time, bytes) series: HBM not used by this engine. */
    const stats::TimeSeries &freeMemorySeries() const { return freeMem; }

  private:
    void scheduleStep(aqua::sim::Tick when);
    void step();

    /** Feed AQUA-LIB's northbound interface; apply pool deltas. */
    void doInform();

    /** Record the engine-external free-memory view. */
    void recordFreeMemory();

    /** Page a running sequence's KV out to the backend. */
    void swapOutSeq(Sequence *s, aqua::sim::Tick &transfersDone);

    /** Page a swapped sequence back in. @return success. */
    bool swapInSeq(Sequence *s, aqua::sim::Tick &transfersDone);

    /** Move a waiting sequence to Running. @return success. */
    bool admitSeq(Sequence *s, aqua::sim::Tick &transfersDone);

    /** Finish bookkeeping for a sequence at @p when. */
    void finishSeq(Sequence *s, aqua::sim::Tick when);

    /** Drop a waiting sequence unserved (admission/brownout shed). */
    void shedSeq(Sequence *s, overload::ShedReason reason,
                 aqua::sim::Tick when);

    /** Sample overload signals and advance the brownout ladder. */
    void updateBrownout(aqua::sim::Tick now);

    /** Try to start a parked-session resume stream for a fresh
     *  follow-up arrival (no-op without a tier or a parked entry). */
    void maybeBeginResume(Sequence *s);

    /** Demotion settle pass: age out swapped KV from DRAM to SSD. */
    void settleTier(aqua::sim::Tick now);

    /** CFS slice length after brownout shrinking. */
    std::uint32_t effectiveSliceTokens() const;

    /** Backend a swap-out should target right now (the fallback when
     *  the circuit breaker is open). */
    OffloadBackend &swapTarget();

    /** Precision KV leaving HBM is quantized to right now (the
     *  serving precision unless the governor is demoting). */
    model::KvPrecision coldPrecision() const;

    /** The served ModelSpec with the config's KV precision applied
     *  (run before perf/kv are constructed from it). */
    static model::ModelSpec applyKvConfig(model::ModelSpec spec,
                                          const VllmEngineConfig &cfg);

    /** Age of the oldest waiting request, seconds. */
    double oldestWaitingSec(aqua::sim::Tick now) const;

    /** Remove a sequence pointer from a list. */
    static void removeFrom(std::vector<Sequence *> &list, Sequence *s);

    //
    // Prefix-cache sharing (active only with cfg.prefixCache).
    //

    /** One backend copy of a shared prefix, reused by all borrowers. */
    struct SharedGroup
    {
        OffloadBackend::Handle handle;
        /** Swapped borrowers pointing at the copy. */
        std::uint32_t refs = 0;
        /** Full blocks the copy covers. */
        std::uint32_t blocks = 0;
    };

    /**
     * Publish a sequence's computed KV into the prefix index, and —
     * on the cluster path — register its shareable chain boundaries
     * with the registry. @p atFinish additionally publishes the full
     * conversation-history boundary (only final contexts recur as a
     * follow-up turn's prefix).
     */
    void publishSeq(Sequence *s, bool atFinish = false);

    /** Leading run of s->blocks shared with the index or peers. */
    std::size_t sharedLeadBlocks(const Sequence *s) const;

    /** Drop a swapped borrower's reference on its shared group. */
    void releaseSwapGroup(Sequence *s);

    //
    // Cluster prefix registry (active only after
    // attachClusterPrefix()).
    //

    /** A chain this engine published to the registry. */
    struct ClusterChain
    {
        /** Resident blocks backing the chain, chain order. */
        std::vector<aqua::mem::BlockId> blocks;
        std::uint64_t tokens = 0;
        std::uint64_t verify = 0;
        /** Request whose token stream names the chain contents. */
        workload::Request req;
        /** Replica chains only: the live sequence whose blocks back
         *  the (un-indexed) copy; home chains are index-owned. */
        const Sequence *owner = nullptr;
    };

    bool
    clusterEnabled() const
    {
        return clusterReg && clusterLib;
    }

    /** Shareable chain boundaries (in full blocks, ascending) of a
     *  sequence's context: the declared preamble, plus the full
     *  context for conversation streams when @p atFinish. */
    std::vector<std::size_t> chainBoundaries(const Sequence *s,
                                             std::size_t maxBlocks,
                                             bool atFinish) const;

    /** Candidate chain boundaries of @p s's context covering more
     *  than @p localFull blocks, longest first (dense scan for
     *  conversation streams, plus the declared preamble). */
    std::vector<core::AquaLib::PrefixCandidate>
    prefixCandidates(const Sequence *s, std::size_t localFull) const;

    /** Registry remote-read path for an admission whose local prefix
     *  match fell short: lookup, signature check, pin, then stream a
     *  local copy or borrow the home's blocks in place. */
    void tryRemotePrefix(Sequence *s, KvCache::PrefixAcquire &acq,
                         aqua::sim::Tick &transfersDone);

    //
    // Cross-server federation (active only after attachFederation()
    // and attachClusterPrefix()).
    //

    bool
    fedEnabled() const
    {
        return fedFabric && fedLib && clusterEnabled();
    }

    /** Try to start a cross-server prefix stream for a fresh arrival
     *  whose chain no GPU in this scale-up domain holds: directory
     *  lookup, signature check, cost-model verdict, home admission,
     *  then the fabric stream (validated on completion). */
    void maybeBeginFederationFetch(Sequence *s);

    /** Release a borrowed remote lead (unpin the registry lease). */
    void releaseRemoteLead(Sequence *s);

    /** Drop replica-chain records backed by @p s's blocks (called
     *  before the sequence frees them). */
    void dropChainsOwnedBy(const Sequence *s);

    /** Registry callback: pin/unpin a home chain's blocks. */
    bool clusterSetPinned(std::uint64_t key, bool pinned);

    /** Registry callback: adopt a replica chain as the new home. */
    bool clusterPromote(std::uint64_t key);

    /** KvCache eviction observer: a cached block left the index; any
     *  home chain containing it is gone from this GPU. */
    void onCacheBlockEvicted(aqua::mem::BlockId id);

    /** Tally a prefix hit's tokens by serving-block origin and emit a
     *  "prefix_hit" trace event. */
    void countPrefixHit(const Sequence *s,
                        const KvCache::PrefixAcquire &acq);

    hw::Server &server;
    hw::GpuId myGpu;
    model::ModelSpec spec;
    model::PerfModel perf;
    VllmEngineConfig cfg;
    std::unique_ptr<SchedulerPolicy> policy;
    OffloadBackend &backend;
    core::AquaLib *aquaLib = nullptr;
    OffloadBackend *fallback = nullptr;
    SessionTier *sessionTier = nullptr;
    trace::TraceLog *tracer = nullptr;

    std::unique_ptr<overload::AdmissionController> admission;
    std::unique_ptr<overload::BrownoutController> brownout;
    std::unique_ptr<overload::KvPrecisionGovernor> precisionGov;
    /** Precision each user's parked KV was stored at (tier path). */
    std::map<std::uint64_t, model::KvPrecision> parkPrecisions;

    /** Weights + runtime overhead reservation. */
    std::optional<aqua::mem::Region> weightsRegion;
    std::unique_ptr<LoraCache> lora;
    std::unique_ptr<KvCache> kv;

    std::vector<std::unique_ptr<Sequence>> all;
    std::vector<Sequence *> waiting;
    std::vector<Sequence *> running;
    std::vector<Sequence *> swapped;

    CompletionCallback completionCb;
    IterationCallback iterationCb;
    std::vector<workload::RequestMetrics> finishedMetrics;

    bool stepPending = false;
    std::uint64_t iterCount = 0;
    std::uint32_t itersSinceInform = 0;
    std::uint32_t itersSinceRespond = 0;
    std::uint32_t itersSinceSettle = 0;
    std::uint32_t tokensIntoSlice = 0;
    bool needResched = true;
    std::uint64_t arrivalsSinceInform = 0;
    std::uint64_t tokensTotal = 0;
    std::uint64_t nSwapOuts = 0;
    std::uint64_t nSwapIns = 0;
    std::uint64_t nRecomputes = 0;
    std::uint64_t nSheds = 0;
    std::uint64_t shedsSinceInform = 0;
    std::uint64_t nFallbackSwaps = 0;
    std::uint64_t nParks = 0;
    std::uint64_t nStreamResumes = 0;
    std::uint64_t nRecomputeResumes = 0;
    std::uint64_t nTierDemotions = 0;
    stats::Summary queueDelays;

    /** Shared-prefix offload copies, by chain key. */
    std::map<std::uint64_t, SharedGroup> sharedGroups;

    cluster::PrefixRegistry *clusterReg = nullptr;
    core::AquaLib *clusterLib = nullptr;
    hw::Fabric *fedFabric = nullptr;
    core::AquaLib *fedLib = nullptr;
    /** This engine's server index on the fabric. */
    std::uint32_t fedServer = 0;
    std::unique_ptr<federation::FederationCostModel> fedCost;
    /** Chains this engine homes (pinned on registry demand). */
    std::map<std::uint64_t, ClusterChain> homeChains;
    /** Chains homed elsewhere that this engine could adopt. */
    std::map<std::uint64_t, ClusterChain> replicaChains;
    /** Chain keys the registry rejected as cluster-wide collisions
     *  (stay engine-local; never re-published). */
    std::set<std::uint64_t> collisionChains;

    PrefixCacheEngineStats prefixStats;
    IntegrityEngineStats integrity;
    std::uint64_t nWriteBytes = 0;
    std::uint64_t nReadBytes = 0;

    stats::TimeSeries tokens;
    stats::TimeSeries freeMem;
};

} // namespace aqua::serve

#endif // AQUA_SERVE_VLLM_ENGINE_HH
