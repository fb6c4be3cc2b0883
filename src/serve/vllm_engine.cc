#include "serve/vllm_engine.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace aqua::serve {

using namespace aqua::sim;

/** Tokens per KV block (vLLM default). */
constexpr std::uint32_t blockTokens = 16;
/** Call backend->respond() every this many iterations. */
constexpr std::uint32_t respondEveryIters = 4;
/** Run the storage tier's demotion settle pass every this many
 *  iterations (no-op unless a SessionTier is attached). */
constexpr std::uint32_t tierSettleEveryIters = 8;
/** Housekeeping cadence while idle. */
constexpr Tick idleTickPeriod = 100 * nsPerMs;
/** Fraction of post-weights free HBM reserved as the KV pool when
 *  VllmEngineConfig::kvPoolBytesOverride is 0. */
constexpr double kvPoolFraction = 0.95;

VllmEngine::VllmEngine(hw::Server &server, hw::GpuId gpu,
                       const model::ModelSpec &modelSpec,
                       std::unique_ptr<SchedulerPolicy> schedPolicy,
                       OffloadBackend &backend, VllmEngineConfig config,
                       std::vector<model::LoraAdapter> adapters)
    : server(server), myGpu(gpu),
      spec(applyKvConfig(modelSpec, config)),
      perf(spec, server.gpu(gpu).spec()), cfg(config),
      policy(std::move(schedPolicy)), backend(backend),
      tokens("tokens"), freeMem("free_memory")
{
    if (!spec.isText())
        panic("VllmEngine: %s is not a text model", spec.name.c_str());
    // Validates the range; 1.0 (dense) leaves the model untouched.
    perf.setSparseReadFraction(cfg.sparseReadFraction);
    hw::Gpu &dev = server.gpu(gpu);

    std::uint64_t base = spec.weightBytes() + spec.runtimeOverheadBytes;
    weightsRegion = dev.hbm().allocate(base);
    if (!weightsRegion) {
        panic("VllmEngine: %s does not fit on %s (%llu bytes needed)",
              spec.name.c_str(), dev.name().c_str(),
              static_cast<unsigned long long>(base));
    }

    if (cfg.lora) {
        if (adapters.empty())
            panic("VllmEngine: LoRA cache enabled with no adapters");
        lora = std::make_unique<LoraCache>(dev, backend,
                                           std::move(adapters),
                                           *cfg.lora);
    }

    std::uint64_t pool = cfg.kvPoolBytesOverride;
    if (pool == 0) {
        pool = static_cast<std::uint64_t>(
            static_cast<double>(dev.hbm().freeBytes()) *
            kvPoolFraction);
    }
    kv = std::make_unique<KvCache>(dev, spec, pool, blockTokens);
    if (cfg.maxCacheShare < 1.0)
        kv->setMaxCacheShare(cfg.maxCacheShare);
    kv->setEvictionPolicy(cfg.prefixEviction);

    if (cfg.admission) {
        // Service rates from the perf model: amortized prefill cost
        // per token, and a decode iteration at full batch with a
        // half-full pool as the representative per-token-per-seat
        // decode time.
        overload::ServiceRates rates;
        rates.prefillPerToken = perf.prefillTime(1024) / 1024;
        rates.decodePerToken =
            perf.decodeStepTime(cfg.maxBatch, kv->poolBytes() / 2);
        admission = std::make_unique<overload::AdmissionController>(
            rates, *cfg.admission);
    }
    if (cfg.brownout) {
        brownout = std::make_unique<overload::BrownoutController>(
            *cfg.brownout);
    }
    if (cfg.precisionGovernor) {
        precisionGov =
            std::make_unique<overload::KvPrecisionGovernor>(
                *cfg.precisionGovernor, spec.kvPrecision);
    }
}

model::ModelSpec
VllmEngine::applyKvConfig(model::ModelSpec spec,
                          const VllmEngineConfig &cfg)
{
    spec.kvPrecision = cfg.kvPrecision;
    return spec;
}

VllmEngine::~VllmEngine()
{
    // Unwind cluster-registry state first: outstanding read leases,
    // then every chain this engine advertised (the registry promotes
    // a surviving replica or invalidates). The agent is cleared last
    // so the registry can still call back while unwinding.
    if (clusterReg && clusterLib) {
        for (auto &seq : all) {
            if (seq->remotePin != 0)
                clusterLib->prefixUnpin(seq->remotePin);
        }
        for (auto &[key, c] : homeChains)
            clusterLib->prefixEvictNotify(key, c.verify);
        homeChains.clear();
        for (auto &[key, c] : replicaChains)
            clusterLib->prefixEvictNotify(key, c.verify);
        replicaChains.clear();
        clusterReg->clearAgent(myGpu);
    }
    // Release swapped sequences' backend storage (from whichever
    // backend holds it — the circuit breaker may have diverted some
    // swaps to the fallback).
    for (auto &seq : all) {
        if (seq->state == Sequence::State::Swapped &&
            seq->swapHandle.valid()) {
            OffloadBackend &holder =
                seq->swapBackend ? *seq->swapBackend : backend;
            holder.free(seq->swapHandle);
        }
    }
    // Release shared-prefix group copies still in the backend.
    for (auto &[key, group] : sharedGroups) {
        if (group.handle.valid())
            backend.free(group.handle);
    }
    // kv and lora free their reservations before weightsRegion.
    kv.reset();
    lora.reset();
    if (weightsRegion)
        server.gpu(myGpu).hbm().free(*weightsRegion);
}

void
VllmEngine::attachAquaLib(core::AquaLib *lib)
{
    aquaLib = lib;
    // Kick the housekeeping loop so an idle producer still informs.
    scheduleStep(server.simulation().now());
}

void
VllmEngine::attachClusterPrefix(cluster::PrefixRegistry *registry,
                                core::AquaLib *lib)
{
    clusterReg = registry;
    clusterLib = lib;
    if (!clusterReg || !clusterLib)
        return;
    cluster::RegistryAgent agent;
    agent.setPinned = [this](std::uint64_t key, bool pinned) {
        return clusterSetPinned(key, pinned);
    };
    agent.promote = [this](std::uint64_t key) {
        return clusterPromote(key);
    };
    clusterReg->setAgent(myGpu, std::move(agent));
    kv->setEvictionObserver(
        [this](aqua::mem::BlockId id) { onCacheBlockEvicted(id); });
}

void
VllmEngine::attachFederation(hw::Fabric *fabric,
                             std::uint32_t serverIndex,
                             core::AquaLib *lib)
{
    fedFabric = fabric;
    fedServer = serverIndex;
    fedLib = lib;
    if (!fedFabric || !fedLib) {
        fedCost.reset();
        return;
    }
    federation::FederationCostConfig fc;
    fc.safetyFactor = cfg.federationSafetyFactor;
    fedCost = std::make_unique<federation::FederationCostModel>(
        *fedFabric, perf, fc);
}

void
VllmEngine::setTraceLog(trace::TraceLog *log)
{
    tracer = log;
    if (brownout)
        brownout->setTraceLog(log);
    if (precisionGov)
        precisionGov->setTraceLog(log);
}

void
VllmEngine::setFallbackBackend(OffloadBackend *fallbackBackend)
{
    fallback = fallbackBackend;
}

void
VllmEngine::attachSessionTier(SessionTier *tier)
{
    sessionTier = tier;
}

template <typename Fill>
void
VllmEngine::traceSeq(Tick when, const char *category, const Sequence *s,
                     Fill fill)
{
    if (tracer) {
        json::Value f;
        f["request"] = static_cast<std::int64_t>(s->request.id);
        fill(f);
        tracer->emit(when, category, std::move(f));
    }
}

template <typename ReRead>
bool
VllmEngine::verifyArrival(const Sequence *s, Arrival from,
                          const char *path, ReRead reRead)
{
    Tick now = server.simulation().now();
    auto withPath = [path](json::Value &f) { f["path"] = path; };
    if (from == Arrival::FromSsd) {
        // A hit means the *stored* copy rotted on media (ssd_bitrot):
        // re-reading returns the same damaged bytes.
        hw::Ssd *drive = server.topology().ssd();
        if (!drive || !drive->drawBitrot())
            return true;
        ++integrity.detected;
        ++integrity.recomputeFallbacks;
        traceSeq(now, "corruption_recompute", s, withPath);
        return false;
    }
    // A hit is in-flight link corruption (payload_corrupt): the source
    // copy is intact, so one more read repairs it.
    if (!server.topology().drawPayloadCorruption())
        return true;
    ++integrity.detected;
    traceSeq(now, "corruption_detected", s, withPath);
    reRead();
    ++integrity.repairedRetransmit;
    traceSeq(now, "corruption_repaired", s, withPath);
    return true;
}

void
VllmEngine::submit(const workload::Request &request)
{
    // Accept early submissions: the request only becomes visible to
    // the scheduler at its arrival time.
    if (request.arrival > server.simulation().now()) {
        workload::Request r = request;
        server.simulation().queue().schedule(r.arrival, [this, r] {
            submit(r);
        });
        return;
    }
    auto seq = std::make_unique<Sequence>();
    seq->request = request;
    seq->metrics.id = request.id;
    seq->metrics.arrival = request.arrival;
    seq->metrics.deadline = request.deadline;
    Sequence *raw = seq.get();
    all.push_back(std::move(seq));
    waiting.push_back(raw);
    ++arrivalsSinceInform;

    // Brownout fast-fail at the door: refusing now is cheaper (for
    // both sides) than queueing a request the ladder will shed at its
    // first scheduling pass anyway.
    if (brownout) {
        Tick now = server.simulation().now();
        updateBrownout(now);
        if (brownout->rejectingNew()) {
            shedSeq(raw, overload::ShedReason::BrownoutReject, now);
            return;
        }
        if (request.bestEffort && brownout->shedBestEffort()) {
            shedSeq(raw, overload::ShedReason::BrownoutBestEffort,
                    now);
            return;
        }
    }
    maybeBeginResume(raw);
    maybeBeginFederationFetch(raw);
    needResched = true;
    scheduleStep(server.simulation().now());
}

void
VllmEngine::maybeBeginResume(Sequence *s)
{
    if (!sessionTier || s->request.turn == 0)
        return;
    std::uint64_t key = s->request.userId;
    std::uint32_t parked = sessionTier->parkedTokens(key);
    if (parked == 0)
        return;
    // The follow-up's prompt re-sends the conversation history the
    // parked KV covers; cap one short of the prompt so at least one
    // token is always computed.
    std::uint32_t cap =
        s->request.promptTokens > 0 ? s->request.promptTokens - 1 : 0;
    std::uint32_t usable = std::min(parked, cap);
    if (usable == 0) {
        sessionTier->cancelResume(key);
        return;
    }
    Tick now = server.simulation().now();
    // A quantized parked copy streams fewer bytes but pays a dequant
    // pass on arrival; fold that into the crossover so recompute wins
    // when dequant erodes the streaming advantage.
    Tick streamOverhead = 0;
    auto pp = parkPrecisions.find(key);
    if (pp != parkPrecisions.end() &&
        pp->second != spec.kvPrecision) {
        streamOverhead =
            perf.dequantTimeAt(kv->kvBytes(usable), pp->second);
    }
    // Stream-vs-recompute crossover: the tier compares the prefetch
    // makespan against what re-prefilling the parked context costs at
    // the roofline rate. Streaming starts immediately so the windows
    // overlap whatever the GPU is already decoding.
    bool streaming = sessionTier->beginResume(
        key, now, perf.prefillTime(usable),
        [this, s, usable](bool streamed) {
            s->prefetchPending = false;
            if (s->state != Sequence::State::Waiting)
                return false; // shed while the stream was in flight
            // A stream cancelled mid-flight (device degradation or
            // failure), or one whose parked copy rotted, leaves this
            // turn to re-prefill from the prompt.
            bool kept = streamed && verifyArrival(s, Arrival::FromSsd,
                                                  "ssd_resume", [] {});
            if (kept) {
                s->landedTokens = usable;
                ++nStreamResumes;
            } else {
                ++nRecomputeResumes;
            }
            needResched = true;
            scheduleStep(server.simulation().now());
            return kept;
        },
        streamOverhead);
    if (streaming) {
        s->prefetchPending = true;
        s->prefetchOrigin = BlockOrigin::Local;
    } else {
        ++nRecomputeResumes;
    }
}

void
VllmEngine::maybeBeginFederationFetch(Sequence *s)
{
    if (!fedEnabled() || !cfg.prefixCache || s->prefetchPending ||
        s->prefilledTokens > 0)
        return;
    std::vector<core::AquaLib::PrefixCandidate> cands =
        prefixCandidates(s, 0);
    if (cands.empty())
        return;
    // Escalation order: the scale-up domain first — a chain homed on
    // any GPU here streams over NVLink at admission — and only a
    // domain-wide miss consults the federation directory.
    if (clusterLib->prefixLookup(cands).found)
        return;
    core::AquaLib::FederationLookupOutcome fl =
        fedLib->federationLookup(cands);
    if (!fl.found) {
        ++prefixStats.fedMisses;
        return;
    }
    ++prefixStats.fedHits;
    // Trust nothing across the fabric: the advertised chain's content
    // signature must match this request's own tokens.
    TokenFn tok = tokenFnFor(s->request);
    std::uint64_t wantSig = KvCache::contentSig(
        tok, 0, fl.chain.blocks * blockTokens);
    if (wantSig != fl.chain.chainSig) {
        ++prefixStats.clusterSigMismatches;
        return;
    }
    // Stream-vs-recompute, priced at the fabric's current state
    // (degradation, queue backlog) and the chain's wire bytes.
    federation::FederationDecision verdict = fedCost->decide(
        fl.chain.homeServer, fedServer, fl.chain.bytes,
        fl.chain.tokens, spec.kvPrecision);
    if (!verdict.stream) {
        ++prefixStats.fedRecomputeDecisions;
        traceSeq(server.simulation().now(), "fed_recompute", s,
                 [&](json::Value &f) {
                     f["stream_estimate"] = static_cast<std::int64_t>(
                         verdict.streamEstimate);
                     f["prefill_estimate"] = static_cast<std::int64_t>(
                         verdict.prefillEstimate);
                 });
        return;
    }
    ++prefixStats.fedStreamDecisions;
    // Home-side admission: the Harvest-style cap bounds concurrent
    // remote consumers per home, and staleness is re-checked there.
    core::AquaLib::FederationFetchOutcome grant =
        fedLib->federationFetch(fl.chain);
    if (!grant.ok) {
        ++prefixStats.fedFetchRefusals;
        return;
    }
    Tick now = server.simulation().now();
    s->prefetchPending = true;
    s->prefetchOrigin = BlockOrigin::RemoteServer;
    std::uint32_t tokens = static_cast<std::uint32_t>(grant.tokens);
    std::uint64_t bytes = grant.bytes;
    traceSeq(now, "fed_stream_begin", s, [&](json::Value &f) {
        f["home_server"] = static_cast<std::int64_t>(grant.homeServer);
        f["tokens"] = static_cast<std::int64_t>(tokens);
        f["bytes"] = static_cast<std::int64_t>(bytes);
    });
    fedFabric->streamKv(
        grant.homeServer, grant.homeGpu, fedServer, myGpu, bytes,
        [this, s, tokens, bytes, home = grant.homeServer,
         ticket = grant.ticket] {
            s->prefetchPending = false;
            // Close the ticket whatever happens next: it frees the
            // home's admission slot and reports payload validity (the
            // chain may have been evicted or its home lost while the
            // stream was on the wire).
            bool valid = fedLib && fedLib->federationFetchDone(home, ticket);
            if (s->state == Sequence::State::Waiting) {
                if (valid) {
                    s->landedTokens = tokens;
                    ++prefixStats.fedStreamsCompleted;
                    prefixStats.fedStreamBytes += bytes;
                } else {
                    // Cancel to recompute: the payload is worthless,
                    // the request simply re-prefills from its prompt.
                    ++prefixStats.fedStreamsInvalidated;
                }
            }
            traceSeq(server.simulation().now(), "fed_stream_end", s,
                     [valid](json::Value &f) { f["valid"] = valid; });
            needResched = true;
            scheduleStep(server.simulation().now());
        },
        now);
}

void
VllmEngine::scheduleStep(Tick when)
{
    EventQueue &q = server.simulation().queue();
    if (when < q.now())
        when = q.now();
    if (stepPending)
        return;
    stepPending = true;
    q.schedule(when, [this] {
        stepPending = false;
        step();
    });
}

void
VllmEngine::removeFrom(std::vector<Sequence *> &list, Sequence *s)
{
    auto it = std::find(list.begin(), list.end(), s);
    if (it != list.end())
        list.erase(it);
}

void
VllmEngine::recordFreeMemory()
{
    Tick now = server.simulation().now();
    std::uint64_t visible = server.gpu(myGpu).hbm().freeBytes();
    if (aquaLib)
        visible += aquaLib->leasedBytes();
    freeMem.record(now, static_cast<double>(visible));
}

void
VllmEngine::doInform()
{
    if (!aquaLib)
        return;
    core::EngineStats st;
    st.now = server.simulation().now();
    st.pendingRequests = waiting.size();
    st.runningRequests = running.size() + swapped.size();
    st.arrivalsSinceLast = arrivalsSinceInform;
    st.freePoolBytes = kv->freeBytes();
    st.reservedPoolBytes = kv->poolBytes();
    // Backpressure signals: queue delay and sheds tell the informer
    // the engine is hurting, so it reclaims leased memory before the
    // queue (and the shed rate) grows further.
    st.queueDelaySec = oldestWaitingSec(st.now);
    st.shedsSinceLast = shedsSinceInform;
    st.registryHits = prefixStats.registryHits;
    st.registryMisses = prefixStats.registryMisses;
    st.remotePrefixBytes =
        prefixStats.remoteCopyBytes + prefixStats.remoteDecodeReadBytes;
    shedsSinceInform = 0;
    arrivalsSinceInform = 0;

    std::int64_t delta = aquaLib->informStats(st);
    if (delta < 0) {
        std::uint64_t released =
            kv->shrink(static_cast<std::uint64_t>(-delta));
        aquaLib->confirmDonate(released);
    } else if (delta > 0) {
        kv->grow(static_cast<std::uint64_t>(delta));
    }
}

void
VllmEngine::publishSeq(Sequence *s, bool atFinish)
{
    if (!cfg.prefixCache || s->blocks.empty())
        return;
    // Brownout: cache upkeep is optional work. Above NoCachePublish
    // the engine stops growing the index so freed blocks return to
    // the pool instead of lingering as evictable cache.
    if (brownout && brownout->publishDisabled())
        return;
    Tick now = server.simulation().now();
    if (!clusterEnabled()) {
        // Simulated token contents are deterministic per request
        // stream, so every computed position is publishable;
        // publishPrefix caps coverage at what the blocks hold.
        kv->publishPrefix(tokenFnFor(s->request), s->kvTokens(),
                          s->blocks, now);
        return;
    }
    // Borrowed sequences hold only their tail blocks; there is no
    // locally resident chain rooted at token zero to advertise.
    if (s->remoteLeadBlocks > 0)
        return;

    TokenFn tok = tokenFnFor(s->request);
    std::uint64_t kvTok = s->kvTokens();
    std::size_t fullBlocks = std::min<std::size_t>(
        s->blocks.size(),
        static_cast<std::size_t>(kvTok / blockTokens));

    // Register the shareable boundaries and derive how much of the
    // chain to retain locally: a boundary homed elsewhere (Replica)
    // is not duplicated past the previous boundary — unless a longer
    // chain is homed here, since homing carries the duty to keep the
    // whole chain resident.
    using Role = core::AquaLib::PrefixPublishOutcome::Role;
    std::uint64_t insertCap = kvTok;
    bool replicaSeen = false;
    std::uint64_t prevTokens = 0;
    for (std::size_t b : chainBoundaries(s, fullBlocks, atFinish)) {
        PrefixIndex::ChainKeys ck = kv->prefixChainKeysAt(tok, b);
        std::uint64_t tokens = std::uint64_t(b) * blockTokens;
        Role role;
        if (homeChains.count(ck.key) != 0) {
            role = Role::Home;
        } else if (replicaChains.count(ck.key) != 0) {
            role = Role::Replica;
        } else if (collisionChains.count(ck.key) != 0) {
            role = Role::Collision;
        } else {
            auto out = clusterLib->prefixPublish(
                ck.key, ck.verify, static_cast<std::uint32_t>(b),
                tokens, kv->kvBytes(tokens),
                KvCache::contentSig(
                    tok, 0, static_cast<std::uint32_t>(tokens)));
            role = out.role;
            if (role == Role::Collision)
                collisionChains.insert(ck.key);
        }
        if (role == Role::Home || role == Role::Replica) {
            ClusterChain rec;
            rec.blocks.assign(s->blocks.begin(),
                              s->blocks.begin() + b);
            rec.tokens = tokens;
            rec.verify = ck.verify;
            rec.req = s->request;
            rec.owner = role == Role::Replica ? s : nullptr;
            auto &chains =
                role == Role::Home ? homeChains : replicaChains;
            chains[ck.key] = std::move(rec);
        }
        if (role == Role::Replica && !replicaSeen) {
            insertCap = prevTokens;
            replicaSeen = true;
        } else if (role == Role::Home && replicaSeen) {
            insertCap = tokens;
        }
        prevTokens = tokens;
    }
    kv->publishPrefix(tok, kvTok, s->blocks, now, true, insertCap);
}

std::vector<std::size_t>
VllmEngine::chainBoundaries(const Sequence *s, std::size_t maxBlocks,
                            bool atFinish) const
{
    std::vector<std::size_t> out;
    const workload::Request &r = s->request;
    std::size_t preamble =
        r.prefixTokens >= blockTokens
            ? std::min<std::size_t>(r.prefixTokens / blockTokens,
                                    maxBlocks)
            : 0;
    if (preamble > 0)
        out.push_back(preamble);
    // Only *final* contexts of conversation streams recur (as the
    // next turn's history prefix); intermediate contexts of a
    // request-private stream never match anything.
    if (atFinish && r.contentStream != 0 && maxBlocks > preamble)
        out.push_back(maxBlocks);
    return out;
}

std::vector<core::AquaLib::PrefixCandidate>
VllmEngine::prefixCandidates(const Sequence *s,
                             std::size_t localFull) const
{
    std::vector<core::AquaLib::PrefixCandidate> cands;
    std::uint64_t match = s->kvTokens() > 0 ? s->kvTokens() - 1 : 0;
    std::size_t wantFull =
        static_cast<std::size_t>(match / blockTokens);
    if (wantFull <= localFull)
        return cands;

    TokenFn tok = tokenFnFor(s->request);
    // Candidate boundaries, longest first. Conversation streams scan
    // densely — the previous turn's finish boundary is not knowable
    // here — while for declared-preamble requests only the preamble
    // boundary can match anything cluster-wide.
    std::vector<PrefixIndex::ChainKeys> keys =
        kv->prefixChainKeysUpTo(tok, wantFull);
    if (s->request.contentStream != 0) {
        constexpr std::size_t kMaxCandidates = 64;
        for (std::size_t b = wantFull;
             b > localFull && cands.size() < kMaxCandidates; --b) {
            cands.push_back({keys[b - 1].key, keys[b - 1].verify,
                             static_cast<std::uint32_t>(b)});
        }
    }
    std::size_t preamble =
        s->request.prefixTokens >= blockTokens
            ? s->request.prefixTokens / blockTokens
            : 0;
    if (preamble > localFull && preamble <= wantFull) {
        bool present = false;
        for (const auto &c : cands)
            present |= c.blocks == preamble;
        if (!present) {
            cands.push_back({keys[preamble - 1].key,
                             keys[preamble - 1].verify,
                             static_cast<std::uint32_t>(preamble)});
        }
    }
    return cands;
}

void
VllmEngine::tryRemotePrefix(Sequence *s, KvCache::PrefixAcquire &acq,
                            Tick &transfersDone)
{
    std::size_t localFull =
        acq.blocks.size() - (acq.partialTokens > 0 ? 1 : 0);
    std::vector<core::AquaLib::PrefixCandidate> cands =
        prefixCandidates(s, localFull);
    if (cands.empty())
        return;
    TokenFn tok = tokenFnFor(s->request);

    core::AquaLib::PrefixLookupOutcome rl =
        clusterLib->prefixLookup(cands);
    if (!rl.found || rl.home == myGpu || rl.blocks <= localFull) {
        ++prefixStats.registryMisses;
        return;
    }
    // Trust nothing across the wire: the registered chain's content
    // signature must match this request's own tokens.
    std::uint64_t wantSig = KvCache::contentSig(
        tok, 0, rl.blocks * blockTokens);
    if (wantSig != rl.chainSig) {
        ++prefixStats.clusterSigMismatches;
        ++prefixStats.registryMisses;
        return;
    }
    if (server.topology().gpuFailed(rl.home)) {
        ++prefixStats.registryMisses;
        return;
    }
    core::AquaLib::PrefixPinOutcome pinr =
        clusterLib->prefixPin(rl.key, rl.verify);
    if (!pinr.ok) {
        ++prefixStats.registryMisses;
        return;
    }

    Tick now = server.simulation().now();
    // Sparse attention reprices borrow-vs-copy: each decode step reads
    // only a fraction of the borrowed lead over the peer link, so
    // proportionally longer chains are worth serving in place.
    std::uint64_t borrowCap = cfg.clusterBorrowMaxBlocks;
    if (cfg.sparseReadFraction < 1.0) {
        borrowCap = static_cast<std::uint64_t>(
            static_cast<double>(borrowCap) / cfg.sparseReadFraction);
    }
    if (localFull == 0 && rl.blocks <= borrowCap) {
        // Short chain: serve the lead in place from the home GPU.
        // The lease holds until the sequence releases it.
        if (!acq.blocks.empty()) {
            kv->freeBlocks(acq.blocks);
            acq.blocks.clear();
        }
        acq.tokens = rl.tokens;
        acq.partialTokens = 0;
        s->remoteLeadBlocks = rl.blocks;
        s->remoteLeadTokens = rl.tokens;
        s->remoteHome = pinr.home;
        s->remotePin = pinr.pin;
        prefixStats.remoteHitBlocks += rl.blocks;
        ++prefixStats.borrowAdmissions;
        ++prefixStats.registryHits;
        // Integrity check on the admission probe read. The pinned
        // home copy is intact, so a link hit is one more NVLink read.
        verifyArrival(s, Arrival::OverLink, "prefix_borrow", [&] {
            hw::TransferTiming redo = clusterLib->readPeerPrefix(
                pinr.home, kv->kvBytes(rl.tokens), rl.blocks, now);
            if (redo.complete > transfersDone)
                transfersDone = redo.complete;
        });
        return;
    }

    // Stream a local copy of the missing lead blocks over NVLink; the
    // lease holds the home copy resident until the transfer lands.
    if (acq.partialTokens > 0) {
        kv->freeBlocks({acq.blocks.back()});
        acq.blocks.pop_back();
        acq.tokens -= acq.partialTokens;
        acq.partialTokens = 0;
    }
    std::size_t missing = rl.blocks - localFull;
    auto fresh = kv->allocateBlocks(missing);
    if (!fresh) {
        clusterLib->prefixUnpin(pinr.pin);
        ++prefixStats.registryMisses;
        return;
    }
    std::uint64_t bytes =
        kv->kvBytes(std::uint64_t(missing) * blockTokens);
    hw::TransferTiming t =
        clusterLib->readPeerPrefix(pinr.home, bytes, missing, now);
    // Verify the streamed copy's signatures before admitting it; the
    // pinned home copy is still good, so a hit streams it again and
    // the lease simply holds a little longer.
    verifyArrival(s, Arrival::OverLink, "prefix_copy", [&] {
        t = clusterLib->readPeerPrefix(pinr.home, bytes, missing,
                                       t.complete);
    });
    if (t.complete > transfersDone)
        transfersDone = t.complete;
    for (std::size_t i = 0; i < fresh->size(); ++i) {
        std::uint64_t first =
            std::uint64_t(localFull + i) * blockTokens;
        kv->setBlockSig((*fresh)[i], KvCache::contentSig(
                                         tok, first, blockTokens));
        kv->setBlockOrigin((*fresh)[i], BlockOrigin::RemotePeer);
    }
    acq.blocks.insert(acq.blocks.end(), fresh->begin(), fresh->end());
    acq.tokens = std::uint64_t(rl.blocks) * blockTokens;
    prefixStats.remoteHitBlocks += missing;
    prefixStats.remoteCopyBytes += bytes;
    ++prefixStats.copyAdmissions;
    ++prefixStats.registryHits;
    // Release the lease once the stream has landed on this GPU.
    std::uint64_t pin = pinr.pin;
    server.simulation().queue().schedule(t.complete, [this, pin] {
        if (clusterLib)
            clusterLib->prefixUnpin(pin);
    });
}

void
VllmEngine::releaseRemoteLead(Sequence *s)
{
    if (s->remotePin != 0 && clusterLib)
        clusterLib->prefixUnpin(s->remotePin);
    s->remotePin = 0;
    s->remoteLeadBlocks = 0;
    s->remoteLeadTokens = 0;
    s->remoteHome = hw::hostDramId;
}

void
VllmEngine::dropChainsOwnedBy(const Sequence *s)
{
    if (replicaChains.empty() || !clusterLib)
        return;
    for (auto it = replicaChains.begin();
         it != replicaChains.end();) {
        if (it->second.owner == s) {
            std::uint64_t key = it->first;
            std::uint64_t verify = it->second.verify;
            it = replicaChains.erase(it);
            clusterLib->prefixEvictNotify(key, verify);
        } else {
            ++it;
        }
    }
}

bool
VllmEngine::clusterSetPinned(std::uint64_t key, bool pinned)
{
    auto it = homeChains.find(key);
    if (it == homeChains.end())
        return false;
    for (aqua::mem::BlockId id : it->second.blocks) {
        if (pinned)
            kv->pinBlock(id);
        else
            kv->unpinBlock(id);
    }
    return true;
}

bool
VllmEngine::clusterPromote(std::uint64_t key)
{
    auto it = replicaChains.find(key);
    if (it == replicaChains.end())
        return false;
    ClusterChain c = std::move(it->second);
    replicaChains.erase(it);
    c.owner = nullptr;
    // Adopt the chain: index it locally so it stays resident (and
    // pinnable) after the owning sequence releases its blocks.
    kv->publishPrefix(tokenFnFor(c.req), c.tokens, c.blocks,
                      server.simulation().now());
    homeChains.emplace(key, std::move(c));
    return true;
}

void
VllmEngine::onCacheBlockEvicted(aqua::mem::BlockId id)
{
    if (!clusterLib || homeChains.empty())
        return;
    for (auto it = homeChains.begin(); it != homeChains.end();) {
        ClusterChain &c = it->second;
        if (std::find(c.blocks.begin(), c.blocks.end(), id) !=
            c.blocks.end()) {
            std::uint64_t key = it->first;
            std::uint64_t verify = c.verify;
            it = homeChains.erase(it);
            clusterLib->prefixEvictNotify(key, verify);
        } else {
            ++it;
        }
    }
}

void
VllmEngine::countPrefixHit(const Sequence *s,
                           const std::vector<aqua::mem::BlockId> &blocks,
                           std::uint64_t tokens)
{
    std::uint64_t local = 0;
    std::uint64_t remote = 0;
    std::uint64_t dram = 0;
    std::uint64_t remoteServer = 0;
    std::uint64_t covered = 0;
    for (std::size_t i = 0; i < blocks.size() && covered < tokens; ++i) {
        std::uint64_t tk =
            std::min<std::uint64_t>(blockTokens, tokens - covered);
        switch (kv->blockOrigin(blocks[i])) {
          case BlockOrigin::Local:
            local += tk;
            break;
          case BlockOrigin::RemotePeer:
            remote += tk;
            break;
          case BlockOrigin::Dram:
            dram += tk;
            break;
          case BlockOrigin::RemoteServer:
            remoteServer += tk;
            break;
        }
        covered += tk;
    }
    // A borrowed lead serves from the peer with no local blocks.
    remote += s->remoteLeadTokens;
    prefixStats.hitTokensLocal += local;
    prefixStats.hitTokensRemote += remote;
    prefixStats.hitTokensDram += dram;
    prefixStats.hitTokensRemoteServer += remoteServer;
    traceSeq(server.simulation().now(), "prefix_hit", s,
             [&](json::Value &f) {
                 f["tokens"] = static_cast<std::int64_t>(tokens);
                 f["local"] = static_cast<std::int64_t>(local);
                 f["remote_peer"] = static_cast<std::int64_t>(remote);
                 f["dram"] = static_cast<std::int64_t>(dram);
                 f["remote_server"] =
                     static_cast<std::int64_t>(remoteServer);
             });
}

std::size_t
VllmEngine::sharedLeadBlocks(const Sequence *s) const
{
    // A borrowed lead lives on the home GPU, not in s->blocks.
    if (s->remoteLeadBlocks > 0)
        return 0;
    // Leading run of full blocks some other holder (the index or a
    // peer sequence) also references: exactly the blocks whose
    // contents are recoverable from a shared-group backend copy.
    std::size_t maxFull =
        static_cast<std::size_t>(s->kvTokens() / blockTokens);
    std::size_t lead = 0;
    while (lead < s->blocks.size() && lead < maxFull &&
           kv->blockRefCount(s->blocks[lead]) > 1)
        ++lead;
    return lead;
}

void
VllmEngine::releaseSwapGroup(Sequence *s)
{
    if (s->swapGroupKey != 0) {
        auto it = sharedGroups.find(s->swapGroupKey);
        if (it != sharedGroups.end() && --it->second.refs == 0) {
            backend.free(it->second.handle);
            sharedGroups.erase(it);
        }
    }
    s->swapGroupKey = 0;
    s->swapSharedBlocks = 0;
    s->swapSigs.clear();
}

void
VllmEngine::dropKvForRecompute(Sequence *s, std::vector<Sequence *> &from)
{
    releaseRemoteLead(s);
    dropChainsOwnedBy(s);
    kv->freeBlocks(s->blocks);
    s->blocks.clear();
    releaseSwapGroup(s);
    s->prefilled = false;
    s->prefilledTokens = 0;
    s->state = Sequence::State::Waiting;
    removeFrom(from, s);
    waiting.push_back(s);
    ++nRecomputes;
    needResched = true;
}

void
VllmEngine::swapOutSeq(Sequence *s, Tick &transfersDone)
{
    if (cfg.preemption == PreemptionMode::Recompute ||
        !s->prefilled || s->remoteLeadBlocks > 0) {
        // vLLM's recompute policy: drop the KV; the sequence will
        // re-prefill its whole context (prompt + generated) when it
        // is scheduled again. No transfer, but FLOPs later. Also
        // used for sequences caught mid-prefill: vLLM never swaps
        // an unprefilled sequence. With prefix caching the computed
        // context is published first, so the re-prefill resumes from
        // whatever the cache still holds at readmission. A borrowed
        // remote lead can never swap — the lease is released and the
        // context recomputed (or re-fetched) on readmission.
        if (s->prefilled)
            publishSeq(s);
        dropKvForRecompute(s, running);
        return;
    }
    // The circuit breaker diverts swaps to the fallback (host DRAM)
    // backend while the primary offload path is under reclaim or link
    // degradation. Shared-group dedup only applies on the primary
    // backend — group copies live there, so fallback swaps are always
    // private.
    OffloadBackend &target = swapTarget();
    bool usingFallback = &target != &backend;
    std::uint64_t bytes = kv->kvBytes(s->kvTokens());
    std::uint64_t groupBytes = 0;
    std::size_t lead = 0;
    if (cfg.prefixCache) {
        // Keep the prefix resident (index references survive the
        // borrower's frees below) and snapshot per-block signatures
        // for the byte-identity check on swap-in.
        publishSeq(s);
        s->swapSigs.clear();
        s->swapSigs.reserve(s->blocks.size());
        for (aqua::mem::BlockId b : s->blocks)
            s->swapSigs.push_back(kv->blockSig(b));
        // Deduplicated offload: a shared prefix is materialized in
        // the backend once per group; later borrowers just take a
        // reference instead of re-staging the same bytes.
        if (!usingFallback)
            lead = sharedLeadBlocks(s);
        if (lead > 0) {
            std::uint64_t key = kv->prefixChainKey(
                tokenFnFor(s->request), lead);
            groupBytes =
                kv->kvBytes(std::uint64_t(lead) * blockTokens);
            auto [it, fresh] = sharedGroups.try_emplace(key);
            if (fresh) {
                auto gh = backend.alloc(groupBytes);
                if (!gh) {
                    // Backend full: fall back to a private swap.
                    sharedGroups.erase(it);
                    lead = 0;
                    groupBytes = 0;
                } else {
                    it->second.handle = *gh;
                    it->second.blocks =
                        static_cast<std::uint32_t>(lead);
                    hw::TransferTiming t =
                        backend.write(*gh, groupBytes, lead);
                    if (t.complete > transfersDone)
                        transfersDone = t.complete;
                    nWriteBytes += groupBytes;
                    ++prefixStats.groupWrites;
                }
            } else {
                prefixStats.dedupSavedBytes += groupBytes;
                ++prefixStats.sharedSwapOuts;
            }
            if (lead > 0) {
                ++it->second.refs;
                s->swapGroupKey = key;
                s->swapSharedBlocks = static_cast<std::uint32_t>(lead);
            }
        }
    }
    std::uint64_t tailBytes = bytes - groupBytes;
    // Quantize-before-evict: under memory pressure the governor
    // demotes the *private* tail below the serving precision before
    // it leaves HBM. Shared-group copies stay at serving precision —
    // other borrowers restore from them without a dequant pass.
    model::KvPrecision cold = coldPrecision();
    std::uint64_t storedTail = tailBytes;
    Tick quantReady = 0;
    if (cold != spec.kvPrecision && tailBytes > 0) {
        storedTail =
            model::rescaleKvBytes(tailBytes, spec.kvPrecision, cold);
        // The quantization kernel runs before the bytes can stage out.
        quantReady = server.simulation().now() +
                     perf.dequantTimeAt(tailBytes, cold);
        if (precisionGov)
            precisionGov->notePayload(tailBytes, storedTail);
    }
    s->swapPrecision = cold;
    s->swapHandle = OffloadBackend::Handle{};
    s->swapBackend = nullptr;
    if (storedTail > 0) {
        auto handle = target.alloc(storedTail);
        if (!handle && usingFallback) {
            // Fallback full: fail back to the primary path rather
            // than dropping the sequence.
            handle = backend.alloc(storedTail);
            usingFallback = false;
        }
        if (!handle) {
            panic("VllmEngine: offload backend exhausted swapping out "
                  "sequence %llu",
                  static_cast<unsigned long long>(s->request.id));
        }
        OffloadBackend &dest = usingFallback ? target : backend;
        hw::TransferTiming t = dest.write(
            *handle, storedTail, s->blocks.size() - lead, quantReady);
        if (t.complete > transfersDone)
            transfersDone = t.complete;
        nWriteBytes += storedTail;
        s->swapHandle = *handle;
        if (usingFallback) {
            s->swapBackend = &target;
            ++nFallbackSwaps;
        }
        // Register the private tail with the tier's demotion policy
        // when it landed in a DRAM-class backend: a long-swapped
        // sequence's KV ages out of DRAM onto the SSD. Shared-group
        // copies are never registered — other borrowers may need them
        // at DRAM speed (they are pinned to DRAM by omission).
        if (sessionTier) {
            OffloadBackend &holder =
                s->swapBackend ? *s->swapBackend : backend;
            if (holder.name() == "dram")
                sessionTier->noteOffloaded(s->request.id, storedTail,
                                           server.simulation().now());
        }
    }
    dropChainsOwnedBy(s);
    kv->freeBlocks(s->blocks);
    s->blocks.clear();
    s->state = Sequence::State::Swapped;
    removeFrom(running, s);
    swapped.push_back(s);
    ++nSwapOuts;
}

bool
VllmEngine::swapInSeq(Sequence *s, Tick &transfersDone)
{
    std::size_t need = kv->blocksForTokens(s->kvTokens());

    // Re-acquire whatever of the shared prefix is still resident:
    // those blocks need no transfer at all. The cap is a multiple of
    // the block size, so only full blocks can match.
    std::vector<aqua::mem::BlockId> resident;
    if (cfg.prefixCache && s->swapSharedBlocks > 0) {
        KvCache::PrefixAcquire acq = kv->acquirePrefix(
            tokenFnFor(s->request),
            std::uint64_t(s->swapSharedBlocks) * blockTokens,
            server.simulation().now());
        resident = std::move(acq.blocks);
    }

    auto blocks = kv->allocateBlocks(need - resident.size());
    if (!blocks) {
        if (!resident.empty())
            kv->freeBlocks(resident);
        return false;
    }

    // Shared blocks evicted since swap-out come from the group's
    // single backend copy; the private tail from the swap handle.
    std::size_t missingShared = s->swapSharedBlocks - resident.size();
    if (missingShared > 0) {
        auto it = sharedGroups.find(s->swapGroupKey);
        if (it == sharedGroups.end()) {
            panic("VllmEngine: shared group %llx vanished under "
                  "swapped sequence %llu",
                  static_cast<unsigned long long>(s->swapGroupKey),
                  static_cast<unsigned long long>(s->request.id));
        }
        std::uint64_t sharedBytes =
            kv->kvBytes(std::uint64_t(missingShared) * blockTokens);
        hw::TransferTiming t = backend.read(it->second.handle,
                                            sharedBytes, missingShared);
        if (t.complete > transfersDone)
            transfersDone = t.complete;
        nReadBytes += sharedBytes;
    }
    prefixStats.residentReuseBytes +=
        kv->kvBytes(std::uint64_t(resident.size()) * blockTokens);
    if (s->swapHandle.valid()) {
        // The private tail comes back from whichever backend the
        // swap-out targeted (the fallback when the circuit breaker
        // was open).
        OffloadBackend &holder =
            s->swapBackend ? *s->swapBackend : backend;
        std::size_t tailBlocks = need - s->swapSharedBlocks;
        hw::TransferTiming t =
            holder.read(s->swapHandle, s->swapHandle.bytes, tailBlocks);
        Tick restored = t.complete;
        // A demoted tail streamed fewer bytes but must be dequantized
        // back to the serving precision before decode can touch it.
        if (s->swapPrecision != spec.kvPrecision) {
            std::uint64_t servingBytes = model::rescaleKvBytes(
                s->swapHandle.bytes, s->swapPrecision,
                spec.kvPrecision);
            restored +=
                perf.dequantTimeAt(servingBytes, s->swapPrecision);
        }
        if (restored > transfersDone)
            transfersDone = restored;
        nReadBytes += s->swapHandle.bytes;
        // Signature-verify the restored tail before decode touches
        // it: a DRAM/peer payload re-reads from the intact backend
        // copy, while a tail demoted to the SSD may have rotted there.
        Arrival from = holder.name() == "ssd" ? Arrival::FromSsd
                                               : Arrival::OverLink;
        bool usable = verifyArrival(s, from, "swap_in", [&] {
            hw::TransferTiming rt = holder.read(
                s->swapHandle, s->swapHandle.bytes, tailBlocks);
            if (rt.complete > transfersDone)
                transfersDone = rt.complete;
            nReadBytes += s->swapHandle.bytes;
        });
        if (sessionTier)
            sessionTier->forgetOffloaded(
                s->request.id,
                &holder == &sessionTier->demotionStore(),
                server.simulation().now());
        holder.free(s->swapHandle);
        s->swapHandle = OffloadBackend::Handle{};
        s->swapBackend = nullptr;
        s->swapPrecision = spec.kvPrecision;
        if (!usable) {
            if (!resident.empty())
                kv->freeBlocks(resident);
            s->blocks = std::move(*blocks);
            dropKvForRecompute(s, swapped);
            // The abort consumed backend work (the read happened);
            // report progress so the scheduler's transfer window
            // stays honest.
            return true;
        }
    }

    s->blocks = std::move(resident);
    s->blocks.insert(s->blocks.end(), blocks->begin(), blocks->end());

    // Restored blocks came back through the offload/DRAM path; keep
    // the origin tag honest for the prefix-hit breakdown.
    for (aqua::mem::BlockId b : *blocks)
        kv->setBlockOrigin(b, BlockOrigin::Dram);

    // Byte-identity check: every block must carry the signature it
    // had at swap-out, whether it stayed resident or round-tripped
    // through the backend (restored blocks take their snapshot).
    if (cfg.prefixCache && !s->swapSigs.empty()) {
        std::size_t residentCount =
            s->blocks.size() - blocks->size();
        for (std::size_t i = 0; i < s->blocks.size() &&
                                i < s->swapSigs.size(); ++i) {
            if (i < residentCount) {
                if (kv->blockSig(s->blocks[i]) != s->swapSigs[i])
                    ++prefixStats.sigMismatches;
            } else {
                kv->setBlockSig(s->blocks[i], s->swapSigs[i]);
            }
        }
    }
    releaseSwapGroup(s);

    s->state = Sequence::State::Running;
    removeFrom(swapped, s);
    running.push_back(s);
    ++nSwapIns;
    return true;
}

bool
VllmEngine::admitSeq(Sequence *s, Tick &transfersDone)
{
    // A prefetch (parked-session resume or federation stream) is
    // still landing: hold the sequence in waiting rather than gate the
    // whole iteration's compute on the media or the fabric. The
    // stream's completion callback reschedules.
    if (s->prefetchPending)
        return false;
    // A landed prefetch counts as already prefilled (its KV arrives in
    // the blocks allocated below), so only the rest of the context is
    // computed.
    std::uint32_t landed = 0;
    if (s->landedTokens > 0 && s->prefilledTokens == 0) {
        landed = s->landedTokens;
        s->prefilledTokens = landed;
        s->cachedTokens = landed;
        s->landedTokens = 0;
    }
    // Adapter residency comes first: a missing adapter stalls the
    // iteration for its load (vLLM loads adapters synchronously).
    // Recompute-preempted sequences keep their pin across preemption.
    if (s->request.adapter != model::noLora && !s->adapterHeld) {
        if (!lora)
            panic("VllmEngine: request %llu wants an adapter but the "
                  "LoRA cache is disabled",
                  static_cast<unsigned long long>(s->request.id));
        Tick loaded = 0;
        if (!lora->acquire(s->request.adapter, loaded))
            return false;
        s->adapterHeld = true;
        if (loaded > transfersDone)
            transfersDone = loaded;
    }
    // kvTokens() so a recompute-preempted sequence gets room for its
    // whole regenerated context.
    std::size_t need = kv->blocksForTokens(s->kvTokens());

    // Prefix-cache admission: borrow every resident block matching
    // the context (capped one short of the full context so at least
    // one token is always computed) and skip their prefill.
    KvCache::PrefixAcquire acq;
    if (cfg.prefixCache && s->prefilledTokens == 0) {
        std::uint64_t match = s->kvTokens() > 0 ? s->kvTokens() - 1 : 0;
        acq = kv->acquirePrefix(tokenFnFor(s->request), match,
                                server.simulation().now());
        // Local miss (or partial coverage): ask the cluster registry
        // whether a peer GPU homes a longer chain.
        if (clusterEnabled())
            tryRemotePrefix(s, acq, transfersDone);
        if (acq.partialTokens > 0) {
            // The shared tail will be appended to during prefill:
            // copy-on-write it now (the cached original stays valid
            // for future matches).
            auto forked = kv->forkBlock(acq.blocks.back());
            if (forked) {
                acq.blocks.back() = *forked;
                ++prefixStats.cowForks;
            } else {
                // Pool exhausted: drop the partial part of the match.
                kv->freeBlocks({acq.blocks.back()});
                acq.blocks.pop_back();
                acq.tokens -= acq.partialTokens;
                acq.partialTokens = 0;
            }
        }
    }

    // A borrowed lead lives on the home GPU; it needs no local blocks.
    need -= s->remoteLeadBlocks;

    auto blocks = kv->allocateBlocks(need - acq.blocks.size());
    if (!blocks) {
        if (!acq.blocks.empty())
            kv->freeBlocks(acq.blocks);
        releaseRemoteLead(s);
        if (s->adapterHeld) {
            lora->release(s->request.adapter);
            s->adapterHeld = false;
        }
        return false;
    }
    if (acq.tokens > 0) {
        s->prefilledTokens = static_cast<std::uint32_t>(acq.tokens);
        s->cachedTokens = static_cast<std::uint32_t>(acq.tokens);
        prefixStats.cachedTokens += acq.tokens;
        countPrefixHit(s, acq.blocks, acq.tokens);
    }
    s->blocks = std::move(acq.blocks);
    s->blocks.insert(s->blocks.end(), blocks->begin(), blocks->end());
    if (landed > 0 && s->prefetchOrigin == BlockOrigin::RemoteServer) {
        // A fetched chain's KV landed in the leading blocks; tag them
        // so hit accounting (and any later local reuse after
        // publishSeq) knows the content crossed the fabric. The
        // session tier's own parked copy is not a prefix hit.
        std::uint64_t covered = 0;
        for (aqua::mem::BlockId id : s->blocks) {
            if (covered >= landed)
                break;
            kv->setBlockOrigin(id, BlockOrigin::RemoteServer);
            covered += blockTokens;
        }
        prefixStats.cachedTokens += landed;
        countPrefixHit(s, s->blocks, landed);
    }
    s->state = Sequence::State::Running;
    removeFrom(waiting, s);
    running.push_back(s);
    if (s->metrics.admitted == 0) {
        // First admission only: readmissions after recompute
        // preemption keep the original queue-delay measurement.
        s->metrics.admitted = server.simulation().now();
        queueDelays.add(s->metrics.queueDelaySec());
        if (admission)
            admission->recordAdmit();
    }
    return true;
}

void
VllmEngine::finishSeq(Sequence *s, Tick when)
{
    s->state = Sequence::State::Finished;
    // A cold session parks its KV on the storage tier before the
    // blocks go back to the pool: the trace's idle gap is the park
    // predictor (the user is gone long enough that the prefix cache
    // will have evicted this context by the time they return).
    if (sessionTier && s->request.idleGapSec > 0.0) {
        // Parked KV is cold by definition: quantize it to the
        // governor's cold precision on the way down the tiers.
        model::KvPrecision cold = coldPrecision();
        std::uint64_t servingBytes = kv->kvBytes(s->kvTokens());
        std::uint64_t storedBytes = model::rescaleKvBytes(
            servingBytes, spec.kvPrecision, cold);
        if (sessionTier->park(s->request.userId, storedBytes,
                              static_cast<std::uint32_t>(s->kvTokens()),
                              s->request.idleGapSec, when)) {
            ++nParks;
            parkPrecisions[s->request.userId] = cold;
            if (cold != spec.kvPrecision && precisionGov)
                precisionGov->notePayload(servingBytes, storedBytes);
        }
    }
    // Leave the conversation's KV behind as cache: a follow-up turn
    // that re-sends this context will match it block for block.
    publishSeq(s, /*atFinish=*/true);
    releaseRemoteLead(s);
    dropChainsOwnedBy(s);
    kv->freeBlocks(s->blocks);
    s->blocks.clear();
    if (s->adapterHeld) {
        lora->release(s->request.adapter);
        s->adapterHeld = false;
    }
    removeFrom(running, s);
    s->metrics.finish = when;
    s->metrics.tokensGenerated = s->generated;
    finishedMetrics.push_back(s->metrics);
    if (admission)
        admission->recordCompletion(when, s->request.deadline);
    needResched = true;
    if (completionCb) {
        workload::RequestMetrics m = s->metrics;
        server.simulation().queue().schedule(when, [this, m] {
            completionCb(m);
        });
    }
}

void
VllmEngine::shedSeq(Sequence *s, overload::ShedReason reason,
                    Tick when)
{
    s->state = Sequence::State::Finished;
    removeFrom(waiting, s);
    // Predictor miss: shedding a resuming request cancels its
    // in-flight prefetch stream (windows already issued are wasted).
    if (sessionTier && s->prefetchPending &&
        s->prefetchOrigin == BlockOrigin::Local)
        sessionTier->cancelResume(s->request.userId);
    if (s->adapterHeld) {
        lora->release(s->request.adapter);
        s->adapterHeld = false;
    }
    s->metrics.finish = when;
    s->metrics.shed = true;
    // Recompute-preempted victims may already have emitted tokens.
    s->metrics.tokensGenerated = s->generated;
    finishedMetrics.push_back(s->metrics);
    ++nSheds;
    ++shedsSinceInform;
    if (admission)
        admission->recordShed(reason);
    traceSeq(when, "shed", s, [&](json::Value &f) {
        f["reason"] = std::string(overload::shedReasonName(reason));
        f["deadline_ns"] = static_cast<std::int64_t>(s->request.deadline);
        f["waited_sec"] = ticksToSec(when - s->request.arrival);
        f["best_effort"] = s->request.bestEffort;
    });
    needResched = true;
    if (completionCb) {
        workload::RequestMetrics m = s->metrics;
        server.simulation().queue().schedule(when, [this, m] {
            completionCb(m);
        });
    }
}

void
VllmEngine::updateBrownout(Tick now)
{
    if (!brownout && !precisionGov)
        return;
    double freeFrac =
        kv->totalBlocks() > 0
            ? static_cast<double>(kv->availableBlocks()) /
                  static_cast<double>(kv->totalBlocks())
            : 1.0;
    if (brownout) {
        overload::BrownoutSignals sig;
        sig.now = now;
        // Under CFS, overload does not pool in `waiting` (fresh
        // arrivals carry the lowest vruntime and admit immediately);
        // it shows up as a growing swapped set time-sharing the
        // batch. Both are queued work awaiting GPU service.
        sig.queueDepth = waiting.size() + swapped.size();
        sig.queueDelaySec = oldestWaitingSec(now);
        sig.freePoolFraction = freeFrac;
        // Offload-path pressure: this GPU is reclaiming its own lease
        // (producer role), or the backend recently executed a
        // reclaim-driven evacuation off the donor (consumer role).
        bool reclaiming = aquaLib && aquaLib->reclaimInProgress();
        Tick lastEvac = backend.lastEvacuationAt();
        bool recentEvac =
            lastEvac != 0 &&
            now < lastEvac + overload::evacPressureWindow;
        sig.reclaimPressure = reclaiming || recentEvac;
        sig.linkHealth = server.topology().peerLink().degradation();
        brownout->update(sig);
    }
    // The precision governor reads the same pressure view: quantize
    // cold KV harder as the pool empties or the ladder climbs.
    if (precisionGov) {
        precisionGov->update(freeFrac,
                             brownout
                                 ? brownout->level()
                                 : overload::BrownoutLevel::Normal,
                             now);
    }
}

void
VllmEngine::settleTier(Tick now)
{
    // Under the brownout ladder's ForceDramOffload rung the tier
    // drains DRAM aggressively: the rung reroutes new swaps to DRAM,
    // and the settle pass gives that DRAM somewhere real to spill.
    bool pressure = brownout && brownout->forceDramOffload();
    for (std::uint64_t key : sessionTier->selectDemotions(now, pressure)) {
        Sequence *victim = nullptr;
        for (Sequence *s : swapped) {
            if (s->request.id == key) {
                victim = s;
                break;
            }
        }
        if (!victim || !victim->swapHandle.valid()) {
            // The sequence moved on since registration; drop the
            // stale policy entry.
            sessionTier->forgetOffloaded(key, false, now);
            continue;
        }
        OffloadBackend &from =
            victim->swapBackend ? *victim->swapBackend : backend;
        std::uint64_t nChunks = std::max<std::uint64_t>(
            1, victim->swapHandle.bytes / kv->blockBytes());
        auto moved = sessionTier->demote(key, from, victim->swapHandle,
                                         nChunks, now);
        if (!moved)
            continue; // store full: the payload stays in DRAM
        victim->swapHandle = *moved;
        victim->swapBackend = &sessionTier->demotionStore();
        ++nTierDemotions;
    }
}

std::uint32_t
VllmEngine::effectiveSliceTokens() const
{
    if (!brownout)
        return cfg.cfsSliceTokens;
    double scaled = static_cast<double>(cfg.cfsSliceTokens) *
                    brownout->sliceFactor();
    auto t = static_cast<std::uint32_t>(scaled);
    return t > 0 ? t : 1;
}

OffloadBackend &
VllmEngine::swapTarget()
{
    if (fallback && brownout && brownout->forceDramOffload())
        return *fallback;
    return backend;
}

model::KvPrecision
VllmEngine::coldPrecision() const
{
    return precisionGov ? precisionGov->coldPrecision()
                        : spec.kvPrecision;
}

double
VllmEngine::oldestWaitingSec(Tick now) const
{
    Tick oldest = now;
    for (const Sequence *s : waiting)
        oldest = std::min(oldest, s->request.arrival);
    return ticksToSec(now - oldest);
}

void
VllmEngine::step()
{
    Tick now = server.simulation().now();
    Tick transfersDone = now;

    // Northbound housekeeping.
    if (aquaLib && ++itersSinceInform >= cfg.informEveryIters) {
        itersSinceInform = 0;
        doInform();
    }
    if (++itersSinceRespond >= respondEveryIters) {
        itersSinceRespond = 0;
        Tick blocked = backend.respond();
        if (blocked > transfersDone)
            transfersDone = blocked;
    }
    if (sessionTier && ++itersSinceSettle >= tierSettleEveryIters) {
        itersSinceSettle = 0;
        settleTier(now);
    }

    // Sample overload signals before scheduling so this iteration's
    // decisions honour the current brownout level.
    updateBrownout(now);

    // Scheduling decision. Fair policies re-evaluate at slice
    // boundaries (or when the run set changed); FCFS every iteration.
    std::uint32_t slice = effectiveSliceTokens();
    SchedulerInput in;
    in.waiting = waiting;
    in.running = running;
    in.swapped = swapped;
    in.kv = kv.get();
    in.maxBatch = cfg.maxBatch;
    in.sliceTokens = slice;
    in.slackTokens = cfg.slackTokens;
    in.prefixCache = cfg.prefixCache;
    in.admission = admission.get();
    in.brownoutLevel = brownout ? brownout->level()
                                : overload::BrownoutLevel::Normal;
    in.now = now;

    SchedulerDecision d;
    bool evaluate = true;
    if (policy->isFair()) {
        evaluate = needResched || running.empty() ||
                   tokensIntoSlice >= slice;
    }
    if (evaluate) {
        d = policy->schedule(in);
        tokensIntoSlice = 0;
        needResched = false;
    }

    // Hopeless arrivals first: shedding frees nothing on the GPU but
    // shortens the queue every admission prediction includes.
    for (auto &[s, reason] : d.shed)
        shedSeq(s, reason, now);

    bool didTransfers = false;
    for (Sequence *s : d.swapOut) {
        swapOutSeq(s, transfersDone);
        didTransfers = true;
    }
    for (Sequence *s : d.swapIn)
        didTransfers |= swapInSeq(s, transfersDone);
    for (Sequence *s : d.admit)
        didTransfers |= admitSeq(s, transfersDone);

    // Pick this iteration's work: prefill first, then decode.
    std::vector<Sequence *> prefillBatch;
    for (Sequence *s : running) {
        if (!s->prefilled)
            prefillBatch.push_back(s);
    }

    Tick completion = transfersDone;
    std::uint64_t produced = 0;
    if (!prefillBatch.empty()) {
        // Recompute-preempted sequences re-prefill their whole
        // context (prompt + generated); for fresh ones kvTokens()
        // is just the prompt.
        std::uint64_t total = 0;
        for (Sequence *s : prefillBatch)
            total += s->kvTokens() - s->prefilledTokens;
        Tick t = perf.prefillTime(total);
        completion = server.gpu(myGpu).submitComputeAfter(
            transfersDone, t);
        for (Sequence *s : prefillBatch) {
            s->prefilled = true;
            // Publish the freshly computed context so concurrent
            // arrivals with the same prefix share it immediately.
            publishSeq(s);
            if (s->generated == 0) {
                // Prefill emits the first output token.
                s->generated = 1;
                s->metrics.firstToken = completion;
                ++produced;
                if (s->done())
                    finishSeq(s, completion);
            }
        }
    } else if (!running.empty()) {
        // Decode one token for every resident, prefilled sequence.
        std::vector<Sequence *> batch = running;
        // Grow each sequence's KV by one token, preempting the most-
        // served sequences if the pool runs dry.
        for (std::size_t i = 0; i < batch.size(); ++i) {
            Sequence *s = batch[i];
            if (s->state != Sequence::State::Running)
                continue;
            if (s->remoteLeadBlocks > 0 &&
                server.topology().gpuFailed(s->remoteHome)) {
                // The home GPU died under the borrowed lead: release
                // the (already broken) lease and re-prefill locally.
                ++prefixStats.remoteBrokenChains;
                swapOutSeq(s, transfersDone);
                didTransfers = true;
                continue;
            }
            std::size_t need =
                kv->blocksForTokens(s->kvTokens() + 1) -
                s->remoteLeadBlocks;
            while (s->blocks.size() < need) {
                auto block = kv->allocateBlocks(1);
                if (block) {
                    s->blocks.push_back((*block)[0]);
                    continue;
                }
                // OOM: evict the running sequence with the most
                // generated tokens (it is closest to done and cheapest
                // to stall under CFS; under FCFS it is the newest).
                Sequence *victim = nullptr;
                for (Sequence *r : running) {
                    if (r == s)
                        continue;
                    if (!victim || r->generated > victim->generated)
                        victim = r;
                }
                if (!victim)
                    victim = s;
                swapOutSeq(victim, transfersDone);
                didTransfers = true;
                needResched = true;
                if (victim == s)
                    break;
            }
        }
        batch.clear();
        std::uint64_t residentKv = 0;
        std::uint64_t remoteKv = 0;
        for (Sequence *s : running) {
            batch.push_back(s);
            residentKv += kv->kvBytes(s->kvTokens());
            remoteKv += kv->kvBytes(s->remoteLeadTokens);
        }
        if (!batch.empty()) {
            Tick t = perf.decodeStepTime(batch.size(), residentKv);
            // Borrowed leads are attended out of their home GPUs'
            // HBM: charge the peer-link read on top of the compute.
            // Sparse attention touches only a fraction of the lead.
            if (remoteKv > 0) {
                std::uint64_t readKv = remoteKv;
                if (cfg.sparseReadFraction < 1.0) {
                    readKv = static_cast<std::uint64_t>(
                        static_cast<double>(remoteKv) *
                        cfg.sparseReadFraction);
                }
                t += server.topology().peerTransferDuration(readKv);
                prefixStats.remoteDecodeReadBytes += readKv;
            }
            completion = server.gpu(myGpu).submitComputeAfter(
                transfersDone, t);
            if (iterationCb) {
                std::vector<std::uint64_t> ids;
                ids.reserve(batch.size());
                for (Sequence *s : batch)
                    ids.push_back(s->request.id);
                iterationCb(completion, ids);
            }
            // finishSeq mutates `running`; iterate over the copy.
            for (Sequence *s : batch) {
                ++s->generated;
                ++produced;
                if (s->metrics.firstToken == 0)
                    s->metrics.firstToken = completion;
                if (s->done())
                    finishSeq(s, completion);
            }
            ++tokensIntoSlice;
        }
    }

    if (produced > 0) {
        tokensTotal += produced;
        tokens.record(completion, static_cast<double>(produced));
    }
    recordFreeMemory();
    ++iterCount;

    bool have_work = !running.empty() || !waiting.empty() ||
                     !swapped.empty();
    bool progressed = produced > 0 || didTransfers || !d.shed.empty();
    // Engines with AQUA duties keep a housekeeping heartbeat even when
    // idle: producers must keep informing (to donate/settle reclaims)
    // and consumers must answer /respond while they hold remote
    // tensors. NOTE: such engines never drain the event queue — drive
    // simulations with runUntil(), not run().
    bool aqua_duties =
        aquaLib != nullptr ||
        (backend.name() == "aqua" && (lora || !swapped.empty()));
    if (have_work && progressed) {
        scheduleStep(std::max(completion, transfersDone));
    } else if (have_work || aqua_duties) {
        // Stalled (e.g. reclaim in progress) or idle with
        // housekeeping duties: poll at the idle cadence.
        scheduleStep(now + idleTickPeriod);
    }
    // Otherwise: fully idle; the next submit() wakes the engine.
}

} // namespace aqua::serve
