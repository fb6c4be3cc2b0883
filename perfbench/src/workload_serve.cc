/**
 * @file
 * Serving workloads on one 2-GPU A100 testbed.
 *
 * serve_overload: a Codellama-34B consumer under CFS offloads KV to a
 * Kandinsky donor over NVLink through AQUA, with prefix caching,
 * deadline-aware admission and brownout on, fed a bursty open-loop
 * trace at x4 nominal load (the composition of exp::runOverload).
 *
 * tier_sessions: multi-turn chat sessions that go cold between turns
 * park their KV on the SSD tier and stream it back through the
 * prefetch pipeline; prefix caching off (the composition of
 * exp::runTiering).
 *
 * Both build the engine from public APIs so that, in a traced run,
 * the scheduler, offload backends and session tier can be handed in
 * as timing decorators.
 */

#include <algorithm>
#include <unordered_map>
#include <memory>
#include <string>
#include <vector>

#include "aqua/informer.hh"
#include "decorators.hh"
#include "exp/testbed.hh"
#include "model/model_spec.hh"
#include "report.hh"
#include "serve/batch_engine.hh"
#include "serve/vllm_engine.hh"
#include "tier/park_agent.hh"
#include "workload.hh"
#include "workload/generator.hh"

namespace perfbench {

using namespace aqua;
using sim::Tick;

namespace {

/** Simulated-time cap; every instance must drain well before it. */
constexpr double kMaxSimSeconds = 4000.0;

/**
 * serve_overload shape (exp::OverloadRunConfig at x4 load). Arrivals
 * cover a fixed window of three 15 s phases (quiet, burst, quiet;
 * about 150 requests) rather than a fixed count, so every instance
 * sees the same burst structure and host time varies less by seed.
 */
constexpr double kArrivalWindowSec = 45.0;
constexpr double kLoadMultiplier = 4.0;
constexpr double kQuietRate = 0.5;
constexpr double kBurstRate = 1.5;
constexpr double kPhaseSec = 15.0;
constexpr double kSloMultiple = 3.0;

/** tier_sessions shape (exp::TieringRunConfig, scaled up). */
constexpr std::uint32_t kUsers = 128;
constexpr std::uint32_t kTurns = 6;
constexpr std::size_t kSessionRequests = std::size_t(kUsers) * kTurns;

/**
 * tier_sessions has no stamped deadlines; its latency limit is the
 * one serve_overload stamps, applied after the fact: completion
 * within kSloMultiple x (0.5 s + 50 ms per output token).
 */
bool
withinChatLimit(const workload::RequestMetrics &m,
                std::uint32_t maxNewTokens)
{
    workload::SloSpec slo;
    double limit = kSloMultiple *
                   (slo.baseTtftSec + maxNewTokens * slo.basePerTokenSec);
    return m.rctSec() <= limit;
}

/** State shared by both serving workloads. */
class ServeInstance : public Instance
{
  protected:
    ServeInstance(std::uint64_t seed, Spans *spans)
        : spans(spans), tb(2, hw::TopologyKind::DirectP2P, seed)
    {
    }

    /** The real object, or a decorator over it when tracing. */
    serve::OffloadBackend &
    timed(serve::OffloadBackend &real)
    {
        if (!spans)
            return real;
        backends.push_back(std::make_unique<TimedBackend>(real, *spans));
        return *backends.back();
    }

    std::unique_ptr<serve::SchedulerPolicy>
    timed(std::unique_ptr<serve::SchedulerPolicy> real)
    {
        if (!spans)
            return real;
        return std::make_unique<TimedScheduler>(std::move(real), *spans);
    }

    void
    submitAt(const workload::Request &r)
    {
        submitted.emplace(r.id, r);
        tb.sim().queue().schedule(r.arrival, [this, r] {
            Scope s(spans, "serve.engine.submit", r.id);
            consumer->submit(r);
        });
    }

    /** Advance in 5 s slices until every submitted request drained. */
    template <typename Done>
    void
    runUntilDone(Done done)
    {
        Tick cap = sim::secToTicks(kMaxSimSeconds);
        Tick slice = sim::secToTicks(5.0);
        while (tb.sim().now() < cap && !done()) {
            Scope s(spans, "serve.engine");
            tb.sim().runUntil(std::min(cap, tb.sim().now() + slice));
        }
    }

    /** Outputs common to both workloads; @p expected = requests. */
    Outputs
    serveOutputs(std::uint64_t expected, const LimitFn &limit)
    {
        Outputs out;
        std::vector<workload::RequestMetrics> ms = consumer->finished();
        std::sort(ms.begin(), ms.end(),
                  [](const auto &a, const auto &b) { return a.id < b.id; });
        RequestCounts c = countRequests(ms, expected, limit);
        out.attempted = c.attempted;
        out.failed = c.shed + c.unfinished;
        out.broken = c.unfinished;
        out.good = c.good;
        out.simS = sim::ticksToSec(tb.sim().now());
        out.tokens = consumer->totalTokens();

        Digest d;
        for (const auto &m : ms) {
            d.mix(m.id);
            d.mix(m.arrival);
            d.mix(m.firstToken);
            d.mix(m.finish);
            d.mix(m.tokensGenerated);
            d.mix(m.shed);
            if (!m.shed && m.started())
                out.ttft.push_back(m.ttftSec());
            if (!m.shed && m.finished())
                out.rct.push_back(m.rctSec());
        }
        d.mix(out.tokens);
        d.mix(tb.sim().now());
        out.digest = d.value();

        if (c.unfinished)
            out.errors.push_back(std::to_string(c.unfinished) +
                                 " unfinished requests");
        const serve::PrefixCacheEngineStats &ps =
            consumer->prefixEngineStats();
        if (ps.sigMismatches)
            out.errors.push_back(std::to_string(ps.sigMismatches) +
                                 " KV signature mismatches");
        if (consumer->integrityStats().detected)
            out.errors.push_back("KV integrity violations on read");

        std::uint64_t promptTokens = 0;
        for (const auto &[id, r] : submitted)
            promptTokens += r.promptTokens;
        const serve::PrefixIndexStats &is =
            consumer->kvCache().prefixStats();
        auto &k = out.counters;
        k["serve.prefix.lookups"] = double(is.hits + is.misses);
        k["serve.prefix.hit_tokens"] = double(ps.cachedTokens);
        k["serve.prefix.prompt_tokens"] = double(promptTokens);
        k["serve.prefix.evictions"] = double(is.evictions);
        k["serve.offload.write_bytes"] = double(consumer->offloadWriteBytes());
        k["serve.offload.read_bytes"] = double(consumer->offloadReadBytes());
        k["serve.swap_outs"] = double(consumer->swapOutCount());
        k["serve.swap_ins"] = double(consumer->swapInCount());
        k["sim.events"] = double(tb.sim().queue().fired());
        return out;
    }

    Spans *spans;
    exp::Testbed tb;
    /** Decorators must outlive the engines that call them. */
    std::vector<std::unique_ptr<TimedBackend>> backends;
    std::unique_ptr<serve::VllmEngine> consumer;
    /** Consumer requests by id, including follow-ups as they arrive. */
    std::unordered_map<std::uint64_t, workload::Request> submitted;
};

class ServeOverload : public ServeInstance
{
  public:
    ServeOverload(std::uint64_t seed, Spans *spans)
        : ServeInstance(seed, spans)
    {
        constexpr hw::GpuId consumerGpu = 0;
        constexpr hw::GpuId producerGpu = 1;
        model::ModelSpec consumerSpec =
            model::presetByName("Codellama-34B");
        model::ModelSpec producerSpec = model::presetByName("Kandinsky");

        core::AquaLib &producerLib = tb.makeAquaLib(
            producerGpu, std::make_unique<core::BatchInformer>());
        core::AquaLib &consumerLib = tb.makeAquaLib(consumerGpu);
        tb.assign(consumerGpu, producerGpu);
        serve::OffloadBackend &backend =
            timed(tb.makeAquaBackend(consumerLib));

        serve::VllmEngineConfig cfg;
        cfg.prefixCache = true;
        cfg.maxBatch = 16;
        cfg.kvPoolBytesOverride = 4ull * 1000 * 1000 * 1000;
        overload::AdmissionConfig ac;
        ac.safetyFactor = 1.2;
        cfg.admission = ac;
        cfg.brownout = overload::BrownoutConfig{};
        consumer = std::make_unique<serve::VllmEngine>(
            tb.server(), consumerGpu, consumerSpec,
            timed(std::make_unique<serve::CfsPolicy>()), backend, cfg);
        // The brownout circuit breaker diverts swaps to host DRAM.
        consumer->setFallbackBackend(
            &timed(tb.makeDramBackend(consumerGpu)));

        // Donor: a compute-bound image model with Parti-style arrivals
        // for the whole horizon, donating its spare HBM through AQUA.
        donor = std::make_unique<serve::BatchEngine>(tb.server(),
                                                     producerGpu,
                                                     producerSpec);
        donor->attachAquaLib(&producerLib);
        std::vector<workload::Request> donorTrace;
        {
            Scope s(spans, "workload.gen");
            workload::TraceBuilder traces(tb.sim().makeRandom());
            donorTrace = traces.interactive(
                1.0, static_cast<std::size_t>(kMaxSimSeconds));
        }
        exp::driveTrace(tb.sim(), *donor, donorTrace);

        std::vector<workload::Request> trace;
        {
            Scope s(spans, "workload.gen");
            workload::TraceBuilder traces(tb.sim().makeRandom());
            workload::SloSpec slo;
            slo.multiple = kSloMultiple;
            slo.bestEffortFraction = 0.2;
            traces.setSlo(slo);
            // Enough draws to overrun the window, then cut at it.
            trace = traces.bursty(kQuietRate * kLoadMultiplier,
                                  kBurstRate * kLoadMultiplier, kPhaseSec,
                                  400);
            Tick end = sim::secToTicks(kArrivalWindowSec);
            trace.erase(std::find_if(trace.begin(), trace.end(),
                                     [end](const workload::Request &r) {
                                         return r.arrival >= end;
                                     }),
                        trace.end());
        }
        for (const workload::Request &r : trace)
            submitAt(r);
    }

    ~ServeOverload() override { consumer.reset(); }

    void
    run() override
    {
        runUntilDone([this] {
            return consumer->finished().size() == submitted.size();
        });
    }

    Outputs
    outputs() override
    {
        Outputs out = serveOutputs(
            submitted.size(),
            [](const workload::RequestMetrics &m) { return m.metDeadline(); });
        std::uint64_t met = 0, served = 0;
        for (const auto &m : consumer->finished()) {
            if (m.shed || !m.finished())
                continue;
            ++served;
            met += m.metDeadline();
        }
        auto &k = out.counters;
        k["overload.shed"] = double(consumer->shedCount());
        k["overload.brownout_transitions"] =
            consumer->brownoutController()
                ? double(consumer->brownoutController()->stats().transitions)
                : 0.0;
        k["overload.deadline_met"] = double(met);
        k["overload.deadline_served"] = double(served);
        Digest d;
        d.mix(out.digest);
        d.mix(consumer->shedCount());
        d.mix(consumer->swapOutCount());
        d.mix(consumer->fallbackSwapCount());
        out.digest = d.value();
        return out;
    }

  private:
    std::unique_ptr<serve::BatchEngine> donor;
};

class TierSessions : public ServeInstance
{
  public:
    TierSessions(std::uint64_t seed, Spans *spans)
        : ServeInstance(seed, spans)
    {
        constexpr hw::GpuId consumerGpu = 0;
        serve::OffloadBackend &backend =
            timed(tb.makeDramBackend(consumerGpu));

        serve::VllmEngineConfig cfg;
        cfg.maxBatch = 16;
        cfg.kvPoolBytesOverride = 6ull * 1000 * 1000 * 1000;
        cfg.prefixCache = false;
        consumer = std::make_unique<serve::VllmEngine>(
            tb.server(), consumerGpu, model::presetByName("Codellama-34B"),
            timed(std::make_unique<serve::CfsPolicy>()), backend, cfg);

        tier::ParkAgentConfig pc;
        pc.tier.parkAfterSec = 30.0;
        pc.tier.resumeSafetyFactor = 1.1;
        agent = std::make_unique<tier::ParkAgent>(tb.server(), consumerGpu,
                                                  pc);
        serve::SessionTier *tier = agent.get();
        if (spans) {
            timedTier = std::make_unique<TimedTier>(*agent, *spans);
            tier = timedTier.get();
        }
        consumer->attachSessionTier(tier);

        traces = std::make_unique<workload::TraceBuilder>(
            tb.sim().makeRandom());
        workload::IdleSpec idle;
        idle.coldFraction = 1.0;
        idle.meanIdleSec = 60.0;
        idle.minIdleSec = 40.0;
        traces->setIdle(idle);
        std::vector<workload::Request> first;
        {
            Scope s(spans, "workload.gen");
            first = traces->chatbotFirstTurn(kUsers);
        }
        for (const workload::Request &r : first)
            submitAt(r);

        // Each finished turn schedules the user's next one, after the
        // idle gap for a session that goes cold.
        consumer->onComplete([this](const workload::RequestMetrics &m) {
            workload::Request prev = submitted.at(m.id);
            if (prev.turn + 1 >= kTurns)
                return;
            Tick comeBack =
                tb.sim().now() + sim::secToTicks(prev.idleGapSec);
            workload::Request next = traces->chatbotFollowUp(
                prev.userId, prev.turn + 1, comeBack,
                prev.promptTokens + m.tokensGenerated);
            if (prev.idleGapSec > 0.0)
                next.coldResume = true;
            submitAt(next);
        });
    }

    ~TierSessions() override { consumer.reset(); }

    void
    run() override
    {
        runUntilDone([this] {
            return consumer->finished().size() == kSessionRequests;
        });
    }

    Outputs
    outputs() override
    {
        Outputs out = serveOutputs(
            kSessionRequests, [this](const workload::RequestMetrics &m) {
                return withinChatLimit(m, submitted.at(m.id).maxNewTokens);
            });
        const tier::PrefetchStats &ps = agent->pipeline().stats();
        auto &k = out.counters;
        k["tier.parks"] = double(consumer->parkCount());
        k["tier.stream_resumes"] = double(consumer->streamResumeCount());
        k["tier.recompute_resumes"] =
            double(consumer->recomputeResumeCount());
        k["tier.streams_started"] = double(ps.streamsStarted);
        k["tier.streams_completed"] = double(ps.streamsCompleted);
        k["tier.bytes_wasted"] = double(ps.bytesWasted);
        k["hw.ssd.read_bytes"] = double(tb.server().ssd().bytesRead());
        k["hw.ssd.write_bytes"] = double(tb.server().ssd().bytesWritten());
        Digest d;
        d.mix(out.digest);
        d.mix(consumer->parkCount());
        d.mix(consumer->streamResumeCount());
        d.mix(consumer->tierDemotionCount());
        d.mix(tb.server().ssd().bytesRead());
        d.mix(tb.server().ssd().bytesWritten());
        out.digest = d.value();
        return out;
    }

  private:
    std::unique_ptr<workload::TraceBuilder> traces;
    std::unique_ptr<tier::ParkAgent> agent;
    std::unique_ptr<TimedTier> timedTier;
};

} // anonymous namespace

WorkloadDef
serveOverloadWorkload()
{
    return {"serve_overload", 8, [](std::uint64_t seed, Spans *spans) {
                return std::make_unique<ServeOverload>(seed, spans);
            }};
}

WorkloadDef
tierSessionsWorkload()
{
    return {"tier_sessions", 8, [](std::uint64_t seed, Spans *spans) {
                return std::make_unique<TierSessions>(seed, spans);
            }};
}

} // namespace perfbench
