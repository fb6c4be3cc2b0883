/**
 * @file
 * Tests for the continuous-batching engine: request lifecycle,
 * metrics, memory hygiene, FCFS-vs-CFS behaviour, preemption, LoRA
 * integration, the producer donate/reclaim loop and the read-path
 * integrity checks.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "exp/testbed.hh"
#include "serve/vllm_engine.hh"
#include "tier/park_agent.hh"
#include "trace/trace.hh"
#include "workload/generator.hh"

using namespace aqua;
using namespace aqua::sim;
using namespace aqua::serve;

namespace {

workload::Request
makeRequest(std::uint64_t id, Tick arrival, std::uint32_t prompt,
            std::uint32_t out, model::LoraId adapter = model::noLora)
{
    workload::Request r;
    r.id = id;
    r.arrival = arrival;
    r.promptTokens = prompt;
    r.maxNewTokens = out;
    r.adapter = adapter;
    return r;
}

} // anonymous namespace

TEST(VllmEngine, SingleRequestLifecycle)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend);
    engine.submit(makeRequest(0, 0, 100, 10));
    tb.sim().runUntil(secToTicks(30.0));
    ASSERT_EQ(engine.finished().size(), 1u);
    const workload::RequestMetrics &m = engine.finished()[0];
    EXPECT_TRUE(m.started());
    EXPECT_TRUE(m.finished());
    EXPECT_EQ(m.tokensGenerated, 10u);
    EXPECT_GT(m.firstToken, m.arrival);
    EXPECT_GT(m.finish, m.firstToken);
    EXPECT_EQ(engine.totalTokens(), 10u);
}

TEST(VllmEngine, TtftIncludesQueueingAndPrefill)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend);
    engine.submit(makeRequest(0, secToTicks(1.0), 1000, 5));
    tb.sim().runUntil(secToTicks(30.0));
    ASSERT_EQ(engine.finished().size(), 1u);
    // Prefill of 1000 tokens on CodeLlama-34B is ~0.36 s.
    EXPECT_NEAR(engine.finished()[0].ttftSec(), 0.36, 0.15);
}

TEST(VllmEngine, MemoryFullyReturnedAfterCompletion)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend);
    std::size_t freeBlocks = engine.kvCache().freeBlocks();
    for (int i = 0; i < 10; ++i)
        engine.submit(makeRequest(i, 0, 200, 20));
    tb.sim().runUntil(secToTicks(60.0));
    EXPECT_EQ(engine.finished().size(), 10u);
    EXPECT_EQ(engine.kvCache().freeBlocks(), freeBlocks);
    EXPECT_EQ(engine.waitingCount(), 0u);
    EXPECT_EQ(engine.runningCount(), 0u);
    EXPECT_EQ(engine.swappedCount(), 0u);
}

TEST(VllmEngine, FcfsQueuesBeyondMemory)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngineConfig cfg;
    cfg.kvPoolBytesOverride = std::uint64_t(1) << 30;
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend, cfg);
    // ~341 blocks; each request wants (2000+32)/16 = 127 blocks.
    for (int i = 0; i < 6; ++i)
        engine.submit(makeRequest(i, 0, 2000, 400));
    tb.sim().runUntil(secToTicks(2.0));
    EXPECT_GT(engine.waitingCount(), 0u); // some queued, unstarted
    tb.sim().runUntil(secToTicks(600.0));
    EXPECT_EQ(engine.finished().size(), 6u);
    // Later arrivals started only after earlier ones finished.
    auto metrics = engine.finished();
    std::sort(metrics.begin(), metrics.end(),
              [](const auto &a, const auto &b) { return a.id < b.id; });
    EXPECT_GT(metrics[5].ttftSec(), metrics[0].ttftSec() * 3);
}

TEST(VllmEngine, CfsSharesTimeAcrossPrompts)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &dramA = tb.makeDramBackend(0);
    auto &dramB = tb.makeDramBackend(1);
    VllmEngineConfig cfg;
    cfg.kvPoolBytesOverride = std::uint64_t(1) << 30;

    VllmEngine fcfs(tb.server(), 0, model::codellama34b(),
                    std::make_unique<FcfsPolicy>(), dramA, cfg);
    VllmEngine cfs(tb.server(), 1, model::codellama34b(),
                   std::make_unique<CfsPolicy>(), dramB, cfg);
    for (int i = 0; i < 6; ++i) {
        fcfs.submit(makeRequest(i, 0, 2000, 400));
        cfs.submit(makeRequest(i, 0, 2000, 400));
    }
    tb.sim().runUntil(secToTicks(1000.0));
    ASSERT_EQ(fcfs.finished().size(), 6u);
    ASSERT_EQ(cfs.finished().size(), 6u);
    // The fair scheduler pages contexts; vLLM's baseline never does.
    EXPECT_GT(cfs.swapOutCount(), 0u);
    // Fairness: the worst TTFT under CFS is far better than under
    // FCFS (the starved queued request).
    auto worstTtft = [](const VllmEngine &e) {
        double worst = 0.0;
        for (const auto &m : e.finished())
            worst = std::max(worst, m.ttftSec());
        return worst;
    };
    EXPECT_LT(worstTtft(cfs), worstTtft(fcfs) / 3.0);
}

TEST(VllmEngine, PreemptsOnKvExhaustionAndStillFinishes)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngineConfig cfg;
    cfg.kvPoolBytesOverride = std::uint64_t(1) << 30;
    cfg.slackTokens = 0; // admit greedily so growth hits the wall
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend, cfg);
    // Admissions fit (6 x 50 blocks) but growth to 800+1200 tokens
    // overflows the 341-block pool, forcing preemption.
    for (int i = 0; i < 6; ++i)
        engine.submit(makeRequest(i, 0, 800, 1200));
    tb.sim().runUntil(secToTicks(2000.0));
    EXPECT_EQ(engine.finished().size(), 6u);
    EXPECT_GT(engine.swapOutCount(), 0u);
    EXPECT_EQ(engine.swapInCount(), engine.swapOutCount());
}

TEST(VllmEngine, CompletionCallbackFiresAtFinishTime)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend);
    Tick callbackAt = 0;
    workload::RequestMetrics seen;
    engine.onComplete([&](const workload::RequestMetrics &m) {
        callbackAt = tb.sim().now();
        seen = m;
    });
    engine.submit(makeRequest(7, 0, 100, 5));
    tb.sim().runUntil(secToTicks(30.0));
    ASSERT_TRUE(seen.finished());
    EXPECT_EQ(seen.id, 7u);
    EXPECT_EQ(callbackAt, seen.finish);
}

TEST(VllmEngine, LoraMissDelaysFirstToken)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngineConfig cfg;
    LoraCacheConfig lora;
    lora.capacityBytes = std::uint64_t(2) << 30;
    cfg.lora = lora;
    VllmEngine engine(tb.server(), 0, model::mistral7b(),
                      std::make_unique<FcfsPolicy>(), backend, cfg,
                      model::synthesizeAdapters("a", 320 * mib, 4));
    engine.submit(makeRequest(0, 0, 100, 5, 0));
    engine.submit(makeRequest(1, secToTicks(20.0), 100, 5, 0));
    tb.sim().runUntil(secToTicks(60.0));
    ASSERT_EQ(engine.finished().size(), 2u);
    auto metrics = engine.finished();
    std::sort(metrics.begin(), metrics.end(),
              [](const auto &a, const auto &b) { return a.id < b.id; });
    // First request missed (slow unstaged load); second hit.
    EXPECT_GT(metrics[0].ttftSec(), metrics[1].ttftSec() + 0.2);
    EXPECT_EQ(engine.loraCache()->misses(), 1u);
    EXPECT_EQ(engine.loraCache()->hits(), 1u);
}

TEST(VllmEngine, ProducerDonatesWhenIdleAndReclaimsUnderLoad)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    core::AquaLib &lib = tb.makeAquaLib(
        1, std::make_unique<core::LlmInformer>());
    auto &backend = tb.makeDramBackend(1);
    VllmEngineConfig cfg;
    cfg.informEveryIters = 2;
    VllmEngine producer(tb.server(), 1, model::llama2_13b(),
                        std::make_unique<FcfsPolicy>(), backend,
                        cfg);
    producer.attachAquaLib(&lib);

    // Idle long enough for the control loop to donate.
    tb.sim().runUntil(secToTicks(3.0));
    EXPECT_TRUE(lib.hasDonated());
    std::uint64_t leased = lib.leasedBytes();
    EXPECT_GT(leased, std::uint64_t(30) << 30);

    // A burst triggers reclaim; with no consumer tensors the lease
    // returns promptly and the pool grows back.
    workload::TraceBuilder traces(tb.sim().makeRandom());
    for (const workload::Request &r :
         traces.interactive(10.0, 120, tb.sim().now()))
        producer.submit(r);
    tb.sim().runUntil(secToTicks(8.0)); // mid-burst
    EXPECT_FALSE(lib.hasDonated());
    EXPECT_FALSE(lib.reclaimInProgress());

    // Once the burst drains the control loop donates again — the
    // elasticity Fig. 10 demonstrates.
    tb.sim().runUntil(secToTicks(120.0));
    EXPECT_GT(producer.finished().size(), 100u);
    EXPECT_TRUE(lib.hasDonated());
}

TEST(VllmEngine, NonTextModelPanics)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    EXPECT_DEATH(VllmEngine(tb.server(), 0, model::stableDiffusion(),
                            std::make_unique<FcfsPolicy>(), backend),
                 "not a text model");
}

TEST(VllmEngine, ModelMustFitOnGpu)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    // Two 34B models cannot share one 80 GB GPU.
    VllmEngine first(tb.server(), 0, model::codellama34b(),
                     std::make_unique<FcfsPolicy>(), backend);
    EXPECT_DEATH(VllmEngine(tb.server(), 0, model::codellama34b(),
                            std::make_unique<FcfsPolicy>(), backend),
                 "does not fit");
}

TEST(VllmEngine, RecomputePreemptionFinishesWithoutBackendTraffic)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngineConfig cfg;
    cfg.kvPoolBytesOverride = std::uint64_t(1) << 30;
    cfg.preemption = PreemptionMode::Recompute;
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<CfsPolicy>(), backend, cfg);
    for (int i = 0; i < 8; ++i)
        engine.submit(makeRequest(i, 0, 800, 300));
    tb.sim().runUntil(secToTicks(4000.0));
    ASSERT_EQ(engine.finished().size(), 8u);
    for (const auto &m : engine.finished())
        EXPECT_EQ(m.tokensGenerated, 300u);
    // Preemptions happened, but none touched the offload backend.
    EXPECT_GT(engine.recomputeCount(), 0u);
    EXPECT_EQ(engine.swapOutCount(), 0u);
    EXPECT_EQ(engine.swapInCount(), 0u);
    EXPECT_EQ(tb.server().topology().hostBytesMoved(), 0u);
}

TEST(VllmEngine, RecomputeCostsMoreComputeThanSwap)
{
    auto computeBusy = [&](PreemptionMode mode) {
        exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
        auto &backend = tb.makeDramBackend(0);
        VllmEngineConfig cfg;
        cfg.kvPoolBytesOverride = std::uint64_t(1) << 30;
        cfg.preemption = mode;
        VllmEngine engine(tb.server(), 0, model::codellama34b(),
                          std::make_unique<CfsPolicy>(), backend,
                          cfg);
        for (int i = 0; i < 8; ++i)
            engine.submit(makeRequest(i, 0, 800, 300));
        tb.sim().runUntil(secToTicks(4000.0));
        EXPECT_EQ(engine.finished().size(), 8u);
        return tb.server().gpu(0).computeBusyTime();
    };
    EXPECT_GT(computeBusy(PreemptionMode::Recompute),
              computeBusy(PreemptionMode::Swap) * 2);
}

TEST(VllmEngine, IterationCallbackSeesEveryDecodedToken)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend);
    std::uint64_t decodeTokens = 0;
    Tick lastTick = 0;
    engine.onIteration([&](Tick when,
                           const std::vector<std::uint64_t> &ids) {
        EXPECT_GE(when, lastTick); // monotone iteration completions
        lastTick = when;
        decodeTokens += ids.size();
    });
    engine.submit(makeRequest(0, 0, 100, 20));
    engine.submit(makeRequest(1, 0, 100, 30));
    tb.sim().runUntil(secToTicks(60.0));
    // Prefill emits token 1 of each; decode iterations emit the rest.
    EXPECT_EQ(decodeTokens, (20u - 1) + (30u - 1));
}

TEST(VllmEngine, CfsWithLoraAdaptersCompletes)
{
    // Fair scheduling and adapter pinning interact: preempted
    // sequences keep their pins, so adapters in use never vanish.
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngineConfig cfg;
    LoraCacheConfig lora;
    lora.capacityBytes = std::uint64_t(2) << 30; // 6 adapters
    cfg.lora = lora;
    cfg.kvPoolBytesOverride = std::uint64_t(1) << 30;
    VllmEngine engine(tb.server(), 0, model::mistral7b(),
                      std::make_unique<CfsPolicy>(), backend, cfg,
                      model::synthesizeAdapters("a", 320 * mib, 12));
    for (int i = 0; i < 16; ++i)
        engine.submit(makeRequest(i, 0, 400, 200,
                                  static_cast<model::LoraId>(i % 12)));
    tb.sim().runUntil(secToTicks(2000.0));
    EXPECT_EQ(engine.finished().size(), 16u);
    // All pins released at the end: the whole cache is evictable.
    Tick t = 0;
    for (model::LoraId id = 0; id < 12; ++id) {
        EXPECT_TRUE(engine.loraCache()->acquire(id, t));
        engine.loraCache()->release(id);
    }
}

TEST(VllmEngine, WakesFromIdleOnLateArrival)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend);
    engine.submit(makeRequest(0, 0, 100, 5));
    tb.sim().runUntil(secToTicks(100.0));
    ASSERT_EQ(engine.finished().size(), 1u);
    // Fully idle now (no AQUA duties): a much later arrival must
    // still be served.
    engine.submit(makeRequest(1, secToTicks(500.0), 100, 5));
    tb.sim().runUntil(secToTicks(600.0));
    ASSERT_EQ(engine.finished().size(), 2u);
    EXPECT_NEAR(engine.finished()[1].ttftSec(), 0.1, 0.2);
}

//
// Read-path integrity: every KV payload entering HBM is checked on
// arrival. A payload corrupted on a link is re-read from its intact
// source; KV that rotted at rest on the SSD is dropped and recomputed.
//

namespace {

/** Count @p category events, checking each names @p path and a
 *  request. */
std::size_t
eventsOnPath(const trace::TraceLog &log, const std::string &category,
             const std::string &path)
{
    std::size_t n = 0;
    for (const trace::Event &e : log.ofCategory(category)) {
        const json::Value *p = e.fields.find("path");
        EXPECT_TRUE(p && p->asString() == path) << category;
        EXPECT_NE(e.fields.find("request"), nullptr) << category;
        ++n;
    }
    return n;
}

} // anonymous namespace

TEST(VllmEngineIntegrity, CorruptSwapInIsReReadFromTheBackend)
{
    // Growth past the 1 GiB pool forces DRAM swaps; with every link
    // payload corrupted each swap-in detects and reads the tail again.
    auto run = [](double corrupt, trace::TraceLog &log) {
        exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
        auto &backend = tb.makeDramBackend(0);
        VllmEngineConfig cfg;
        cfg.kvPoolBytesOverride = std::uint64_t(1) << 30;
        VllmEngine engine(tb.server(), 0, model::codellama34b(),
                          std::make_unique<CfsPolicy>(), backend, cfg);
        engine.setTraceLog(&log);
        tb.server().topology().setPayloadCorruption(corrupt);
        for (int i = 0; i < 8; ++i)
            engine.submit(makeRequest(i, 0, 800, 300));
        tb.sim().runUntil(secToTicks(4000.0));
        EXPECT_EQ(engine.finished().size(), 8u);
        for (const auto &m : engine.finished())
            EXPECT_EQ(m.tokensGenerated, 300u);
        EXPECT_GT(engine.swapInCount(), 0u);
        EXPECT_EQ(engine.swapInCount(), engine.swapOutCount());
        return std::make_tuple(engine.integrityStats(),
                               engine.swapInCount(),
                               engine.offloadReadBytes(),
                               engine.offloadWriteBytes());
    };

    trace::TraceLog cleanLog;
    auto [clean, cleanSwapIns, cleanRead, cleanWrite] =
        run(0.0, cleanLog);
    EXPECT_EQ(clean.detected, 0u);
    EXPECT_EQ(cleanRead, cleanWrite);
    EXPECT_EQ(cleanLog.countCategory("corruption_detected"), 0u);

    trace::TraceLog log;
    auto [hit, swapIns, read, write] = run(1.0, log);
    EXPECT_EQ(hit.detected, swapIns);
    EXPECT_EQ(hit.repairedRetransmit, swapIns);
    EXPECT_EQ(hit.recomputeFallbacks, 0u);
    // The re-read moves every restored tail a second time.
    EXPECT_EQ(read, 2 * write);
    EXPECT_EQ(eventsOnPath(log, "corruption_detected", "swap_in"),
              swapIns);
    EXPECT_EQ(eventsOnPath(log, "corruption_repaired", "swap_in"),
              swapIns);
    EXPECT_EQ(log.countCategory("corruption_recompute"), 0u);
}

TEST(VllmEngineIntegrity, RottedSsdTailIsRecomputed)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    // Aggressive aging so swapped KV demotes to the SSD quickly.
    tier::ParkAgentConfig ac;
    ac.tier.parkAfterSec = 0.5;
    ac.tier.pressureParkAfterSec = 0.1;
    tier::ParkAgent agent(tb.server(), 0, ac);
    VllmEngineConfig cfg;
    cfg.kvPoolBytesOverride = std::uint64_t(1) << 30;
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<CfsPolicy>(), backend, cfg);
    engine.attachSessionTier(&agent);
    trace::TraceLog log;
    engine.setTraceLog(&log);
    // Every payload read back from the media has rotted.
    tb.server().topology().setSsdBitrot(1.0);

    for (int i = 0; i < 8; ++i)
        engine.submit(makeRequest(i + 1, 0, 800, 300));
    tb.sim().runUntil(secToTicks(4000.0));

    ASSERT_EQ(engine.finished().size(), 8u);
    for (const auto &m : engine.finished())
        EXPECT_EQ(m.tokensGenerated, 300u);
    EXPECT_GT(engine.tierDemotionCount(), 0u);
    EXPECT_GT(tb.server().ssd().bytesRead(), 0u);
    const IntegrityEngineStats &st = engine.integrityStats();
    EXPECT_GT(st.detected, 0u);
    EXPECT_EQ(st.recomputeFallbacks, st.detected);
    EXPECT_EQ(st.repairedRetransmit, 0u);
    EXPECT_GE(engine.recomputeCount(), st.recomputeFallbacks);
    EXPECT_EQ(tb.server().ssd().bitrotCorruptions(), st.detected);
    EXPECT_EQ(eventsOnPath(log, "corruption_recompute", "swap_in"),
              st.detected);
    EXPECT_EQ(log.countCategory("corruption_detected"), 0u);
    // The dropped payloads retired their tier records too.
    EXPECT_EQ(agent.manager().itemCount(), 0u);
}
