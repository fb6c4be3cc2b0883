/**
 * @file
 * End-to-end tests for the serving engine's SessionTier integration:
 * cold sessions park their KV on the SSD at finish, returning turns
 * resume by streaming it back (or recompute when the drive is slow,
 * dead or the parked copy rotted), and swapped-out KV that goes cold
 * in DRAM demotes onto the media — the tier the ForceDramOffload
 * brownout rung drains into.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

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
            std::uint32_t out)
{
    workload::Request r;
    r.id = id;
    r.arrival = arrival;
    r.promptTokens = prompt;
    r.maxNewTokens = out;
    return r;
}

/** First turn that goes cold afterwards, and its returning follow-up. */
workload::Request
coldFirstTurn(std::uint64_t id, std::uint32_t user)
{
    workload::Request r = makeRequest(id, 0, 400, 20);
    r.userId = user;
    r.turn = 0;
    r.idleGapSec = 60.0;
    return r;
}

workload::Request
returningTurn(std::uint64_t id, std::uint32_t user, Tick arrival)
{
    workload::Request r = makeRequest(id, arrival, 600, 10);
    r.userId = user;
    r.turn = 1;
    r.coldResume = true;
    return r;
}

} // anonymous namespace

TEST(TierEngine, ColdSessionParksAndStreamResumeBeatsReprefill)
{
    // Identical two-turn session with and without the tier attached;
    // only the returning turn's TTFT should differ.
    auto run = [](bool tiering, std::uint64_t &streams) {
        exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
        auto &backend = tb.makeDramBackend(0);
        tier::ParkAgent agent(tb.server(), 0);
        VllmEngine engine(tb.server(), 0, model::codellama34b(),
                          std::make_unique<FcfsPolicy>(), backend);
        if (tiering)
            engine.attachSessionTier(&agent);

        engine.submit(coldFirstTurn(1, 7));
        tb.sim().runUntil(secToTicks(10.0));
        EXPECT_EQ(engine.finished().size(), 1u);
        EXPECT_EQ(engine.parkCount(), tiering ? 1u : 0u);
        EXPECT_EQ(agent.parkedCount(), tiering ? 1u : 0u);

        engine.submit(returningTurn(2, 7, secToTicks(10.0)));
        tb.sim().runUntil(secToTicks(30.0));
        EXPECT_EQ(engine.finished().size(), 2u);
        streams = engine.streamResumeCount();
        return engine.finished()[1].ttftSec();
    };

    std::uint64_t tierStreams = 0, baseStreams = 0;
    double tierTtft = run(true, tierStreams);
    double baseTtft = run(false, baseStreams);
    EXPECT_EQ(tierStreams, 1u);
    EXPECT_EQ(baseStreams, 0u);
    // The resume restored 420 of the 600 prompt tokens; only the new
    // tail re-prefills, so first-token latency drops.
    EXPECT_LT(tierTtft, baseTtft);
}

TEST(TierEngine, ResumedSessionReleasesAllTierState)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    tier::ParkAgent agent(tb.server(), 0);
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend);
    engine.attachSessionTier(&agent);
    std::uint64_t ssdFree = tb.server().ssd().freeBytes();

    engine.submit(coldFirstTurn(1, 7));
    tb.sim().runUntil(secToTicks(10.0));
    EXPECT_LT(tb.server().ssd().freeBytes(), ssdFree);

    engine.submit(returningTurn(2, 7, secToTicks(10.0)));
    tb.sim().runUntil(secToTicks(30.0));
    ASSERT_EQ(engine.finished().size(), 2u);
    // The parked copy is freed once the stream lands; nothing leaks.
    EXPECT_EQ(agent.parkedCount(), 0u);
    EXPECT_EQ(tb.server().ssd().freeBytes(), ssdFree);
    EXPECT_EQ(agent.manager().itemCount(), 0u);
}

TEST(TierEngine, DegradedDriveResumesViaRecompute)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    tier::ParkAgent agent(tb.server(), 0);
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend);
    engine.attachSessionTier(&agent);

    engine.submit(coldFirstTurn(1, 7));
    tb.sim().runUntil(secToTicks(10.0));
    ASSERT_EQ(agent.parkedCount(), 1u);

    // GC storm before the user returns: the crossover check sees the
    // inflated stream estimate and chooses recompute.
    tb.server().topology().degradeSsd(0.001);
    engine.submit(returningTurn(2, 7, secToTicks(10.0)));
    tb.sim().runUntil(secToTicks(30.0));
    ASSERT_EQ(engine.finished().size(), 2u);
    EXPECT_EQ(engine.streamResumeCount(), 0u);
    EXPECT_EQ(engine.recomputeResumeCount(), 1u);
    EXPECT_EQ(agent.parkedCount(), 0u);
}

TEST(TierEngine, DriveFailureMidResumeFallsBackToRecompute)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    tier::ParkAgent agent(tb.server(), 0);
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend);
    engine.attachSessionTier(&agent);

    engine.submit(coldFirstTurn(1, 7));
    tb.sim().runUntil(secToTicks(10.0));
    ASSERT_EQ(agent.parkedCount(), 1u);

    // The drive dies a moment after the resume stream starts: the
    // pipeline winds the stream down and the engine re-prefills.
    engine.submit(returningTurn(2, 7, secToTicks(10.0)));
    tb.sim().queue().schedule(secToTicks(10.0) + msToTicks(2.0), [&] {
        tb.server().topology().markSsdFailed(true);
    });
    tb.sim().runUntil(secToTicks(40.0));
    ASSERT_EQ(engine.finished().size(), 2u);
    EXPECT_EQ(engine.streamResumeCount(), 0u);
    EXPECT_EQ(engine.recomputeResumeCount(), 1u);
    EXPECT_EQ(agent.parkedCount(), 0u);
    EXPECT_EQ(engine.finished()[1].tokensGenerated, 10u);
}

TEST(TierEngine, SwappedColdKvDemotesToSsdAndStillFinishes)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    // Aggressive aging so swapped KV demotes within the test horizon.
    tier::ParkAgentConfig ac;
    ac.tier.parkAfterSec = 0.5;
    ac.tier.pressureParkAfterSec = 0.1;
    tier::ParkAgent agent(tb.server(), 0, ac);
    VllmEngineConfig cfg;
    cfg.kvPoolBytesOverride = std::uint64_t(1) << 30;
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<CfsPolicy>(), backend, cfg);
    engine.attachSessionTier(&agent);

    // Growth past the 1 GiB pool forces swap-outs; preempted KV sits
    // in DRAM long enough for the settle pass to demote it.
    for (int i = 0; i < 8; ++i)
        engine.submit(makeRequest(i + 1, 0, 800, 300));
    tb.sim().runUntil(secToTicks(4000.0));

    ASSERT_EQ(engine.finished().size(), 8u);
    EXPECT_GT(engine.swapOutCount(), 0u);
    EXPECT_GT(engine.tierDemotionCount(), 0u);
    // Demoted KV came back through the SSD backend on swap-in.
    EXPECT_GT(tb.server().ssd().bytesRead(), 0u);
    // All tier records retired with the sequences.
    EXPECT_EQ(agent.manager().itemCount(), 0u);
    for (const auto &m : engine.finished())
        EXPECT_EQ(m.tokensGenerated, 300u);
}

TEST(TierEngine, RottedParkedSessionResumesViaRecompute)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    tier::ParkAgent agent(tb.server(), 0);
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend);
    engine.attachSessionTier(&agent);
    trace::TraceLog log;
    engine.setTraceLog(&log);

    engine.submit(coldFirstTurn(1, 7));
    tb.sim().runUntil(secToTicks(10.0));
    ASSERT_EQ(agent.parkedCount(), 1u);

    // The parked copy rots on the media: the streamed KV fails its
    // signature check on arrival and the turn re-prefills instead.
    tb.server().topology().setSsdBitrot(1.0);
    engine.submit(returningTurn(2, 7, secToTicks(10.0)));
    tb.sim().runUntil(secToTicks(30.0));
    ASSERT_EQ(engine.finished().size(), 2u);
    EXPECT_EQ(engine.finished()[1].tokensGenerated, 10u);
    EXPECT_EQ(engine.streamResumeCount(), 0u);
    EXPECT_GE(engine.recomputeResumeCount(), 1u);
    EXPECT_EQ(engine.integrityStats().detected, 1u);
    EXPECT_EQ(engine.integrityStats().recomputeFallbacks, 1u);
    EXPECT_EQ(engine.integrityStats().repairedRetransmit, 0u);
    std::vector<trace::Event> ev = log.ofCategory("corruption_recompute");
    ASSERT_EQ(ev.size(), 1u);
    const json::Value *path = ev[0].fields.find("path");
    ASSERT_NE(path, nullptr);
    EXPECT_EQ(path->asString(), "ssd_resume");
    EXPECT_EQ(ev[0].fields.find("request")->asInt(), 2);
    EXPECT_EQ(agent.parkedCount(), 0u);
}
