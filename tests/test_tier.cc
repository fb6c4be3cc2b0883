/**
 * @file
 * Tests for the SSD storage tier: the device model (sequential vs
 * random ramp, queue-depth parallelism, degradation and failure), the
 * tier-local DRAM↔SSD move paths, the TierManager's age/heat demotion
 * policy and stream-vs-recompute crossover, the prefetch pipeline's
 * double-buffered overlap, cancellation and bounce-slot reuse under
 * predictor misses (the tier-generalized staging engine — the flat
 * StagingEngine's own coverage lives in test_staging.cc), and the
 * ParkAgent's park/resume/demote lifecycle.
 */

#include <gtest/gtest.h>

#include "exp/testbed.hh"
#include "hw/ssd.hh"
#include "tier/park_agent.hh"
#include "tier/prefetch.hh"
#include "tier/tier_manager.hh"

using namespace aqua;
using namespace aqua::sim;
using namespace aqua::tier;

//
// hw::Ssd device model.
//

TEST(Ssd, SmallRandomAccessesFarSlowerThanSequential)
{
    hw::Ssd ssd;
    std::uint64_t bytes = 256 * mib;
    Tick sequential = ssd.readDuration(bytes, 1);
    // Same payload as 4 KiB random reads: every access pays the fixed
    // latency and the slow end of the bandwidth ramp.
    Tick random = ssd.readDuration(4 * kib, bytes / (4 * kib));
    EXPECT_GT(random, 5 * sequential);
}

TEST(Ssd, QueueDepthBoundsParallelism)
{
    hw::Ssd ssd; // queueDepth 8
    Tick oneWave = ssd.readDuration(mib, 8);
    Tick twoWaves = ssd.readDuration(mib, 16);
    // 16 accesses over 8 channels queue into two back-to-back waves.
    EXPECT_GT(twoWaves, oneWave);
    EXPECT_NEAR(static_cast<double>(twoWaves),
                2.0 * static_cast<double>(oneWave),
                0.1 * static_cast<double>(twoWaves));
}

TEST(Ssd, WritesSlowerThanReads)
{
    hw::Ssd ssd; // 7 GB/s read vs 5 GB/s write
    EXPECT_GT(ssd.writeDuration(256 * mib, 1),
              ssd.readDuration(256 * mib, 1));
}

TEST(Ssd, DegradationScalesMediaTime)
{
    hw::Ssd ssd;
    Tick healthy = ssd.readDuration(256 * mib, 1);
    ssd.setDegradation(0.5);
    Tick throttled = ssd.readDuration(256 * mib, 1);
    EXPECT_GT(throttled, healthy);
    ssd.setDegradation(1.0);
    EXPECT_EQ(ssd.readDuration(256 * mib, 1), healthy);
}

TEST(Ssd, BusyChannelsQueueFollowUpAccesses)
{
    hw::Ssd ssd;
    Tick first = ssd.read(32 * mib, 8, 0);
    Tick second = ssd.read(32 * mib, 8, 0);
    // The second burst finds every channel busy and queues behind.
    EXPECT_GT(second, first);
    EXPECT_EQ(ssd.bytesRead(), 2u * 8u * 32 * mib);
}

TEST(Ssd, FailedDeviceAccessPanics)
{
    hw::Ssd ssd;
    ssd.setFailed(true);
    EXPECT_DEATH(ssd.read(mib, 1, 0), "failed");
    EXPECT_DEATH(ssd.write(mib, 1, 0), "failed");
    ssd.setFailed(false);
    EXPECT_GT(ssd.read(mib, 1, 0), Tick(0));
}

//
// Tier-local move paths (DRAM↔SSD behind the GPUs' PCIe ports).
//

TEST(SsdBackend, TierLocalMovesSkipThePcieLinks)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    SsdBackend &ssd = tb.makeSsdBackend(0);
    auto handle = ssd.alloc(64 * mib);
    ASSERT_TRUE(handle);

    std::uint64_t hostBefore = tb.server().topology().hostBytesMoved();
    ssd.writeFromDram(*handle, 64 * mib, 4);
    ssd.readToDram(*handle, 64 * mib, 4);
    // Media counters move; the GPU-facing PCIe byte counters do not.
    EXPECT_EQ(tb.server().topology().hostBytesMoved(), hostBefore);
    EXPECT_EQ(tb.server().ssd().bytesWritten(), 64 * mib);
    EXPECT_EQ(tb.server().ssd().bytesRead(), 64 * mib);
    ssd.free(*handle);
}

TEST(SsdBackend, GpuReadPaysMediaOnTopOfPcie)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    SsdBackend &ssd = tb.makeSsdBackend(0);
    serve::DramBackend &dram = tb.makeDramBackend(1);
    std::uint64_t bytes = 256 * mib;
    auto hs = ssd.alloc(bytes);
    auto hd = dram.alloc(bytes);
    hw::TransferTiming ts = ssd.read(*hs, bytes, 1);
    hw::TransferTiming td = dram.read(*hd, bytes, 1);
    EXPECT_GT(ts.complete - ts.start, td.complete - td.start);
    ssd.free(*hs);
    dram.free(*hd);
}

TEST(SsdBackend, ScatteredAccessesRouteThroughStaging)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    SsdBackend &ssd = tb.makeSsdBackend(0); // always staged
    auto handle = ssd.alloc(64 * mib);
    ssd.read(*handle, 64 * mib, 64);
    EXPECT_TRUE(ssd.staged());
    EXPECT_GT(ssd.stagingStats().stagedTransfers, 0u);
    EXPECT_EQ(ssd.stagingStats().coalescedDescriptors, 64u);
    ssd.free(*handle);
}

//
// TierManager policy.
//

TEST(TierManager, AgeSelectsColdUnpinnedDramItems)
{
    hw::Ssd ssd;
    TierManager mgr(ssd); // parkAfterSec 30
    mgr.registerItem(1, mib, 0);
    mgr.registerItem(2, mib, 0);
    mgr.touch(2, secToTicks(29.0));

    auto picks = mgr.selectDemotions(secToTicks(35.0), false);
    // Item 1 aged 35 s; item 2's last touch is 6 s old.
    ASSERT_EQ(picks.size(), 1u);
    EXPECT_EQ(picks[0], 1u);
}

TEST(TierManager, HeatDiscountsAge)
{
    hw::Ssd ssd;
    TierManager mgr(ssd); // heatWeight 4
    mgr.registerItem(1, mib, 0);
    mgr.registerItem(2, mib, 0);
    // Three touches at t=0: lastTouch stays 0, but the heat divisor
    // (1 + 4*3 = 13) shrinks item 2's effective age to ~2.7 s.
    mgr.touch(2, 0);
    mgr.touch(2, 0);
    mgr.touch(2, 0);
    auto picks = mgr.selectDemotions(secToTicks(35.0), false);
    ASSERT_EQ(picks.size(), 1u);
    EXPECT_EQ(picks[0], 1u);
}

TEST(TierManager, PinnedItemsNeverLeaveDram)
{
    hw::Ssd ssd;
    TierManager mgr(ssd);
    mgr.registerItem(1, mib, 0, /*pinned=*/true);
    EXPECT_TRUE(mgr.selectDemotions(secToTicks(100.0), true).empty());
    EXPECT_DEATH(mgr.markDemoted(1, secToTicks(100.0)), "pinned");
    // Unpinning makes it demotable like any other item.
    mgr.setPinned(1, false);
    EXPECT_EQ(mgr.selectDemotions(secToTicks(100.0), false).size(), 1u);
}

TEST(TierManager, PressureTightensTheThreshold)
{
    hw::Ssd ssd;
    TierManager mgr(ssd); // 30 s normally, 2 s under pressure
    mgr.registerItem(1, mib, 0);
    Tick now = secToTicks(5.0);
    EXPECT_TRUE(mgr.selectDemotions(now, false).empty());
    EXPECT_EQ(mgr.selectDemotions(now, true).size(), 1u);
}

TEST(TierManager, DemotionBudgetCapsEachSettle)
{
    hw::Ssd ssd;
    TierConfig cfg;
    cfg.maxDemotionsPerSettle = 3;
    TierManager mgr(ssd, cfg);
    for (std::uint64_t k = 1; k <= 10; ++k)
        mgr.registerItem(k, mib, 0);
    EXPECT_EQ(mgr.selectDemotions(secToTicks(60.0), false).size(), 3u);
}

TEST(TierManager, LevelTracksDemotionAndPromotion)
{
    hw::Ssd ssd;
    TierManager mgr(ssd);
    mgr.registerItem(7, 2 * mib, 0);
    EXPECT_EQ(mgr.level(7), TierLevel::Dram);
    mgr.markDemoted(7, secToTicks(1.0));
    EXPECT_EQ(mgr.level(7), TierLevel::Ssd);
    // SSD-resident items are not demotion candidates.
    EXPECT_TRUE(mgr.selectDemotions(secToTicks(100.0), true).empty());
    mgr.markPromoted(7, secToTicks(2.0));
    EXPECT_EQ(mgr.level(7), TierLevel::Dram);
    EXPECT_EQ(mgr.stats().demotions, 1u);
    EXPECT_EQ(mgr.stats().promotions, 1u);
    EXPECT_EQ(mgr.stats().demotedBytes, 2 * mib);
    mgr.remove(7);
    EXPECT_FALSE(mgr.contains(7));
}

TEST(TierManager, ResumeDecisionCrossover)
{
    hw::Ssd ssd;
    TierManager mgr(ssd); // resumeSafetyFactor 1.1
    // Stream clearly cheaper than recompute.
    EXPECT_EQ(mgr.decideResume(msToTicks(10.0), msToTicks(100.0)),
              ResumeDecision::Stream);
    // Within the safety margin: recompute wins the tie.
    EXPECT_EQ(mgr.decideResume(msToTicks(95.0), msToTicks(100.0)),
              ResumeDecision::Recompute);
    // A failed device never streams, however good the estimate.
    ssd.setFailed(true);
    EXPECT_EQ(mgr.decideResume(msToTicks(1.0), msToTicks(100.0)),
              ResumeDecision::Recompute);
    EXPECT_EQ(mgr.stats().streamResumes, 1u);
    EXPECT_EQ(mgr.stats().recomputeResumes, 2u);
}

//
// PrefetchPipeline: windowed SSD→DRAM→HBM streaming.
//

TEST(PrefetchPipeline, StreamDeliversAllBytesWithOverlap)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    PrefetchPipeline pipe(tb.server(), 0);
    PrefetchPipeline::Done done;
    bool fired = false;
    pipe.start(256 * mib, 0, [&](const PrefetchPipeline::Done &d) {
        done = d;
        fired = true;
    });
    tb.sim().runUntil(secToTicks(10.0));
    ASSERT_TRUE(fired);
    EXPECT_FALSE(done.cancelled);
    EXPECT_EQ(done.bytes, 256 * mib);
    EXPECT_GT(done.complete, done.start);
    // Double buffering must hide at least half of the shorter stage
    // (the acceptance bar the bench enforces end to end).
    EXPECT_GE(done.overlapEfficiency, 0.5);
    EXPECT_EQ(pipe.stats().streamsCompleted, 1u);
    EXPECT_EQ(pipe.stats().bytesStreamed, 256 * mib);
}

TEST(PrefetchPipeline, EstimateTracksMakespanAndDegradation)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    PrefetchPipeline pipe(tb.server(), 0);
    Tick estimate = pipe.estimate(256 * mib);
    Tick complete = 0;
    pipe.start(256 * mib, 0, [&](const PrefetchPipeline::Done &d) {
        complete = d.complete;
    });
    tb.sim().runUntil(secToTicks(10.0));
    ASSERT_GT(complete, Tick(0));
    // The pure estimate is what the crossover check trusts: it must
    // track the idle-pipeline makespan closely.
    double actual = static_cast<double>(complete);
    EXPECT_NEAR(static_cast<double>(estimate), actual, 0.25 * actual);
    // Media degradation inflates the estimate (this is what flips
    // decideResume to Recompute during an incident).
    tb.server().topology().degradeSsd(0.1);
    EXPECT_GT(pipe.estimate(256 * mib), 2 * estimate);
}

TEST(PrefetchPipeline, CancellationStopsFutureWindows)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    PrefetchPipeline pipe(tb.server(), 0);
    PrefetchPipeline::Done done;
    bool fired = false;
    auto id = pipe.start(512 * mib, 0,
                         [&](const PrefetchPipeline::Done &d) {
                             done = d;
                             fired = true;
                         });
    EXPECT_TRUE(pipe.active(id));
    // Predictor miss shortly after the stream starts.
    tb.sim().queue().schedule(msToTicks(5.0),
                              [&] { EXPECT_TRUE(pipe.cancel(id)); });
    tb.sim().runUntil(secToTicks(10.0));
    ASSERT_TRUE(fired);
    EXPECT_TRUE(done.cancelled);
    EXPECT_LT(done.bytes, 512 * mib);
    EXPECT_FALSE(pipe.active(id));
    // A wound-down stream cannot be cancelled again.
    EXPECT_FALSE(pipe.cancel(id));
    const PrefetchStats &s = pipe.stats();
    EXPECT_EQ(s.streamsCancelled, 1u);
    EXPECT_GT(s.windowsCancelled, 0u);
    // In-flight windows at cancel time are charged as waste.
    EXPECT_EQ(s.bytesWasted, done.bytes);
    EXPECT_EQ(s.bytesStreamed, 0u);
}

TEST(PrefetchPipeline, SlotsReusedCleanlyAfterCancelledStream)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    PrefetchPipeline pipe(tb.server(), 0);
    auto first = pipe.start(512 * mib, 0);
    PrefetchPipeline::Done done;
    bool fired = false;
    // Cancel the first stream mid-flight and immediately start a
    // second one: its windows queue on the same bounce buffers the
    // first stream's in-flight windows still occupy.
    tb.sim().queue().schedule(msToTicks(5.0), [&] {
        pipe.cancel(first);
        pipe.start(128 * mib, tb.sim().now(),
                   [&](const PrefetchPipeline::Done &d) {
                       done = d;
                       fired = true;
                   });
    });
    tb.sim().runUntil(secToTicks(10.0));
    ASSERT_TRUE(fired);
    EXPECT_FALSE(done.cancelled);
    EXPECT_EQ(done.bytes, 128 * mib);
    EXPECT_GE(done.overlapEfficiency, 0.0);
    EXPECT_EQ(pipe.stats().streamsCompleted, 1u);
    EXPECT_EQ(pipe.stats().streamsCancelled, 1u);
    EXPECT_EQ(pipe.stats().bytesStreamed, 128 * mib);
}

TEST(PrefetchPipeline, MediaFailureMidStreamWindsDownCancelled)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    PrefetchPipeline pipe(tb.server(), 0);
    PrefetchPipeline::Done done;
    bool fired = false;
    pipe.start(512 * mib, 0, [&](const PrefetchPipeline::Done &d) {
        done = d;
        fired = true;
    });
    tb.sim().queue().schedule(msToTicks(5.0), [&] {
        tb.server().topology().markSsdFailed(true);
    });
    tb.sim().runUntil(secToTicks(10.0));
    ASSERT_TRUE(fired);
    EXPECT_TRUE(done.cancelled);
    EXPECT_LT(done.bytes, 512 * mib);
}

//
// ParkAgent: the glued park/resume/demote lifecycle.
//

TEST(ParkAgent, ParkGatesOnIdleGapAndDriveHealth)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    ParkAgent agent(tb.server(), 0);
    // Too-short gaps are not worth the media churn.
    EXPECT_FALSE(agent.park(7, 64 * mib, 500, 5.0, 0));
    EXPECT_FALSE(agent.park(7, 0, 500, 60.0, 0));
    // A failed drive takes no new sessions.
    tb.server().topology().markSsdFailed(true);
    EXPECT_FALSE(agent.park(7, 64 * mib, 500, 60.0, 0));
    tb.server().topology().markSsdFailed(false);

    EXPECT_TRUE(agent.park(7, 64 * mib, 500, 60.0, 0));
    EXPECT_EQ(agent.parkedCount(), 1u);
    EXPECT_EQ(agent.parkedBytes(), 64 * mib);
    EXPECT_EQ(agent.parkedTokens(7), 500u);
    EXPECT_EQ(agent.parkedTokens(8), 0u);
    EXPECT_GT(tb.server().ssd().bytesWritten(), 0u);
    // A fresher turn supersedes the earlier copy, not leaks beside it.
    EXPECT_TRUE(agent.park(7, 32 * mib, 300, 60.0, 0));
    EXPECT_EQ(agent.parkedCount(), 1u);
    EXPECT_EQ(agent.parkedBytes(), 32 * mib);
}

TEST(ParkAgent, ResumeStreamsAndReleasesTheParkedCopy)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    ParkAgent agent(tb.server(), 0);
    std::uint64_t freeBefore = tb.server().ssd().freeBytes();
    ASSERT_TRUE(agent.park(7, 64 * mib, 500, 60.0, 0));

    bool fired = false, streamed = false;
    // Prefill would take far longer than the stream: must stream.
    ASSERT_TRUE(agent.beginResume(7, 0, secToTicks(5.0),
                                  [&](bool s) {
                                      fired = true;
                                      streamed = s;
                                      return true;
                                  }));
    tb.sim().runUntil(secToTicks(10.0));
    EXPECT_TRUE(fired);
    EXPECT_TRUE(streamed);
    EXPECT_EQ(agent.parkedCount(), 0u);
    EXPECT_EQ(tb.server().ssd().freeBytes(), freeBefore);
    EXPECT_GT(tb.server().ssd().bytesRead(), 0u);
}

TEST(ParkAgent, DiscardedResumeBooksItsBytesAsWasted)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    ParkAgent agent(tb.server(), 0);
    ASSERT_TRUE(agent.park(7, 64 * mib, 500, 60.0, 0));
    ASSERT_TRUE(agent.park(8, 32 * mib, 250, 60.0, 0));
    // Session 7's landed copy is kept, session 8's is discarded.
    ASSERT_TRUE(agent.beginResume(7, 0, secToTicks(5.0),
                                  [](bool s) { return s; }));
    ASSERT_TRUE(agent.beginResume(8, 0, secToTicks(5.0),
                                  [](bool) { return false; }));
    tb.sim().runUntil(secToTicks(10.0));
    const PrefetchStats &s = agent.pipeline().stats();
    EXPECT_EQ(s.streamsCompleted, 2u);
    EXPECT_EQ(s.streamsDiscarded, 1u);
    EXPECT_EQ(s.bytesStreamed, 96 * mib);
    EXPECT_EQ(s.bytesWasted, 32 * mib);
}

TEST(ParkAgent, DegradedDriveFlipsResumeToRecompute)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    ParkAgent agent(tb.server(), 0);
    ASSERT_TRUE(agent.park(7, 64 * mib, 500, 60.0, 0));
    tb.server().topology().degradeSsd(0.001);
    // Streaming off a crawling drive loses to a 50 ms prefill; the
    // agent drops the parked copy and reports recompute.
    EXPECT_FALSE(agent.beginResume(7, 0, msToTicks(50.0), {}));
    EXPECT_EQ(agent.parkedCount(), 0u);
    EXPECT_EQ(agent.manager().stats().recomputeResumes, 1u);
}

TEST(ParkAgent, CancelMidStreamDropsTheSession)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    ParkAgent agent(tb.server(), 0);
    std::uint64_t freeBefore = tb.server().ssd().freeBytes();
    ASSERT_TRUE(agent.park(7, 256 * mib, 2000, 60.0, 0));
    bool fired = false, streamed = true;
    ASSERT_TRUE(agent.beginResume(7, 0, secToTicks(5.0),
                                  [&](bool s) {
                                      fired = true;
                                      streamed = s;
                                      return true;
                                  }));
    // The resumed sequence sheds before the stream lands.
    tb.sim().queue().schedule(msToTicks(2.0),
                              [&] { agent.cancelResume(7); });
    tb.sim().runUntil(secToTicks(10.0));
    EXPECT_TRUE(fired);
    EXPECT_FALSE(streamed);
    EXPECT_EQ(agent.parkedCount(), 0u);
    EXPECT_EQ(tb.server().ssd().freeBytes(), freeBefore);
}

TEST(ParkAgent, DemoteMovesDramHandleOntoTheMedia)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    ParkAgent agent(tb.server(), 0);
    serve::DramBackend &dram = tb.makeDramBackend(0);
    std::uint64_t dramFree = tb.server().dram().freeBytes();
    auto handle = dram.alloc(64 * mib);
    ASSERT_TRUE(handle);
    agent.noteOffloaded(42, 64 * mib, 0);

    // Cold long enough: the settle pass picks it.
    auto picks = agent.selectDemotions(secToTicks(60.0), false);
    ASSERT_EQ(picks.size(), 1u);
    EXPECT_EQ(picks[0], 42u);

    auto moved =
        agent.demote(42, dram, *handle, 4, secToTicks(60.0));
    ASSERT_TRUE(moved);
    EXPECT_EQ(moved->bytes, 64 * mib);
    // The DRAM copy is gone; the bytes sit on the media now.
    EXPECT_EQ(tb.server().dram().freeBytes(), dramFree);
    EXPECT_EQ(tb.server().ssd().bytesWritten(), 64 * mib);
    EXPECT_EQ(agent.manager().level(42), TierLevel::Ssd);
    // Swap-in later promotes and forgets it.
    agent.forgetOffloaded(42, true, secToTicks(61.0));
    EXPECT_FALSE(agent.manager().contains(42));
    agent.demotionStore().free(*moved);
}

TEST(ParkAgent, DemoteRefusedOnFailedDrive)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    ParkAgent agent(tb.server(), 0);
    serve::DramBackend &dram = tb.makeDramBackend(0);
    auto handle = dram.alloc(64 * mib);
    ASSERT_TRUE(handle);
    agent.noteOffloaded(42, 64 * mib, 0);
    tb.server().topology().markSsdFailed(true);
    EXPECT_FALSE(agent.demote(42, dram, *handle, 4, secToTicks(60.0)));
    // The DRAM copy is untouched and still tracked.
    EXPECT_TRUE(agent.manager().contains(42));
    dram.free(*handle);
}
