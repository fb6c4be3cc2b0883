/**
 * @file
 * Tests for the scatter/gather staging engine: coalescer unit and
 * property tests (adjacent-block merging, split at the slot size,
 * ordering preserved, byte conservation over randomized descriptor
 * sets), double-buffer overlap accounting (pipelined execution
 * beats the sequential sum of gather + wire times) and the shared
 * scatteredCopy() routine every offload store moves data through.
 */

#include <gtest/gtest.h>

#include <random>

#include "aqua/staging.hh"
#include "exp/testbed.hh"

using namespace aqua;
using namespace aqua::sim;
using namespace aqua::core;

namespace {

std::uint64_t
totalBytes(const std::vector<CopyDesc> &descs)
{
    std::uint64_t sum = 0;
    for (const CopyDesc &d : descs)
        sum += d.bytes;
    return sum;
}

std::uint64_t
totalBytes(const std::vector<StagedTransfer> &plan)
{
    std::uint64_t sum = 0;
    for (const StagedTransfer &t : plan)
        sum += t.bytes;
    return sum;
}

} // anonymous namespace

TEST(StagingPlan, AdjacentBlocksMergeIntoDirectTransfer)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    StagingEngine engine(tb.server(), 0);
    // Three contiguous 64 KiB blocks: one flat region, no gather.
    std::vector<CopyDesc> descs = {
        {0, 64 * kib}, {64 * kib, 64 * kib}, {128 * kib, 64 * kib}};
    auto plan = engine.plan(descs);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_FALSE(plan[0].staged);
    EXPECT_EQ(plan[0].offset, 0u);
    EXPECT_EQ(plan[0].bytes, 192 * kib);
    EXPECT_EQ(plan[0].descCount, 3u);
}

TEST(StagingPlan, ScatteredSmallBlocksCoalesceIntoStagedTransfers)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    StagingEngine engine(tb.server(), 0);
    // 48 scattered 2 MiB blocks pack into 32 MiB slots: 3 staged
    // transfers of 16 blocks each.
    auto descs = StagingEngine::uniformChunks(96 * mib, 48);
    auto plan = engine.plan(descs);
    ASSERT_EQ(plan.size(), 3u);
    for (const StagedTransfer &t : plan) {
        EXPECT_TRUE(t.staged);
        EXPECT_EQ(t.bytes, slotBytes);
        EXPECT_EQ(t.descCount, 16u);
    }
}

TEST(StagingPlan, SplitAtSlotSize)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    StagingEngine engine(tb.server(), 0);
    // 37 scattered 3 MiB blocks (111 MiB): blocks straddling a slot
    // boundary split, staged transfers never exceed the 32 MiB slot,
    // and the tail carries the remainder.
    auto descs = StagingEngine::uniformChunks(111 * mib, 37);
    auto plan = engine.plan(descs);
    EXPECT_EQ(totalBytes(plan), 111 * mib);
    for (const StagedTransfer &t : plan) {
        EXPECT_TRUE(t.staged);
        EXPECT_LE(t.bytes, slotBytes);
    }
    ASSERT_EQ(plan.size(), 4u);
    EXPECT_EQ(plan.back().bytes, 111 * mib - 3 * slotBytes);
}

TEST(StagingPlan, LargeBlocksShipDirect)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    StagingEngine engine(tb.server(), 0);
    // A block at the coalescing threshold skips staging entirely.
    ASSERT_EQ(coalesceThresholdBytes, 8 * mib);
    std::vector<CopyDesc> descs = {{0, 8 * mib}};
    auto plan = engine.plan(descs);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_FALSE(plan[0].staged);
    EXPECT_EQ(plan[0].bytes, 8 * mib);
}

TEST(StagingPlan, MixedSizesPreserveDescriptorOrder)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    StagingEngine engine(tb.server(), 0);
    // small, small, LARGE, small: the pending batch flushes before
    // the direct transfer so wire order follows descriptor order.
    std::vector<CopyDesc> descs = {{0, 256 * kib},
                                   {mib, 256 * kib},
                                   {10 * mib, 9 * mib},
                                   {30 * mib, 256 * kib}};
    auto plan = engine.plan(descs);
    ASSERT_EQ(plan.size(), 3u);
    EXPECT_TRUE(plan[0].staged);
    EXPECT_EQ(plan[0].bytes, 512 * kib);
    EXPECT_EQ(plan[0].descCount, 2u);
    EXPECT_FALSE(plan[1].staged);
    EXPECT_EQ(plan[1].bytes, 9 * mib);
    // A lone trailing scattered block is one flat region: direct.
    EXPECT_FALSE(plan[2].staged);
    EXPECT_EQ(plan[2].bytes, 256 * kib);
}

TEST(StagingPlan, ZeroByteDescriptorsAreDropped)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    StagingEngine engine(tb.server(), 0);
    std::vector<CopyDesc> descs = {{0, 0}, {mib, 64 * kib}, {9 * mib, 0}};
    auto plan = engine.plan(descs);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].bytes, 64 * kib);
    EXPECT_TRUE(engine.plan({}).empty());
}

TEST(StagingPlan, RandomizedNoLostOrDuplicatedBytes)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    StagingEngine engine(tb.server(), 0);
    std::mt19937_64 rng(42); // fixed seed: reproducible
    std::uniform_int_distribution<std::uint64_t> sizeDist(1,
                                                          6 * mib);
    std::uniform_int_distribution<std::uint64_t> gapDist(0, mib);
    for (int round = 0; round < 50; ++round) {
        std::vector<CopyDesc> descs;
        std::uint64_t off = 0;
        int n = 1 + static_cast<int>(rng() % 64);
        for (int i = 0; i < n; ++i) {
            std::uint64_t bytes = sizeDist(rng);
            descs.push_back({off, bytes});
            // Half the time the next block is adjacent (mergeable).
            off += bytes + (rng() % 2 ? gapDist(rng) : 0);
        }
        auto plan = engine.plan(descs);
        // Conservation: every byte shipped exactly once.
        EXPECT_EQ(totalBytes(plan), totalBytes(descs));
        // Ordering: transfers cover device space left to right.
        std::uint64_t prevOffset = 0;
        bool first = true;
        for (const StagedTransfer &t : plan) {
            EXPECT_GE(t.bytes, 1u);
            EXPECT_GE(t.descCount, 1u);
            if (t.staged) {
                EXPECT_LE(t.bytes, slotBytes);
            }
            if (!first) {
                EXPECT_GT(t.offset, prevOffset);
            }
            prevOffset = t.offset;
            first = false;
        }
    }
}

TEST(StagingChunks, UniformChunksAreExactAndScattered)
{
    auto descs = StagingEngine::uniformChunks(1000000, 7);
    ASSERT_EQ(descs.size(), 7u);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < descs.size(); ++i) {
        sum += descs[i].bytes;
        if (i > 0) {
            // Strictly scattered: a gap before every block.
            EXPECT_GT(descs[i].offset,
                      descs[i - 1].offset + descs[i - 1].bytes);
        }
    }
    EXPECT_EQ(sum, 1000000u);
    EXPECT_TRUE(StagingEngine::uniformChunks(0, 4).empty());
    // Degenerate: more chunks than bytes collapses to byte blocks.
    EXPECT_EQ(StagingEngine::uniformChunks(3, 100).size(), 3u);
}

TEST(StagingEngineExec, OverlapBeatsSequentialSumOfTransfers)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    StagingEngine engine(tb.server(), 0);
    auto descs = StagingEngine::uniformChunks(256 * mib, 256);
    auto plan = engine.plan(descs);
    ASSERT_GT(plan.size(), 1u);

    // Sequential accounting: every transfer pays its gather and its
    // wire time back to back.
    StagingModel model(hw::a100_80g());
    const hw::Link &nvlink = tb.server().topology().peerLink();
    Tick sequential = 0;
    for (const StagedTransfer &t : plan)
        sequential += model.gatherTime(t.bytes) +
                      nvlink.transferTime(t.bytes);

    hw::TransferTiming timing = engine.transferOut(1, descs);
    EXPECT_LT(timing.complete, sequential);
}

TEST(StagingEngineExec, StatsAccountEveryWireTransfer)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    StagingEngine engine(tb.server(), 0);
    auto descs = StagingEngine::uniformChunks(64 * mib, 64);
    auto plan = engine.plan(descs);
    engine.transferOut(1, descs);

    const StagingTransferStats &s = engine.stats();
    EXPECT_EQ(s.transfers, plan.size());
    EXPECT_EQ(s.stagedTransfers + s.directTransfers, s.transfers);
    EXPECT_GT(s.stagedTransfers, 0u);
    EXPECT_EQ(s.coalescedDescriptors, 64u);
    EXPECT_EQ(s.bytesMoved, 64 * mib);
    EXPECT_EQ(s.stagedBytes, 64 * mib);
    EXPECT_EQ(s.effectiveBandwidth.count(), plan.size());
    EXPECT_EQ(s.queueLatency.count(), plan.size());

    // The whole point: coalesced wire transfers run far faster than
    // the per-block copies they replace.
    double perBlock = tb.server().topology().peerLink()
                          .effectiveBandwidth(mib);
    EXPECT_GT(s.effectiveBandwidth.mean(), 2.0 * perBlock);
}

TEST(StagingEngineExec, StagingBufferAllocatedLazily)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    StagingEngine engine(tb.server(), 0);
    std::uint64_t before = tb.server().gpu(0).freeHbm();

    // Contiguous payload ships direct: no buffer needed.
    engine.transferOut(1, {{0, 16 * mib}});
    EXPECT_EQ(tb.server().gpu(0).freeHbm(), before);

    // Scattered payload stages: stagingSlots * slotBytes carved from
    // HBM.
    engine.transferOut(1, StagingEngine::uniformChunks(8 * mib, 16));
    EXPECT_EQ(before - tb.server().gpu(0).freeHbm(),
              std::uint64_t(stagingSlots) * slotBytes);
}

TEST(StagingEngineExec, TransferInScattersAfterTheWire)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    StagingEngine engine(tb.server(), 0);
    auto descs = StagingEngine::uniformChunks(32 * mib, 32);
    hw::TransferTiming t = engine.transferIn(1, descs);
    // Completion includes the trailing scatter kernel, so it exceeds
    // the pure wire time of the whole payload.
    const hw::Link &nvlink = tb.server().topology().peerLink();
    EXPECT_GT(t.complete - t.start, nvlink.transferTime(32 * mib));
    EXPECT_EQ(engine.stats().bytesMoved, 32 * mib);
}

TEST(StagingEngineExec, EarliestPropagates)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    StagingEngine engine(tb.server(), 0);
    auto descs = StagingEngine::uniformChunks(8 * mib, 16);
    hw::TransferTiming t =
        engine.transferOut(1, descs, secToTicks(1.0));
    EXPECT_GE(t.start, secToTicks(1.0));
}

TEST(StagingEngineExec, NoHbmForStagingBufferPanics)
{
    // The staging buffer is carved lazily; a GPU whose HBM is already
    // full cannot stage, and says so instead of overrunning memory.
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    StagingEngine engine(tb.server(), 0);
    ASSERT_TRUE(tb.server().gpu(0).hbm().allocate(
        tb.server().gpu(0).freeHbm()));
    EXPECT_DEATH(
        engine.transferOut(1, StagingEngine::uniformChunks(8 * mib, 16)),
        "no HBM");
}

TEST(StagingEngineExec, BackToBackTransfersQueueOnSlotReuse)
{
    // Slot-reuse race: a second transfer issued while the first still
    // owns the staging slots must queue behind their drain, not
    // overlap into them.
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    StagingEngine engine(tb.server(), 0);
    auto descs = StagingEngine::uniformChunks(128 * mib, 128);
    Tick issued = tb.sim().now();
    hw::TransferTiming first = engine.transferOut(1, descs);
    hw::TransferTiming second = engine.transferOut(1, descs);
    EXPECT_GT(second.complete, first.complete);
    // Byte accounting survives the contention.
    EXPECT_EQ(engine.stats().bytesMoved, 2u * 128 * mib);

    // Contention defers the second transfer behind the first's slot
    // drain: measured from the issue instant, it finishes later than
    // the same payload on an uncontended engine.
    exp::Testbed tb2(2, hw::TopologyKind::DirectP2P);
    StagingEngine fresh(tb2.server(), 0);
    hw::TransferTiming alone = fresh.transferOut(1, descs);
    EXPECT_GT(second.complete - issued,
              alone.complete - alone.start);
}

TEST(StagingEngineExec, InterleavedDirectionsShareSlotsSafely)
{
    // transferIn and transferOut alternate on the same slot pool;
    // neither direction loses bytes or reorders ahead of the other's
    // slot horizon.
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    StagingEngine engine(tb.server(), 0);
    auto descs = StagingEngine::uniformChunks(64 * mib, 64);
    hw::TransferTiming out = engine.transferOut(1, descs);
    hw::TransferTiming in = engine.transferIn(1, descs);
    EXPECT_GT(in.complete, out.complete);
    EXPECT_EQ(engine.stats().bytesMoved, 2u * 64 * mib);
}

//
// scatteredCopy(): the one transfer-shape rule of every offload store.
//

TEST(ScatteredCopy, EveryRouteMovesExactlyThePayload)
{
    // Payloads that the chunk count does not divide, and one with
    // fewer bytes than chunks: staged or not, exactly `bytes` cross
    // every link the route touches.
    const hw::GpuId host = hw::hostDramId, ssd = hw::ssdId;
    const std::pair<hw::GpuId, hw::GpuId> routes[] = {
        {0, host}, {host, 0}, {0, ssd}, {ssd, 0}, {0, 1}, {1, 0},
        {host, ssd}, {ssd, host}};
    for (auto [bytes, n] : {std::pair<std::uint64_t, std::uint64_t>{
                                1000, 7},
                            {3, 100}}) {
        for (auto [src, dst] : routes) {
            bool gpuRoute = src == 0 || dst == 0;
            for (bool staged : {false, true}) {
                if (staged && !gpuRoute)
                    continue; // tier-local moves have no GPU engine
                SCOPED_TRACE(testing::Message()
                             << bytes << " B / " << n << " chunks, "
                             << src << " -> " << dst
                             << (staged ? " staged" : " unstaged"));
                exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
                StagingEngine engine(tb.server(), 0);
                hw::Topology &topo = tb.server().topology();
                scatteredCopy(topo, src, dst, bytes, n,
                              staged ? &engine : nullptr);
                bool peer = src != host && src != ssd && dst != host &&
                            dst != ssd;
                bool pcie = gpuRoute && !peer;
                EXPECT_EQ(topo.peerBytesMoved(), peer ? bytes : 0);
                EXPECT_EQ(topo.hostBytesMoved(), pcie ? bytes : 0);
                EXPECT_EQ(tb.server().ssd().bytesWritten(),
                          dst == ssd ? bytes : 0);
                EXPECT_EQ(tb.server().ssd().bytesRead(),
                          src == ssd ? bytes : 0);
            }
        }
    }
}

TEST(ScatteredCopy, PerChunkTimeChargesTheRemainderOnce)
{
    // 1000 B in 7 chunks: six of 142 B and one of 148 B, back to back.
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    hw::Topology &topo = tb.server().topology();
    hw::TransferTiming t =
        scatteredCopy(topo, 0, hw::hostDramId, 1000, 7, nullptr);
    const hw::Link &pcie = topo.hostLink();
    EXPECT_EQ(t.complete - t.start,
              pcie.transferTimeChunked(142, 6) + pcie.transferTime(148));

    // When the count divides the payload this is n equal chunks.
    hw::TransferTiming even =
        scatteredCopy(topo, 0, 1, 64 * mib, 64, nullptr);
    EXPECT_EQ(even.complete - even.start,
              topo.peerLink().transferTimeChunked(mib, 64));
}
