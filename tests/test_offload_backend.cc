/**
 * @file
 * Backend-specific tests for the DRAM baseline and the AQUA-LIB
 * delegation, including the timing asymmetry AQUA exists to exploit.
 * The shared interface contract (lifecycle, bounds, exhaustion,
 * timing signature) lives in test_offload_conformance.cc.
 */

#include <gtest/gtest.h>

#include "exp/testbed.hh"
#include "tier/ssd_backend.hh"

using namespace aqua;
using namespace aqua::sim;
using namespace aqua::serve;

TEST(DramBackend, AllocConsumesHostDram)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    DramBackend &backend = tb.makeDramBackend(0);
    std::uint64_t before = tb.server().dram().freeBytes();
    auto handle = backend.alloc(std::uint64_t(1) << 30);
    ASSERT_TRUE(handle);
    EXPECT_EQ(before - tb.server().dram().freeBytes(),
              std::uint64_t(1) << 30);
    backend.free(*handle);
    EXPECT_EQ(tb.server().dram().freeBytes(), before);
}

TEST(DramBackend, TransfersRunAtPcieSpeed)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    DramBackend &backend = tb.makeDramBackend(0);
    auto handle = backend.alloc(512 * mib);
    hw::TransferTiming w = backend.write(*handle, 512 * mib, 1);
    double sec = ticksToSec(w.complete - w.start);
    // ~512 MiB / 25 GB/s ~ 21 ms.
    EXPECT_NEAR(sec, 0.021, 0.005);
    backend.free(*handle);
}

TEST(DramBackend, RespondIsImmediate)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    DramBackend &backend = tb.makeDramBackend(0);
    EXPECT_EQ(backend.respond(), tb.sim().now());
    EXPECT_FALSE(backend.staged());
    EXPECT_EQ(backend.name(), "dram");
}

TEST(AquaBackend, PeerReadBeatsDramReadBySeveralX)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    core::AquaLib &consumerLib = tb.makeAquaLib(0);
    tb.assign(0, 1);
    tb.coordinator().lease(1, std::uint64_t(20) << 30);
    AquaBackend &aqua = tb.makeAquaBackend(consumerLib);
    DramBackend &dram = tb.makeDramBackend(0);

    std::uint64_t bytes = std::uint64_t(4) << 30; // a big KV
    auto ha = aqua.alloc(bytes);
    auto hd = dram.alloc(bytes);
    hw::TransferTiming ta = aqua.read(*ha, bytes, 64);
    hw::TransferTiming td = dram.read(*hd, bytes, 64);
    double aquaSec = ticksToSec(ta.complete - ta.start);
    double dramSec = ticksToSec(td.complete - td.start);
    EXPECT_GT(dramSec, 5.0 * aquaSec);
    EXPECT_TRUE(aqua.staged());
    EXPECT_EQ(aqua.name(), "aqua");
    aqua.free(*ha);
    dram.free(*hd);
}

TEST(AquaBackend, HandleMapsToTensor)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    core::AquaLib &lib = tb.makeAquaLib(0);
    AquaBackend &aqua = tb.makeAquaBackend(lib);
    auto handle = aqua.alloc(1 << 20);
    ASSERT_TRUE(handle);
    EXPECT_EQ(lib.ownedTensors(), 1u);
    aqua.free(*handle);
    EXPECT_EQ(lib.ownedTensors(), 0u);
}

TEST(OffloadBackends, ScatteredPayloadsCrossTheLinkExactly)
{
    // DRAM (unstaged), SSD (staged, and unstaged tier-local moves) and
    // AQUA-LIB (staged and unstaged, on a peer lease and on the DRAM
    // fallback) move exactly `bytes` per call, whatever the chunking.
    constexpr std::uint64_t gb = std::uint64_t(1) << 30;
    for (auto [bytes, n] : {std::pair<std::uint64_t, std::uint64_t>{
                                1000, 7},
                            {3, 100}}) {
        SCOPED_TRACE(testing::Message()
                     << bytes << " B / " << n << " chunks");
        {
            exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
            DramBackend &dram = tb.makeDramBackend(0);
            auto h = dram.alloc(bytes);
            dram.write(*h, bytes, n);
            dram.read(*h, bytes, n);
            EXPECT_EQ(tb.server().topology().hostBytesMoved(), 2 * bytes);
        }
        {
            exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
            tier::SsdBackend &ssd = tb.makeSsdBackend(0);
            auto h = ssd.alloc(bytes);
            ssd.write(*h, bytes, n);
            ssd.read(*h, bytes, n);
            EXPECT_EQ(tb.server().topology().hostBytesMoved(), 2 * bytes);
            ssd.writeFromDram(*h, bytes, n);
            ssd.readToDram(*h, bytes, n);
            EXPECT_EQ(tb.server().topology().hostBytesMoved(), 2 * bytes);
            EXPECT_EQ(tb.server().ssd().bytesWritten(), 2 * bytes);
            EXPECT_EQ(tb.server().ssd().bytesRead(), 2 * bytes);
        }
        for (bool staged : {true, false}) {
            for (bool lease : {true, false}) {
                SCOPED_TRACE(testing::Message()
                             << (staged ? "staged" : "unstaged")
                             << (lease ? " peer" : " dram"));
                exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
                core::AquaLibConfig cfg;
                cfg.useStaging = staged;
                core::AquaLib &lib = tb.makeAquaLib(0, nullptr, cfg);
                tb.assign(0, 1);
                if (lease)
                    tb.coordinator().lease(1, 10 * gb);
                auto id = lib.allocateTensor(bytes);
                lib.writeTensor(*id, bytes, n);
                lib.readTensor(*id, bytes, n);
                const hw::Topology &topo = tb.server().topology();
                EXPECT_EQ(lease ? topo.peerBytesMoved()
                                : topo.hostBytesMoved(),
                          2 * bytes);
            }
        }
    }
}
