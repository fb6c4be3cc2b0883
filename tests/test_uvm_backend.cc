/**
 * @file
 * Backend-specific tests for the UVM-style fault-driven offload
 * backend (§9 related work: CUDA unified virtual memory). The shared
 * interface contract lives in test_offload_conformance.cc.
 */

#include <gtest/gtest.h>

#include "exp/testbed.hh"
#include "serve/uvm_backend.hh"

using namespace aqua;
using namespace aqua::sim;
using namespace aqua::serve;

TEST(UvmBackend, AllocatesFromHostDram)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    UvmBackend uvm(tb.server(), 0);
    std::uint64_t before = tb.server().dram().freeBytes();
    auto handle = uvm.alloc(std::uint64_t(1) << 30);
    ASSERT_TRUE(handle);
    EXPECT_EQ(before - tb.server().dram().freeBytes(),
              std::uint64_t(1) << 30);
    uvm.free(*handle);
    EXPECT_EQ(tb.server().dram().freeBytes(), before);
}

TEST(UvmBackend, CountsFaultWavefronts)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    UvmBackend uvm(tb.server(), 0);
    ASSERT_EQ(uvmPageBytes, 2 * mib);
    ASSERT_EQ(uvmPrefetchDegree, 8u);
    auto handle = uvm.alloc(64 * mib);
    uvm.read(*handle, 64 * mib, 1); // 32 pages, 4 wavefronts
    EXPECT_EQ(uvm.faultCount(), 4u);
    uvm.write(*handle, 2 * mib, 1); // 1 page, 1 wavefront
    EXPECT_EQ(uvm.faultCount(), 5u);
    uvm.free(*handle);
}

TEST(UvmBackend, SlowerThanExplicitDramCopy)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    UvmBackend uvm(tb.server(), 0);
    DramBackend &dram = tb.makeDramBackend(0);
    std::uint64_t bytes = std::uint64_t(1) << 30;
    auto hu = uvm.alloc(bytes);
    auto hd = dram.alloc(bytes);
    hw::TransferTiming tu = uvm.read(*hu, bytes, 1);
    hw::TransferTiming td = dram.read(*hd, bytes, 1);
    // Page-granular chunking plus fault stalls cost extra.
    EXPECT_GT(tu.complete - tu.start, td.complete - td.start);
    uvm.free(*hu);
    dram.free(*hd);
}

TEST(UvmBackend, MiscContracts)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    UvmBackend uvm(tb.server(), 0);
    EXPECT_FALSE(uvm.staged());
    EXPECT_EQ(uvm.name(), "uvm");
    EXPECT_EQ(uvm.respond(), tb.sim().now());
}
