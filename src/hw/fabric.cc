#include "hw/fabric.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace aqua::hw {

using aqua::sim::Tick;
using aqua::sim::panic;

/** Per-NIC peak bandwidth, bytes/second (~400 Gb/s). */
constexpr double nicBandwidth = 50.0e9;
/**
 * Transfer size reaching half the NIC peak. Much larger than the
 * NVLink ramp: RDMA setup and congestion control make small messages
 * proportionally slower on the wire.
 */
constexpr std::uint64_t rampBytes = 32ull << 20;
/** Fixed per-transfer wire latency (propagation + switching). */
constexpr Tick wireLatency = 20 * aqua::sim::nsPerUs;
/**
 * Leaf-spine oversubscription: the core admits only
 * numServers / oversubscription concurrent full-rate flows (min 1).
 * 1.0 = non-blocking.
 */
constexpr double oversubscription = 4.0;
static_assert(oversubscription >= 1.0);

Fabric::Fabric(aqua::sim::Simulation &sim, std::size_t numServers)
    : sim(sim), wire("fabric", nicBandwidth, rampBytes, wireLatency)
{
    if (numServers < 2)
        panic("Fabric: need at least 2 servers, got %zu", numServers);
    for (std::size_t s = 0; s < numServers; ++s) {
        Nic nic;
        nic.tx = std::make_unique<Resource>(
            "fabric.nic" + std::to_string(s) + ".tx");
        nic.rx = std::make_unique<Resource>(
            "fabric.nic" + std::to_string(s) + ".rx");
        nics.push_back(std::move(nic));
    }
    std::size_t ways = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(numServers) /
                                    oversubscription));
    for (std::size_t w = 0; w < ways; ++w) {
        spine.push_back(std::make_unique<Resource>(
            "fabric.spine" + std::to_string(w)));
    }
    topologies.assign(numServers, nullptr);
}

void
Fabric::attachServer(std::size_t server, Topology &topology)
{
    if (server >= topologies.size())
        panic("Fabric: server %zu out of range", server);
    topologies[server] = &topology;
}

Topology &
Fabric::serverTopology(std::size_t server) const
{
    if (server >= topologies.size() || topologies[server] == nullptr)
        panic("Fabric: server %zu has no attached topology", server);
    return *topologies[server];
}

void
Fabric::setDegradation(double factor)
{
    wire.setDegradation(factor);
}

TransferTiming
Fabric::transfer(std::size_t srcServer, std::size_t dstServer,
                 std::uint64_t bytes, TransferCallback cb,
                 Tick earliest)
{
    if (srcServer == dstServer)
        panic("Fabric: transfer within server %zu", srcServer);
    if (srcServer >= nics.size() || dstServer >= nics.size())
        panic("Fabric: server out of range (%zu -> %zu)", srcServer,
              dstServer);
    Tick now = sim.now();
    if (earliest < now)
        earliest = now;

    // The flow needs its NIC ports and one spine way together: start
    // when all three are free, grabbing the emptiest spine way.
    Resource &tx = *nics[srcServer].tx;
    Resource &rx = *nics[dstServer].rx;
    Resource *way = spine[0].get();
    for (auto &w : spine) {
        if (w->freeAt() < way->freeAt())
            way = w.get();
    }
    Tick start = std::max(
        {earliest, tx.freeAt(), rx.freeAt(), way->freeAt()});
    Tick duration = wire.transferTime(bytes);
    tx.occupy(start, duration);
    rx.occupy(start, duration);
    way->occupy(start, duration);

    TransferTiming t{start, start + duration};
    ++counters.transfers;
    counters.bytesMoved += bytes;
    counters.queueTicks += start - earliest;
    if (cb)
        sim.queue().schedule(t.complete, std::move(cb));
    return t;
}

TransferTiming
Fabric::streamKv(std::size_t srcServer, GpuId srcGpu,
                 std::size_t dstServer, GpuId dstGpu,
                 std::uint64_t bytes, TransferCallback cb,
                 Tick earliest)
{
    Topology &src = serverTopology(srcServer);
    Topology &dst = serverTopology(dstServer);
    TransferTiming out =
        src.copy(srcGpu, hostDramId, bytes, {}, earliest);
    TransferTiming hop =
        transfer(srcServer, dstServer, bytes, {}, out.complete);
    TransferTiming in =
        dst.copy(hostDramId, dstGpu, bytes, std::move(cb),
                 hop.complete);
    return {out.start, in.complete};
}

Tick
Fabric::queueBacklog(std::size_t srcServer,
                     std::size_t dstServer) const
{
    if (srcServer >= nics.size() || dstServer >= nics.size())
        panic("Fabric: server out of range (%zu -> %zu)", srcServer,
              dstServer);
    Tick now = sim.now();
    Tick wayFree = spine[0]->freeAt();
    for (const auto &w : spine)
        wayFree = std::min(wayFree, w->freeAt());
    Tick free = std::max({nics[srcServer].tx->freeAt(),
                          nics[dstServer].rx->freeAt(), wayFree});
    return free > now ? free - now : 0;
}

Tick
Fabric::streamEstimate(std::size_t srcServer, std::size_t dstServer,
                       std::uint64_t bytes) const
{
    const Topology &src = serverTopology(srcServer);
    const Topology &dst = serverTopology(dstServer);
    return src.hostTransferDuration(bytes) + wire.transferTime(bytes) +
           dst.hostTransferDuration(bytes) +
           queueBacklog(srcServer, dstServer);
}

} // namespace aqua::hw
