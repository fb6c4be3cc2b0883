/**
 * @file
 * Inter-server fabric model for scale-out transfers.
 *
 * Topology routes data *within* one scale-up domain (NVLink/NVSwitch +
 * PCIe); the Fabric is the slower wire *between* servers — an
 * Ethernet/InfiniBand leaf-spine abstraction carrying federation KV
 * streams. It reuses the size-aware Link bandwidth ramp (small
 * transfers land far below peak, exactly as on NVLink, only with a
 * much larger ramp size) and adds the two effects that distinguish a
 * shared datacenter network from a point-to-point link:
 *
 *  - Per-server NIC ports: each server has one egress and one ingress
 *    port modelled as busy-until resources; concurrent flows touching
 *    the same server serialize, so a popular home server is a
 *    bottleneck even when the spine is idle.
 *  - Spine oversubscription: the core carries only
 *    numServers / oversubscription concurrent flows at full rate
 *    (min 1); extra flows queue on the earliest-free spine way. An
 *    oversubscription of 1 is a non-blocking fabric.
 *
 * A federated KV stream is a three-hop chain wired through each
 * server's Topology routing: home GPU → host DRAM over the source
 * server's PCIe, NIC → NIC over the wire, host DRAM → consumer GPU
 * over the destination server's PCIe. Each hop starts when the
 * previous one lands, so intra-server port contention and fabric
 * queueing compose.
 */

#ifndef AQUA_HW_FABRIC_HH
#define AQUA_HW_FABRIC_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/gpu.hh"
#include "hw/link.hh"
#include "hw/topology.hh"
#include "sim/simulation.hh"

namespace aqua::hw {

/** Counters exposed for benches and tests. */
struct FabricStats
{
    std::uint64_t transfers = 0;
    std::uint64_t bytesMoved = 0;
    /** Ticks transfers spent queued behind NIC ports or spine ways. */
    std::uint64_t queueTicks = 0;
};

/**
 * The inter-server wire. One instance per cluster.
 */
class Fabric
{
  public:
    /**
     * @param sim Shared simulation (one clock across all servers).
     * @param numServers Servers on the fabric.
     */
    Fabric(aqua::sim::Simulation &sim, std::size_t numServers);

    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    std::size_t numServers() const { return nics.size(); }
    const Link &wireLink() const { return wire; }
    const FabricStats &stats() const { return counters; }

    /**
     * Register a server's intra-server topology so streamKv() can
     * chain its PCIe hops. Must be called for every server before
     * streaming to or from it.
     */
    void attachServer(std::size_t server, Topology &topology);

    /** The registered topology of @p server (panics when missing). */
    Topology &serverTopology(std::size_t server) const;

    /**
     * Fault surface: scale the wire's effective bandwidth by
     * @p factor in (0, 1]. 1.0 restores the healthy fabric.
     */
    void setDegradation(double factor);

    /** Current wire degradation factor (1.0 when healthy). */
    double degradation() const { return wire.degradation(); }

    /**
     * Issue a wire-only transfer between two servers' NICs. Reserves
     * the source egress port, a spine way and the destination ingress
     * port for the wire duration.
     *
     * @param cb Invoked at completion (may be empty).
     * @param earliest Do not start before this tick; 0 = now.
     */
    TransferTiming transfer(std::size_t srcServer,
                            std::size_t dstServer, std::uint64_t bytes,
                            TransferCallback cb = {},
                            aqua::sim::Tick earliest = 0);

    /**
     * Issue a full federated KV stream: home GPU → host DRAM on the
     * source server, the wire hop, host DRAM → consumer GPU on the
     * destination server. Each hop chains on the previous one.
     * Both endpoints' topologies must be attached; a failed source
     * GPU panics (check before issuing, as Topology::copy does).
     */
    TransferTiming streamKv(std::size_t srcServer, GpuId srcGpu,
                            std::size_t dstServer, GpuId dstGpu,
                            std::uint64_t bytes,
                            TransferCallback cb = {},
                            aqua::sim::Tick earliest = 0);

    /**
     * Pure timing estimate of streamKv() for the cost model: PCIe-out
     * + wire + PCIe-in durations at current degradation, plus the
     * current queueing backlog on the path's NIC ports and the
     * emptiest spine way. No state is mutated.
     */
    aqua::sim::Tick streamEstimate(std::size_t srcServer,
                                   std::size_t dstServer,
                                   std::uint64_t bytes) const;

    /** Current backlog (ticks until free) on the path's NIC ports and
     *  the emptiest spine way; the congestion term of the estimate. */
    aqua::sim::Tick queueBacklog(std::size_t srcServer,
                                 std::size_t dstServer) const;

  private:
    struct Nic
    {
        std::unique_ptr<Resource> tx;
        std::unique_ptr<Resource> rx;
    };

    aqua::sim::Simulation &sim;
    Link wire;
    std::vector<Nic> nics;
    /** Spine ways; a transfer grabs the earliest-free one. */
    std::vector<std::unique_ptr<Resource>> spine;
    std::vector<Topology *> topologies;
    FabricStats counters;
};

} // namespace aqua::hw

#endif // AQUA_HW_FABRIC_HH
