/**
 * @file
 * Reusable experiment testbeds mirroring the paper's hardware (§6):
 * a 2-GPU A100 server with direct NVLinks and an 8-GPU A100 server
 * with NVSwitch connectivity, both with 1 TB of host DRAM, plus the
 * per-server AQUA control plane (coordinator + REST service) and
 * factories for AquaLib instances and offload backends.
 */

#ifndef AQUA_EXP_TESTBED_HH
#define AQUA_EXP_TESTBED_HH

#include <memory>
#include <vector>

#include "aqua/aqua_lib.hh"
#include "aqua/coordinator.hh"
#include "aqua/informer.hh"
#include "aqua/rest.hh"
#include "cluster/prefix_registry.hh"
#include "federation/directory.hh"
#include "hw/fabric.hh"
#include "hw/server.hh"
#include "recovery/recovery_manager.hh"
#include "recovery/state_journal.hh"
#include "serve/offload_backend.hh"
#include "sim/simulation.hh"
#include "tier/ssd_backend.hh"
#include "workload/request.hh"

namespace aqua::exp {

class MultiServerCluster;

/**
 * One simulated server with its AQUA control plane.
 */
class Testbed
{
  public:
    /**
     * @param numGpus GPU count (2 or 8 in the paper).
     * @param kind DirectP2P for the 2-GPU server, NvSwitch for 8.
     * @param seed Simulation seed.
     */
    Testbed(std::size_t numGpus, hw::TopologyKind kind,
            std::uint64_t seed = 1);

    /**
     * Join an externally owned simulation instead of creating one:
     * multiple servers on one clock, as MultiServerCluster builds.
     */
    Testbed(aqua::sim::Simulation &sharedSim, std::size_t numGpus,
            hw::TopologyKind kind);

    /**
     * Build a cluster of @p nServers identical servers on one shared
     * simulation, connected by an inter-server hw::Fabric. Call
     * makeFederation() on the result to stand up the prefix
     * federation control plane.
     */
    static std::unique_ptr<MultiServerCluster>
    makeMultiServerCluster(std::size_t nServers,
                           std::size_t gpusPerServer,
                           std::uint64_t seed = 1);

    aqua::sim::Simulation &sim() { return *simRef; }
    hw::Server &server() { return *srv; }
    core::Coordinator &coordinator() { return coord; }
    core::CoordinatorRestService &rest() { return *restService; }

    /**
     * Create (and own) an AquaLib instance for a GPU.
     *
     * @param gpu The GPU.
     * @param informer Producer policy; nullptr for consumers.
     * @param config Library tunables.
     */
    core::AquaLib &
    makeAquaLib(hw::GpuId gpu,
                std::unique_ptr<core::Informer> informer = nullptr,
                core::AquaLibConfig config = {});

    /** Create (and own) a DRAM offload backend for a GPU. */
    serve::DramBackend &
    makeDramBackend(hw::GpuId gpu,
                    serve::DramBackendConfig config = {});

    /** Create (and own) an AQUA offload backend over a library. */
    serve::AquaBackend &makeAquaBackend(core::AquaLib &lib);

    /** Create (and own) an SSD offload backend for a GPU. */
    tier::SsdBackend &
    makeSsdBackend(hw::GpuId gpu, tier::SsdBackendConfig config = {});

    /** Statically pair a consumer GPU with a producer GPU. */
    void assign(hw::GpuId consumer, hw::GpuId producer);

    /**
     * Create (and own) the domain's cluster prefix registry, bind its
     * five prefix routes on the coordinator REST router and wire
     * its liveness oracle to the server topology. Idempotent: repeat
     * calls return the same instance.
     */
    cluster::PrefixRegistry &makePrefixRegistry();

    /**
     * Create (and own) the crash-recovery stack: one StateJournal for
     * the coordinator (and one for the prefix registry when
     * makePrefixRegistry() was called first) plus the RecoveryManager
     * that replays them after a coordinator_crash fault. Every
     * AquaLib created so far — and any created later this call is
     * repeated after — is registered as a resync survivor on the
     * first call. Idempotent: repeat calls return the same instance
     * (and register any libs created since).
     */
    recovery::RecoveryManager &makeRecovery();

    /** The coordinator's journal once makeRecovery() ran; else null.
     *  Benches compact it to model a flushed steady-state checkpoint. */
    recovery::StateJournal *coordinatorJournal()
    {
        return coordJournal.get();
    }

    /** The prefix registry's journal once makeRecovery() attached it
     *  (makePrefixRegistry() first); else null. */
    recovery::StateJournal *prefixRegistryJournal()
    {
        return registryJournal.get();
    }

  private:
    /** Owned when the single-server ctor ran; null on a shared sim. */
    std::unique_ptr<aqua::sim::Simulation> simulation;
    /** The clock in use, owned or shared. */
    aqua::sim::Simulation *simRef = nullptr;
    std::unique_ptr<hw::Server> srv;
    core::Coordinator coord;
    std::unique_ptr<core::CoordinatorRestService> restService;
    std::unique_ptr<cluster::PrefixRegistry> registry;
    std::vector<std::unique_ptr<core::AquaLib>> libs;
    std::vector<std::unique_ptr<serve::OffloadBackend>> backends;
    std::unique_ptr<recovery::StateJournal> coordJournal;
    std::unique_ptr<recovery::StateJournal> registryJournal;
    std::unique_ptr<recovery::RecoveryManager> recoveryMgr;
    /** Libs already registered as resync survivors. */
    std::size_t survivorsRegistered = 0;
};

/**
 * A cluster of Testbed servers on one shared simulation clock,
 * connected by an inter-server hw::Fabric. makeFederation() stands up
 * the cross-server prefix federation control plane: one directory per
 * server observing that server's prefix registry, gossip peering
 * between every pair, and the /federation routes bound on every
 * coordinator router so peer faults (outage, coordinator_crash)
 * apply to federation traffic too.
 */
class MultiServerCluster
{
  public:
    MultiServerCluster(std::size_t nServers, std::size_t gpusPerServer,
                       std::uint64_t seed = 1);

    MultiServerCluster(const MultiServerCluster &) = delete;
    MultiServerCluster &operator=(const MultiServerCluster &) = delete;

    aqua::sim::Simulation &sim() { return *simulation; }
    std::size_t size() const { return servers.size(); }
    Testbed &server(std::size_t i) { return *servers.at(i); }
    hw::Fabric &fabric() { return *wire; }

    /**
     * Stand up per-server prefix registries (makePrefixRegistry) and
     * federation directories, peer every pair both ways and bind the
     * /federation routes on each coordinator router. @p base supplies
     * shared tunables; serverId is overwritten per server. Idempotent.
     */
    void makeFederation(federation::DirectoryConfig base = {});

    /** Server @p i's directory; panics before makeFederation(). */
    federation::FederationDirectory &directory(std::size_t i);

    /** Arm every directory's periodic anti-entropy until @p until. */
    void startAntiEntropy(aqua::sim::Tick until);

  private:
    std::unique_ptr<aqua::sim::Simulation> simulation;
    std::vector<std::unique_ptr<Testbed>> servers;
    std::unique_ptr<hw::Fabric> wire;
    std::vector<std::unique_ptr<federation::FederationDirectory>>
        directories;
};

/**
 * Schedule a trace of requests into any engine exposing submit().
 */
template <typename Engine>
void
driveTrace(aqua::sim::Simulation &sim, Engine &engine,
           const std::vector<workload::Request> &trace)
{
    for (const workload::Request &r : trace) {
        sim.queue().schedule(r.arrival, [&engine, r] {
            engine.submit(r);
        });
    }
}

} // namespace aqua::exp

#endif // AQUA_EXP_TESTBED_HH
