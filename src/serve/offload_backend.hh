/**
 * @file
 * Offload backends: where a serving engine parks inference context
 * that does not fit in local HBM.
 *
 * DramBackend is the state of the art the paper starts from (vLLM /
 * FlexGen offloading to host DRAM over PCIe); AquaBackend routes the
 * same operations through AQUA-LIB, which places tensors on a peer
 * GPU's leased HBM when possible and falls back to DRAM otherwise.
 */

#ifndef AQUA_SERVE_OFFLOAD_BACKEND_HH
#define AQUA_SERVE_OFFLOAD_BACKEND_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "aqua/aqua_lib.hh"
#include "hw/server.hh"
#include "sim/ticks.hh"

namespace aqua::serve {

/**
 * Abstract backing store for offloaded context.
 *
 * All data movement is between the engine's GPU and the store; the
 * timings returned tell the engine when the bytes have landed.
 */
class OffloadBackend
{
  public:
    /** Opaque reference to stored bytes. */
    struct Handle
    {
        std::uint64_t id = 0;
        std::uint64_t bytes = 0;

        bool valid() const { return id != 0; }
    };

    virtual ~OffloadBackend() = default;

    /** Reserve @p bytes in the store. nullopt when exhausted. */
    virtual std::optional<Handle> alloc(std::uint64_t bytes) = 0;

    /** Release a reservation. */
    virtual void free(const Handle &handle) = 0;

    /**
     * Move @p bytes (scattered over @p nChunks pieces on the GPU)
     * into the store.
     *
     * @param earliest Data is available no sooner than this tick (a
     *                 compute producing it is still running); 0 = now.
     */
    virtual hw::TransferTiming write(const Handle &handle,
                                     std::uint64_t bytes,
                                     std::uint64_t nChunks,
                                     aqua::sim::Tick earliest = 0) = 0;

    /** Move @p bytes from the store back onto the GPU. */
    virtual hw::TransferTiming read(const Handle &handle,
                                    std::uint64_t bytes,
                                    std::uint64_t nChunks,
                                    aqua::sim::Tick earliest = 0) = 0;

    /**
     * Iteration-boundary hook (aqua.respond()); lets migrations
     * settle. @return Tick until which the engine is blocked.
     */
    virtual aqua::sim::Tick respond() = 0;

    /**
     * Whether loads/stores internally coalesce scattered chunks into
     * large transfers (AQUA's gather/scatter kernels). Engines use
     * this to decide if per-chunk software overheads apply.
     */
    virtual bool staged() const = 0;

    /**
     * When the store last executed a reclaim-driven evacuation
     * (tensors pushed off a donor lease toward DRAM); 0 = never.
     * Engines treat a recent evacuation as offload-path pressure
     * (brownout circuit breaker). DRAM stores never evacuate.
     */
    virtual aqua::sim::Tick lastEvacuationAt() const { return 0; }

    /** Diagnostic backend name. */
    virtual std::string name() const = 0;
};

/** DRAM-backend tunables. */
struct DramBackendConfig
{
    /**
     * Route scattered (nChunks > 1) accesses through the staging
     * engine: chunks coalesce into pinned-staging-buffer transfers
     * instead of per-chunk PCIe copies. Off by default — the paper's
     * baseline pays the per-chunk cost.
     */
    bool useStaging = false;
};

/**
 * Host-DRAM offloading over PCIe — the baseline (§2.2).
 */
class DramBackend : public OffloadBackend
{
  public:
    /**
     * @param server Owning server (DRAM + topology).
     * @param gpu The engine's GPU.
     * @param config Tunables.
     */
    DramBackend(hw::Server &server, hw::GpuId gpu,
                DramBackendConfig config = {});
    ~DramBackend() override;

    std::optional<Handle> alloc(std::uint64_t bytes) override;
    void free(const Handle &handle) override;
    hw::TransferTiming write(const Handle &handle, std::uint64_t bytes,
                             std::uint64_t nChunks,
                             aqua::sim::Tick earliest = 0) override;
    hw::TransferTiming read(const Handle &handle, std::uint64_t bytes,
                            std::uint64_t nChunks,
                            aqua::sim::Tick earliest = 0) override;
    aqua::sim::Tick respond() override;
    bool staged() const override { return cfg.useStaging; }
    std::string name() const override { return "dram"; }

    /** Staging-engine accounting (all zero when staging is off). */
    const core::StagingTransferStats &stagingStats() const
    {
        return engine.stats();
    }

  private:
    hw::Server &server;
    hw::GpuId gpu;
    DramBackendConfig cfg;
    core::StagingEngine engine;
    std::uint64_t nextId = 1;
    std::map<std::uint64_t, aqua::mem::Region> regions;
};

/**
 * AQUA TENSOR offloading through AQUA-LIB (§3).
 */
class AquaBackend : public OffloadBackend
{
  public:
    explicit AquaBackend(core::AquaLib &lib) : lib(lib) {}

    std::optional<Handle> alloc(std::uint64_t bytes) override;
    void free(const Handle &handle) override;
    hw::TransferTiming write(const Handle &handle, std::uint64_t bytes,
                             std::uint64_t nChunks,
                             aqua::sim::Tick earliest = 0) override;
    hw::TransferTiming read(const Handle &handle, std::uint64_t bytes,
                            std::uint64_t nChunks,
                            aqua::sim::Tick earliest = 0) override;
    aqua::sim::Tick respond() override;
    bool staged() const override { return lib.config().useStaging; }
    aqua::sim::Tick lastEvacuationAt() const override
    {
        return lib.lastEvacuationAt();
    }
    std::string name() const override { return "aqua"; }

    core::AquaLib &aquaLib() { return lib; }

  private:
    core::AquaLib &lib;
};

} // namespace aqua::serve

#endif // AQUA_SERVE_OFFLOAD_BACKEND_HH
