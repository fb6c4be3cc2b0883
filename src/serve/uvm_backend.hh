/**
 * @file
 * UVM-style offload backend: CUDA unified virtual memory as the
 * paper's related work discusses (§9) — oversubscribed memory lives
 * in host DRAM and migrates on GPU page faults.
 *
 * Modelled costs: data still crosses PCIe, but in page-granular
 * chunks, and every fault wavefront pays the GPU fault-handling
 * latency. Prefetching amortizes faults over @p prefetchDegree pages
 * for the sequential accesses inference makes. This gives the
 * quantitative backdrop for why AQUA uses explicit large transfers
 * rather than fault-driven paging.
 */

#ifndef AQUA_SERVE_UVM_BACKEND_HH
#define AQUA_SERVE_UVM_BACKEND_HH

#include <cstdint>
#include <map>

#include "serve/offload_backend.hh"

namespace aqua::serve {

/** UVM model parameters. */
struct UvmBackendConfig
{
    /** Migration granularity (UVM uses up to 2 MiB "big pages"). */
    std::uint64_t pageBytes = std::uint64_t(2) << 20;
    /** Pages migrated per fault wavefront (driver prefetching). */
    std::uint32_t prefetchDegree = 8;
    /**
     * Batch the prefetched pages of each wavefront into coalesced
     * staging-engine DMAs instead of per-page PCIe copies (models a
     * driver that merges contiguous migrations). Fault latency per
     * wavefront still applies.
     */
    bool coalescePrefetch = false;
};

/**
 * Fault-driven host-DRAM offloading.
 */
class UvmBackend : public OffloadBackend
{
  public:
    UvmBackend(hw::Server &server, hw::GpuId gpu,
               UvmBackendConfig config = {});
    ~UvmBackend() override;

    std::optional<Handle> alloc(std::uint64_t bytes) override;
    void free(const Handle &handle) override;
    hw::TransferTiming write(const Handle &handle, std::uint64_t bytes,
                             std::uint64_t nChunks,
                             aqua::sim::Tick earliest = 0) override;
    hw::TransferTiming read(const Handle &handle, std::uint64_t bytes,
                            std::uint64_t nChunks,
                            aqua::sim::Tick earliest = 0) override;
    aqua::sim::Tick respond() override;
    bool staged() const override { return cfg.coalescePrefetch; }
    std::string name() const override { return "uvm"; }

    /** Total page faults taken so far. */
    std::uint64_t faultCount() const { return faults; }

    /** Staging-engine accounting (all zero when coalescing is off). */
    const core::StagingTransferStats &stagingStats() const
    {
        return engine.stats();
    }

  private:
    hw::TransferTiming paged(const Handle &handle, std::uint64_t bytes,
                             bool toGpu, aqua::sim::Tick earliest);

    hw::Server &server;
    hw::GpuId gpu;
    UvmBackendConfig cfg;
    core::StagingEngine engine;
    std::uint64_t nextId = 1;
    std::map<std::uint64_t, aqua::mem::Region> regions;
    std::uint64_t faults = 0;
};

} // namespace aqua::serve

#endif // AQUA_SERVE_UVM_BACKEND_HH
