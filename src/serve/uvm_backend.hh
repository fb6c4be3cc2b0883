/**
 * @file
 * UVM-style offload backend: CUDA unified virtual memory as the
 * paper's related work discusses (§9) — oversubscribed memory lives
 * in host DRAM and migrates on GPU page faults.
 *
 * Modelled costs: data still crosses PCIe, but in page-granular
 * chunks, and every fault wavefront pays the GPU fault-handling
 * latency. Prefetching amortizes faults over uvmPrefetchDegree pages
 * for the sequential accesses inference makes. This gives the
 * quantitative backdrop for why AQUA uses explicit large transfers
 * rather than fault-driven paging.
 */

#ifndef AQUA_SERVE_UVM_BACKEND_HH
#define AQUA_SERVE_UVM_BACKEND_HH

#include <cstdint>

#include "serve/offload_backend.hh"

namespace aqua::serve {

/** Migration granularity (UVM uses up to 2 MiB "big pages"). */
inline constexpr std::uint64_t uvmPageBytes = std::uint64_t(2) << 20;

/** Pages migrated per fault wavefront (driver prefetching). */
inline constexpr std::uint64_t uvmPrefetchDegree = 8;

/**
 * Fault-driven host-DRAM offloading. Storage is DramBackend's (host
 * DRAM regions); only the data movement differs.
 */
class UvmBackend : public DramBackend
{
  public:
    using DramBackend::DramBackend;

    hw::TransferTiming write(const Handle &handle, std::uint64_t bytes,
                             std::uint64_t nChunks,
                             aqua::sim::Tick earliest = 0) override;
    hw::TransferTiming read(const Handle &handle, std::uint64_t bytes,
                            std::uint64_t nChunks,
                            aqua::sim::Tick earliest = 0) override;
    std::string name() const override { return "uvm"; }

    /** Total page faults taken so far. */
    std::uint64_t faultCount() const { return faults; }

  private:
    hw::TransferTiming paged(const Handle &handle, std::uint64_t bytes,
                             bool toGpu, aqua::sim::Tick earliest);

    std::uint64_t faults = 0;
};

} // namespace aqua::serve

#endif // AQUA_SERVE_UVM_BACKEND_HH
