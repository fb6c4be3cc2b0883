#include "serve/uvm_backend.hh"

#include "sim/logging.hh"

namespace aqua::serve {

using namespace aqua::sim;

/** GPU-side fault handling latency per fault wavefront. */
constexpr Tick faultLatency = 25 * nsPerUs;

UvmBackend::UvmBackend(hw::Server &server, hw::GpuId gpu,
                       UvmBackendConfig config)
    : server(server), gpu(gpu), cfg(config),
      engine(server, gpu)
{
    if (cfg.pageBytes == 0 || cfg.prefetchDegree == 0)
        panic("UvmBackend: page size and prefetch degree must be "
              "positive");
}

UvmBackend::~UvmBackend()
{
    for (auto &[id, region] : regions)
        server.dram().allocator().free(region);
}

std::optional<OffloadBackend::Handle>
UvmBackend::alloc(std::uint64_t bytes)
{
    auto region = server.dram().allocator().allocate(bytes);
    if (!region)
        return std::nullopt;
    Handle h;
    h.id = nextId++;
    h.bytes = bytes;
    regions[h.id] = *region;
    return h;
}

void
UvmBackend::free(const Handle &handle)
{
    auto it = regions.find(handle.id);
    if (it == regions.end())
        panic("UvmBackend::free: unknown handle %llu",
              static_cast<unsigned long long>(handle.id));
    server.dram().allocator().free(it->second);
    regions.erase(it);
}

hw::TransferTiming
UvmBackend::paged(const Handle &handle, std::uint64_t bytes,
                  bool toGpu, Tick earliest)
{
    if (bytes > handle.bytes)
        panic("UvmBackend: access beyond handle size");
    std::uint64_t pages =
        (bytes + cfg.pageBytes - 1) / cfg.pageBytes;
    if (pages == 0)
        pages = 1;
    std::uint64_t wavefronts =
        (pages + cfg.prefetchDegree - 1) / cfg.prefetchDegree;
    faults += wavefronts;

    // Pages cross PCIe individually (or coalesced through the staging
    // engine); fault handling stalls the accessing kernel once per
    // wavefront on top of the transfer.
    hw::TransferTiming t;
    if (cfg.coalescePrefetch) {
        auto descs = core::StagingEngine::uniformChunks(
            pages * cfg.pageBytes, pages);
        t = toGpu ? engine.transferIn(hw::hostDramId, descs, earliest)
                  : engine.transferOut(hw::hostDramId, descs,
                                       earliest);
    } else if (toGpu) {
        t = server.topology().copyChunked(hw::hostDramId, gpu,
                                          cfg.pageBytes, pages, {},
                                          earliest);
    } else {
        t = server.topology().copyChunked(gpu, hw::hostDramId,
                                          cfg.pageBytes, pages, {},
                                          earliest);
    }
    t.complete += wavefronts * faultLatency;
    return t;
}

hw::TransferTiming
UvmBackend::write(const Handle &handle, std::uint64_t bytes,
                  std::uint64_t nChunks, Tick earliest)
{
    (void)nChunks; // UVM pages regardless of the logical layout
    return paged(handle, bytes, /*toGpu=*/false, earliest);
}

hw::TransferTiming
UvmBackend::read(const Handle &handle, std::uint64_t bytes,
                 std::uint64_t nChunks, Tick earliest)
{
    (void)nChunks;
    return paged(handle, bytes, /*toGpu=*/true, earliest);
}

Tick
UvmBackend::respond()
{
    return server.simulation().now();
}

} // namespace aqua::serve
