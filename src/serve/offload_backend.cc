#include "serve/offload_backend.hh"

#include "sim/logging.hh"

namespace aqua::serve {

using namespace aqua::sim;

DramBackend::DramBackend(hw::Server &server, hw::GpuId gpu,
                         DramBackendConfig config)
    : server(server), gpu(gpu), cfg(config),
      engine(server, gpu)
{
}

DramBackend::~DramBackend()
{
    for (auto &[id, region] : regions)
        server.dram().allocator().free(region);
}

std::optional<OffloadBackend::Handle>
DramBackend::alloc(std::uint64_t bytes)
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
DramBackend::free(const Handle &handle)
{
    auto it = regions.find(handle.id);
    if (it == regions.end())
        panic("DramBackend::free: unknown handle %llu",
              static_cast<unsigned long long>(handle.id));
    server.dram().allocator().free(it->second);
    regions.erase(it);
}

hw::TransferTiming
DramBackend::write(const Handle &handle, std::uint64_t bytes,
                   std::uint64_t nChunks, Tick earliest)
{
    if (bytes > handle.bytes)
        panic("DramBackend::write beyond handle size");
    if (nChunks <= 1)
        return server.topology().copy(gpu, hw::hostDramId, bytes, {},
                                      earliest);
    if (cfg.useStaging) {
        // Coalesce the scattered chunks through the pinned staging
        // buffer instead of paying the per-chunk PCIe cost.
        return engine.transferOut(
            hw::hostDramId,
            core::StagingEngine::uniformChunks(bytes, nChunks),
            earliest);
    }
    std::uint64_t chunk = bytes / nChunks;
    if (chunk == 0)
        chunk = 1;
    return server.topology().copyChunked(gpu, hw::hostDramId, chunk,
                                         nChunks, {}, earliest);
}

hw::TransferTiming
DramBackend::read(const Handle &handle, std::uint64_t bytes,
                  std::uint64_t nChunks, Tick earliest)
{
    if (bytes > handle.bytes)
        panic("DramBackend::read beyond handle size");
    if (nChunks <= 1)
        return server.topology().copy(hw::hostDramId, gpu, bytes, {},
                                      earliest);
    if (cfg.useStaging) {
        return engine.transferIn(
            hw::hostDramId,
            core::StagingEngine::uniformChunks(bytes, nChunks),
            earliest);
    }
    std::uint64_t chunk = bytes / nChunks;
    if (chunk == 0)
        chunk = 1;
    return server.topology().copyChunked(hw::hostDramId, gpu, chunk,
                                         nChunks, {}, earliest);
}

Tick
DramBackend::respond()
{
    // Nothing migrates in the DRAM baseline.
    return server.simulation().now();
}

std::optional<OffloadBackend::Handle>
AquaBackend::alloc(std::uint64_t bytes)
{
    auto id = lib.allocateTensor(bytes);
    if (!id)
        return std::nullopt;
    Handle h;
    h.id = *id;
    h.bytes = bytes;
    return h;
}

void
AquaBackend::free(const Handle &handle)
{
    lib.freeTensor(handle.id);
}

hw::TransferTiming
AquaBackend::write(const Handle &handle, std::uint64_t bytes,
                   std::uint64_t nChunks, Tick earliest)
{
    if (bytes > handle.bytes)
        panic("AquaBackend::write beyond handle size");
    return lib.writeTensor(handle.id, bytes, nChunks, earliest);
}

hw::TransferTiming
AquaBackend::read(const Handle &handle, std::uint64_t bytes,
                  std::uint64_t nChunks, Tick earliest)
{
    if (bytes > handle.bytes)
        panic("AquaBackend::read beyond handle size");
    return lib.readTensor(handle.id, bytes, nChunks, earliest);
}

Tick
AquaBackend::respond()
{
    return lib.respond();
}

} // namespace aqua::serve
