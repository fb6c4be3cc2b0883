#include "tier/ssd_backend.hh"

#include "sim/logging.hh"

namespace aqua::tier {

using namespace aqua::sim;

SsdBackend::SsdBackend(hw::Server &server, hw::GpuId gpu,
                       SsdBackendConfig config)
    : server(server), gpu(gpu), cfg(config),
      engine(server, gpu)
{
}

SsdBackend::~SsdBackend()
{
    for (auto &[id, region] : regions)
        server.ssd().allocator().free(region);
}

std::optional<serve::OffloadBackend::Handle>
SsdBackend::alloc(std::uint64_t bytes)
{
    auto region = server.ssd().allocator().allocate(bytes);
    if (!region)
        return std::nullopt;
    Handle h;
    h.id = nextId++;
    h.bytes = bytes;
    regions[h.id] = *region;
    return h;
}

void
SsdBackend::free(const Handle &handle)
{
    auto it = regions.find(handle.id);
    if (it == regions.end())
        panic("SsdBackend::free: unknown handle %llu",
              static_cast<unsigned long long>(handle.id));
    server.ssd().allocator().free(it->second);
    regions.erase(it);
}

std::uint64_t
SsdBackend::chunkSize(std::uint64_t bytes, std::uint64_t nChunks)
{
    std::uint64_t chunk = bytes / nChunks;
    return chunk == 0 ? 1 : chunk;
}

hw::TransferTiming
SsdBackend::write(const Handle &handle, std::uint64_t bytes,
                  std::uint64_t nChunks, Tick earliest)
{
    if (bytes > handle.bytes)
        panic("SsdBackend::write beyond handle size");
    if (nChunks <= 1)
        return server.topology().copy(gpu, hw::ssdId, bytes, {},
                                      earliest);
    if (cfg.useStaging) {
        // One gathered PCIe transfer, one sequential media write —
        // instead of nChunks random accesses on both hops.
        return engine.transferOut(
            hw::ssdId,
            core::StagingEngine::uniformChunks(bytes, nChunks),
            earliest);
    }
    return server.topology().copyChunked(gpu, hw::ssdId,
                                         chunkSize(bytes, nChunks),
                                         nChunks, {}, earliest);
}

hw::TransferTiming
SsdBackend::read(const Handle &handle, std::uint64_t bytes,
                 std::uint64_t nChunks, Tick earliest)
{
    if (bytes > handle.bytes)
        panic("SsdBackend::read beyond handle size");
    if (nChunks <= 1)
        return server.topology().copy(hw::ssdId, gpu, bytes, {},
                                      earliest);
    if (cfg.useStaging) {
        return engine.transferIn(
            hw::ssdId,
            core::StagingEngine::uniformChunks(bytes, nChunks),
            earliest);
    }
    return server.topology().copyChunked(hw::ssdId, gpu,
                                         chunkSize(bytes, nChunks),
                                         nChunks, {}, earliest);
}

hw::TransferTiming
SsdBackend::writeFromDram(const Handle &handle, std::uint64_t bytes,
                          std::uint64_t nChunks, Tick earliest)
{
    if (bytes > handle.bytes)
        panic("SsdBackend::writeFromDram beyond handle size");
    if (nChunks <= 1)
        return server.topology().copy(hw::hostDramId, hw::ssdId, bytes,
                                      {}, earliest);
    return server.topology().copyChunked(hw::hostDramId, hw::ssdId,
                                         chunkSize(bytes, nChunks),
                                         nChunks, {}, earliest);
}

hw::TransferTiming
SsdBackend::readToDram(const Handle &handle, std::uint64_t bytes,
                       std::uint64_t nChunks, Tick earliest)
{
    if (bytes > handle.bytes)
        panic("SsdBackend::readToDram beyond handle size");
    if (nChunks <= 1)
        return server.topology().copy(hw::ssdId, hw::hostDramId, bytes,
                                      {}, earliest);
    return server.topology().copyChunked(hw::ssdId, hw::hostDramId,
                                         chunkSize(bytes, nChunks),
                                         nChunks, {}, earliest);
}

Tick
SsdBackend::respond()
{
    // The SSD tier migrates nothing on its own; the TierManager's
    // settle pass drives demotion explicitly.
    return server.simulation().now();
}

} // namespace aqua::tier
