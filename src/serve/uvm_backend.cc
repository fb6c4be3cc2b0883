#include "serve/uvm_backend.hh"

#include "aqua/staging.hh"
#include "sim/logging.hh"

namespace aqua::serve {

using namespace aqua::sim;

/** GPU-side fault handling latency per fault wavefront. */
constexpr Tick faultLatency = 25 * nsPerUs;

hw::TransferTiming
UvmBackend::paged(const Handle &handle, std::uint64_t bytes,
                  bool toGpu, Tick earliest)
{
    if (bytes > handle.bytes)
        panic("UvmBackend: access beyond handle size");
    std::uint64_t pages = (bytes + uvmPageBytes - 1) / uvmPageBytes;
    if (pages == 0)
        pages = 1;
    std::uint64_t wavefronts =
        (pages + uvmPrefetchDegree - 1) / uvmPrefetchDegree;
    faults += wavefronts;

    // Pages cross PCIe individually; fault handling stalls the
    // accessing kernel once per wavefront on top of the transfer.
    hw::GpuId src = toGpu ? hw::hostDramId : gpu;
    hw::GpuId dst = toGpu ? gpu : hw::hostDramId;
    hw::TransferTiming t =
        core::scatteredCopy(server.topology(), src, dst,
                            pages * uvmPageBytes, pages, nullptr,
                            earliest);
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

} // namespace aqua::serve
