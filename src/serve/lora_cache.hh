/**
 * @file
 * LRU cache of LoRA adapters resident on the GPU.
 *
 * Adapters not resident must be loaded from the offload backend before
 * a request using them can run. The baseline (vLLM) load path issues
 * one small copy per adapted layer matrix plus per-copy software
 * overhead — the pattern §B.1 identifies as "multiple small data
 * transfers ... sub-optimal for NVLINKS". AQUA's modified path copies
 * the entire adapter as one transfer and scatters on-GPU, which the
 * staged backend models.
 */

#ifndef AQUA_SERVE_LORA_CACHE_HH
#define AQUA_SERVE_LORA_CACHE_HH

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <vector>

#include "hw/gpu.hh"
#include "model/lora.hh"
#include "serve/offload_backend.hh"
#include "sim/ticks.hh"

namespace aqua::serve {

/** Tunables of the adapter cache. */
struct LoraCacheConfig
{
    /** HBM reserved for resident adapters. */
    std::uint64_t capacityBytes = std::uint64_t(10) << 30;
};

/**
 * GPU-resident adapter cache with LRU eviction and refcounting.
 */
class LoraCache
{
  public:
    /**
     * @param gpu GPU whose HBM backs the cache.
     * @param backend Store adapters are loaded from.
     * @param adapters The adapter pool requests draw from.
     * @param config Tunables.
     */
    LoraCache(hw::Gpu &gpu, OffloadBackend &backend,
              std::vector<model::LoraAdapter> adapters,
              LoraCacheConfig config = {});

    LoraCache(const LoraCache &) = delete;
    LoraCache &operator=(const LoraCache &) = delete;
    ~LoraCache();

    /** Whether an adapter is currently resident. */
    bool resident(model::LoraId id) const;

    /**
     * Ensure @p id is resident, loading it if needed (evicting idle
     * adapters LRU-first to make room).
     *
     * @param[out] loadedUntil Completion tick of the load; sim "now"
     *             on a cache hit.
     * @retval true Adapter resident (now or at loadedUntil).
     * @retval false No capacity (all resident adapters are pinned).
     */
    bool acquire(model::LoraId id, aqua::sim::Tick &loadedUntil);

    /** Drop a pin taken by acquire(). */
    void release(model::LoraId id);

    std::uint64_t capacityBytes() const { return cfg.capacityBytes; }
    std::uint64_t residentBytes() const { return bytesResident; }
    std::uint64_t hits() const { return nHits; }
    std::uint64_t misses() const { return nMisses; }
    std::size_t adapterCount() const { return pool.size(); }

    const model::LoraAdapter &adapter(model::LoraId id) const;

  private:
    struct Entry
    {
        bool isResident = false;
        std::uint32_t pins = 0;
        /** Position in the LRU list while resident and unpinned. */
        std::list<model::LoraId>::iterator lruPos;
        OffloadBackend::Handle handle;
    };

    /** Evict idle adapters until @p bytes fit. @return success. */
    bool makeRoom(std::uint64_t bytes);

    hw::Gpu &gpu;
    OffloadBackend &backend;
    LoraCacheConfig cfg;
    std::vector<model::LoraAdapter> pool;
    std::vector<Entry> entries;
    /** LRU order of resident, unpinned adapters (front = coldest). */
    std::list<model::LoraId> lru;
    std::optional<aqua::mem::Region> reservation;
    std::uint64_t bytesResident = 0;
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
};

} // namespace aqua::serve

#endif // AQUA_SERVE_LORA_CACHE_HH
