/**
 * @file
 * TierManager: the HBM→DRAM→SSD demotion/promotion policy.
 *
 * The engine registers every offloaded item (a swapped sequence's
 * private KV tail, a parked session) with its size and pin status and
 * reports touches; the manager scores items by age discounted by heat
 * and picks which to demote one tier down on each settle pass. Pinned
 * items — shared prefix blocks other sequences may hit — are never
 * demoted below DRAM.
 *
 * The manager also owns the resume decision: given the prefetch
 * pipeline's stream estimate and the roofline prefill time, streaming
 * a parked session back wins only past the crossover where the
 * transfer (behind compute) is cheaper than recomputing the KV — and
 * never wins when the device is failed or the estimate is inflated by
 * degradation.
 */

#ifndef AQUA_TIER_TIER_MANAGER_HH
#define AQUA_TIER_TIER_MANAGER_HH

#include <cstdint>
#include <map>
#include <vector>

#include "hw/ssd.hh"
#include "sim/ticks.hh"

namespace aqua::tier {

/** Tier-policy tunables. */
struct TierConfig
{
    /** Age past which an untouched DRAM item demotes to SSD. */
    double parkAfterSec = 30.0;
    /**
     * Demotion age under memory pressure (the brownout ladder's
     * ForceDramOffload rung): the tier drains DRAM aggressively so
     * the rung has somewhere real to demote into.
     */
    double pressureParkAfterSec = 2.0;
    /** Demotion budget per settle pass (bounds media churn). */
    std::size_t maxDemotionsPerSettle = 4;
    /**
     * Streaming must beat recompute by this factor before a resume
     * is serviced from SSD (hedge against estimate error).
     */
    double resumeSafetyFactor = 1.1;
};

/** Which tier an item currently occupies. */
enum class TierLevel
{
    Dram,
    Ssd,
};

/** Resume-path decision for a parked session. */
enum class ResumeDecision
{
    /** Stream the KV back through the prefetch pipeline. */
    Stream,
    /** Re-prefill from the prompt (stream too slow or device down). */
    Recompute,
};

/** Aggregate tier accounting. */
struct TierStats
{
    std::uint64_t demotions = 0;
    std::uint64_t demotedBytes = 0;
    std::uint64_t promotions = 0;
    std::uint64_t promotedBytes = 0;
    /** Resume decisions that chose streaming. */
    std::uint64_t streamResumes = 0;
    /** Resume decisions that fell back to recompute. */
    std::uint64_t recomputeResumes = 0;
};

/**
 * Age/heat-scored demotion policy plus the stream-vs-recompute
 * crossover check.
 */
class TierManager
{
  public:
    explicit TierManager(hw::Ssd &ssd, TierConfig config = {});

    const TierConfig &config() const { return cfg; }
    const TierStats &stats() const { return counters; }

    /** Track an item that just landed in DRAM. */
    void registerItem(std::uint64_t key, std::uint64_t bytes,
                      aqua::sim::Tick now, bool pinned = false);

    /** Record a use (resets age, accumulates heat). */
    void touch(std::uint64_t key, aqua::sim::Tick now);

    /** Pin or unpin: pinned items never leave DRAM. */
    void setPinned(std::uint64_t key, bool pinned);

    /** Forget an item (freed or fully promoted back to HBM). */
    void remove(std::uint64_t key);

    bool contains(std::uint64_t key) const;
    TierLevel level(std::uint64_t key) const;
    std::size_t itemCount() const { return items.size(); }

    /**
     * Pick up to maxDemotionsPerSettle unpinned DRAM items whose
     * effective age exceeds the (pressure-dependent) threshold,
     * coldest first. The caller moves the bytes and then reports
     * markDemoted().
     */
    std::vector<std::uint64_t>
    selectDemotions(aqua::sim::Tick now, bool pressure) const;

    /** Record a completed DRAM→SSD demotion. */
    void markDemoted(std::uint64_t key, aqua::sim::Tick now);

    /** Record a completed SSD→DRAM/HBM promotion. */
    void markPromoted(std::uint64_t key, aqua::sim::Tick now);

    /**
     * Stream-vs-recompute crossover: stream when the device is
     * healthy and (streamEstimate + streamOverhead) *
     * resumeSafetyFactor beats the roofline prefill time.
     * @p streamOverhead is post-arrival work the streamed copy still
     * needs (e.g. dequantizing a quantized parked payload) — it makes
     * quantized parks cheaper to move but not free to use.
     */
    ResumeDecision decideResume(aqua::sim::Tick streamEstimate,
                                aqua::sim::Tick prefillTime,
                                aqua::sim::Tick streamOverhead = 0);

  private:
    struct Item
    {
        std::uint64_t bytes = 0;
        aqua::sim::Tick lastTouch = 0;
        std::uint32_t touches = 0;
        bool pinned = false;
        TierLevel tier = TierLevel::Dram;
    };

    /** Age in seconds discounted by heat. */
    double effectiveAgeSec(const Item &item, aqua::sim::Tick now) const;

    hw::Ssd &ssd;
    TierConfig cfg;
    std::map<std::uint64_t, Item> items;
    TierStats counters;
};

} // namespace aqua::tier

#endif // AQUA_TIER_TIER_MANAGER_HH
