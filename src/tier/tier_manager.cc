#include "tier/tier_manager.hh"

#include <algorithm>

#include "model/stream_choice.hh"
#include "sim/logging.hh"

namespace aqua::tier {

using namespace aqua::sim;

/** Heat discount: each touch since registration divides effective age
 *  by (1 + heatWeight * touches), so hot items age slowly. */
constexpr double heatWeight = 4.0;

TierManager::TierManager(hw::Ssd &ssd, TierConfig config)
    : ssd(ssd), cfg(config)
{
    if (cfg.parkAfterSec <= 0 || cfg.pressureParkAfterSec <= 0)
        panic("TierManager: park thresholds must be positive");
}

void
TierManager::registerItem(std::uint64_t key, std::uint64_t bytes,
                          Tick now, bool pinned)
{
    Item item;
    item.bytes = bytes;
    item.lastTouch = now;
    item.pinned = pinned;
    items[key] = item;
}

void
TierManager::touch(std::uint64_t key, Tick now)
{
    auto it = items.find(key);
    if (it == items.end())
        return;
    it->second.lastTouch = now;
    ++it->second.touches;
}

void
TierManager::setPinned(std::uint64_t key, bool pinned)
{
    auto it = items.find(key);
    if (it != items.end())
        it->second.pinned = pinned;
}

void
TierManager::remove(std::uint64_t key)
{
    items.erase(key);
}

bool
TierManager::contains(std::uint64_t key) const
{
    return items.count(key) != 0;
}

TierLevel
TierManager::level(std::uint64_t key) const
{
    auto it = items.find(key);
    if (it == items.end())
        panic("TierManager::level: unknown item %llu",
              static_cast<unsigned long long>(key));
    return it->second.tier;
}

double
TierManager::effectiveAgeSec(const Item &item, Tick now) const
{
    Tick age = now > item.lastTouch ? now - item.lastTouch : 0;
    return ticksToSec(age) / (1.0 + heatWeight * item.touches);
}

std::vector<std::uint64_t>
TierManager::selectDemotions(Tick now, bool pressure) const
{
    double threshold =
        pressure ? cfg.pressureParkAfterSec : cfg.parkAfterSec;
    std::vector<std::pair<double, std::uint64_t>> ranked;
    for (const auto &[key, item] : items) {
        if (item.pinned || item.tier != TierLevel::Dram)
            continue;
        double age = effectiveAgeSec(item, now);
        if (age > threshold)
            ranked.emplace_back(age, key);
    }
    // Coldest first; key breaks ties deterministically.
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });
    if (ranked.size() > cfg.maxDemotionsPerSettle)
        ranked.resize(cfg.maxDemotionsPerSettle);
    std::vector<std::uint64_t> keys;
    keys.reserve(ranked.size());
    for (const auto &[age, key] : ranked)
        keys.push_back(key);
    return keys;
}

void
TierManager::markDemoted(std::uint64_t key, Tick now)
{
    auto it = items.find(key);
    if (it == items.end())
        panic("TierManager::markDemoted: unknown item %llu",
              static_cast<unsigned long long>(key));
    if (it->second.pinned)
        panic("TierManager::markDemoted: item %llu is pinned to DRAM",
              static_cast<unsigned long long>(key));
    it->second.tier = TierLevel::Ssd;
    it->second.lastTouch = now;
    ++counters.demotions;
    counters.demotedBytes += it->second.bytes;
}

void
TierManager::markPromoted(std::uint64_t key, Tick now)
{
    auto it = items.find(key);
    if (it == items.end())
        panic("TierManager::markPromoted: unknown item %llu",
              static_cast<unsigned long long>(key));
    it->second.tier = TierLevel::Dram;
    it->second.lastTouch = now;
    ++it->second.touches;
    ++counters.promotions;
    counters.promotedBytes += it->second.bytes;
}

ResumeDecision
TierManager::decideResume(Tick streamEstimate, Tick prefillTime,
                          Tick streamOverhead)
{
    bool stream = !ssd.failed() &&
        model::streamBeatsRecompute(streamEstimate, streamOverhead,
                                    prefillTime,
                                    cfg.resumeSafetyFactor);
    if (stream)
        ++counters.streamResumes;
    else
        ++counters.recomputeResumes;
    return stream ? ResumeDecision::Stream : ResumeDecision::Recompute;
}

} // namespace aqua::tier
