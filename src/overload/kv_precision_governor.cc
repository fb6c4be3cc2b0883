#include "overload/kv_precision_governor.hh"

#include <algorithm>

namespace aqua::overload {

using model::KvPrecision;
using model::kvPrecisionDivisor;
using model::kvPrecisionName;

/** Free-pool fraction at or below which cold KV demotes one step (to
 *  fp8 from an fp16 serving precision). */
constexpr double freeFp8 = 0.25;

/** Free-pool fraction at or below which cold KV demotes to the floor
 *  (int4). */
constexpr double freeInt4 = 0.10;

KvPrecisionGovernor::KvPrecisionGovernor(
    KvPrecisionGovernorConfig config, KvPrecision serving)
    : cfg(config), serving(serving), current(serving)
{
}

KvPrecision
KvPrecisionGovernor::targetPrecision(double freePoolFraction,
                                     BrownoutLevel level) const
{
    // Two independent pressure reads: the pool's own free fraction
    // (leading indicator) and the brownout ladder (the engine is
    // already degrading service). Either suffices; take the deeper.
    KvPrecision target = serving;
    if (freePoolFraction <= freeFp8 ||
        level >= BrownoutLevel::NoCachePublish)
        target = KvPrecision::Fp8;
    if (freePoolFraction <= freeInt4 ||
        level >= BrownoutLevel::ForceDramOffload)
        target = KvPrecision::Int4;

    // Never widen past the serving precision (payloads are already
    // that narrow) and never narrow past the configured floor.
    if (kvPrecisionDivisor(target) < kvPrecisionDivisor(serving))
        target = serving;
    if (kvPrecisionDivisor(target) > kvPrecisionDivisor(cfg.floor))
        target = cfg.floor;
    return target;
}

void
KvPrecisionGovernor::reconfigure(KvPrecision next,
                                 double freePoolFraction,
                                 BrownoutLevel level,
                                 aqua::sim::Tick now,
                                 const char *reason)
{
    ++counters.reconfigurations;
    if (kvPrecisionDivisor(next) > kvPrecisionDivisor(current))
        ++counters.demotions;
    if (tracer) {
        json::Object o;
        o["from"] = std::string(kvPrecisionName(current));
        o["to"] = std::string(kvPrecisionName(next));
        o["reason"] = std::string(reason);
        o["free_pool_fraction"] = freePoolFraction;
        o["brownout_level"] = std::string(brownoutLevelName(level));
        tracer->emit(now, "kv_precision", json::Value(std::move(o)));
    }
    current = next;
    enteredAt = now;
}

KvPrecision
KvPrecisionGovernor::update(double freePoolFraction,
                            BrownoutLevel level, aqua::sim::Tick now)
{
    KvPrecision target = targetPrecision(freePoolFraction, level);
    bool dwelled = now - enteredAt >= cfg.minDwell;

    if (kvPrecisionDivisor(target) > kvPrecisionDivisor(current)) {
        // Demote immediately — quantizing cold KV late means the
        // eviction wave it was meant to shrink already happened.
        reconfigure(target, freePoolFraction, level, now, "demote");
    } else if (kvPrecisionDivisor(target) <
                   kvPrecisionDivisor(current) &&
               dwelled) {
        // Widen one step at a time after a full calm dwell; the gap
        // between freeFp8/freeInt4 and the dwell is the hysteresis
        // band that prevents flapping.
        auto next = static_cast<KvPrecision>(
            static_cast<std::uint8_t>(current) - 1);
        reconfigure(next, freePoolFraction, level, now, "promote");
    }
    return current;
}

void
KvPrecisionGovernor::notePayload(std::uint64_t servingBytes,
                                 std::uint64_t storedBytes)
{
    if (storedBytes >= servingBytes)
        return;
    ++counters.demotedPayloads;
    counters.savedBytes += servingBytes - storedBytes;
}

} // namespace aqua::overload
