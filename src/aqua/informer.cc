#include "aqua/informer.hh"

namespace aqua::core {

using namespace aqua::sim;

/** Context bytes the LLM informer retains when donating (paper:
 *  5 GB). */
constexpr std::uint64_t keepBytes = std::uint64_t(5) << 30;
/** Reclaim when the windowed rate exceeds this (req/s). */
constexpr double reclaimRateThreshold = 3.0;
/** Reclaim regardless of rate when the queue grows past this. */
constexpr std::uint64_t reclaimQueueThreshold = 8;
/** Reclaim when the oldest waiter has been queued this long
 *  (seconds). Fires earlier than the windowed rate during a
 *  ramp-up. */
constexpr double reclaimQueueDelaySec = 2.0;

LlmInformer::LlmInformer(LlmInformerConfig config) : cfg(config) {}

InformerDecision
LlmInformer::evaluate(const EngineStats &stats, bool donated)
{
    // Maintain the arrival window and derive the request rate. Each
    // report covers the interval since the previous one, so the
    // window's effective span is min(window, elapsed time).
    history.emplace_back(stats.now, stats.arrivalsSinceLast);
    Tick horizon = stats.now > cfg.window ? stats.now - cfg.window : 0;
    while (!history.empty() && history.front().first < horizon)
        history.pop_front();
    std::uint64_t arrivals = 0;
    for (const auto &[when, n] : history)
        arrivals += n;
    Tick span = stats.now < cfg.window ? stats.now : cfg.window;
    if (span == 0)
        span = 1;
    rate = static_cast<double>(arrivals) / ticksToSec(span);

    InformerDecision decision;
    if (donated) {
        // Reclaim when the queue builds up in the window (§B): either
        // the rate crossed the threshold or requests are piling up.
        // Queue delay and overload sheds fire earlier than the
        // windowed rate during a ramp-up, and mean the engine is
        // already hurting — ask for an urgent (flush) reclaim.
        // A rate crossing alone is anticipatory: a graceful reclaim
        // lets the consumer evacuate in stages.
        bool hurting = stats.shedsSinceLast > 0 ||
                       stats.queueDelaySec >= reclaimQueueDelaySec ||
                       stats.pendingRequests >= reclaimQueueThreshold;
        if (hurting || rate > reclaimRateThreshold) {
            decision.action = InformerDecision::Action::Reclaim;
            decision.urgency = hurting ? ReclaimUrgency::Urgent
                                       : ReclaimUrgency::Graceful;
            lastReclaimAt = stats.now;
            reclaimedOnce = true;
        }
        return decision;
    }
    if (cfg.redonateCooldown > 0 && reclaimedOnce &&
        stats.now < lastReclaimAt + cfg.redonateCooldown) {
        // Too soon after a reclaim: don't thrash the lease.
        return decision;
    }
    if (rate < cfg.donateRateThreshold &&
        stats.pendingRequests == 0) {
        // Retain only keepBytes of context; donate the remainder of
        // the reserved pool (bounded by what is actually free).
        std::uint64_t used =
            stats.reservedPoolBytes - stats.freePoolBytes;
        std::uint64_t keep = keepBytes > used ? keepBytes : used;
        if (stats.reservedPoolBytes > keep) {
            std::uint64_t spare = stats.reservedPoolBytes - keep;
            if (spare > stats.freePoolBytes)
                spare = stats.freePoolBytes;
            if (spare >= cfg.minDonateBytes) {
                decision.action = InformerDecision::Action::Donate;
                decision.donateBytes = spare;
            }
        }
    }
    return decision;
}

BatchInformer::BatchInformer(BatchInformerConfig config) : cfg(config) {}

InformerDecision
BatchInformer::evaluate(const EngineStats &stats, bool donated)
{
    InformerDecision decision;
    if (donated)
        return decision;
    if (stats.freePoolBytes <= cfg.marginBytes)
        return decision;
    std::uint64_t spare = stats.freePoolBytes - cfg.marginBytes;
    if (spare < cfg.minDonateBytes)
        return decision;
    decision.action = InformerDecision::Action::Donate;
    decision.donateBytes = spare;
    return decision;
}

} // namespace aqua::core
