/**
 * @file
 * Informers: per-modality policies deciding when a GPU donates or
 * reclaims HBM (§B).
 *
 * Serving engines call AQUA-LIB's northbound inform_stats(...) every
 * few iterations with engine-level insights; the informer turns those
 * into donate/reclaim decisions:
 *
 *  - llm-informer: windows the request rate derived from the wait
 *    queue. Low rate => retain only keepBytes (5 GB in the paper) for
 *    inference context and donate the rest; rate above a threshold =>
 *    reclaim the donated memory.
 *  - batch-informer: image/audio engines serve at a fixed peak-
 *    throughput batch size, so after a batch the informer sees an
 *    accurate free-memory figure and donates it ("less than 10 lines
 *    of code" in the paper).
 */

#ifndef AQUA_AQUA_INFORMER_HH
#define AQUA_AQUA_INFORMER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "aqua/types.hh"
#include "sim/ticks.hh"

namespace aqua::core {

/**
 * Engine-level insights passed through the northbound interface.
 */
struct EngineStats
{
    /** Simulated time of the report. */
    aqua::sim::Tick now = 0;
    /** Requests waiting in the engine's queue. */
    std::uint64_t pendingRequests = 0;
    /** Requests currently being inferred. */
    std::uint64_t runningRequests = 0;
    /** Requests that arrived since the previous report. */
    std::uint64_t arrivalsSinceLast = 0;
    /** Free bytes in the engine's reserved context pool (or free HBM
     *  for engines without a pool). */
    std::uint64_t freePoolBytes = 0;
    /** Total bytes currently reserved for inference context. */
    std::uint64_t reservedPoolBytes = 0;
    /** Age of the oldest request still waiting for admission,
     *  seconds (0 when the queue is empty). Queue delay leads the
     *  arrival-rate estimate during a ramp-up: the window still
     *  averages in the quiet past while the oldest waiter is already
     *  aging, so it is the earlier reclaim signal. */
    double queueDelaySec = 0.0;
    /** Requests shed by overload control since the previous report.
     *  Any shedding at all means the engine is past its capacity —
     *  the strongest possible reclaim signal. */
    std::uint64_t shedsSinceLast = 0;
    /** Cluster prefix-registry lookups that found a remote home. */
    std::uint64_t registryHits = 0;
    /** Lookups the registry could not serve. */
    std::uint64_t registryMisses = 0;
    /** Prefix KV bytes read from peer GPUs (copies + borrows). */
    std::uint64_t remotePrefixBytes = 0;
};

/** What the informer wants done with the GPU's memory. */
struct InformerDecision
{
    enum class Action { None, Donate, Reclaim };
    Action action = Action::None;
    /** Bytes to donate when action == Donate. */
    std::uint64_t donateBytes = 0;
    /** How fast a Reclaim needs the memory back. */
    ReclaimUrgency urgency = ReclaimUrgency::Urgent;
};

/**
 * Donate/reclaim policy interface.
 */
class Informer
{
  public:
    virtual ~Informer() = default;

    /**
     * Evaluate the latest stats.
     *
     * @param stats Engine report.
     * @param donated Whether a lease is currently outstanding.
     */
    virtual InformerDecision evaluate(const EngineStats &stats,
                                      bool donated) = 0;
};

/** Tunables of the LLM informer. */
struct LlmInformerConfig
{
    /** Donate when the windowed rate stays below this (req/s). */
    double donateRateThreshold = 2.0;
    /** Width of the rate-estimation window. */
    aqua::sim::Tick window = 10 * aqua::sim::nsPerSec;
    /** Require at least this much donatable memory to bother. */
    std::uint64_t minDonateBytes = std::uint64_t(1) << 30;
    /**
     * Suppress a fresh Donate for this long after a Reclaim, so a
     * flapping workload (or an injected fault storm) cannot thrash
     * the lease. 0 (the default) disables the cooldown.
     */
    aqua::sim::Tick redonateCooldown = 0;
};

/**
 * Windowed-rate informer for LLM engines (§B "llm-informer").
 */
class LlmInformer : public Informer
{
  public:
    explicit LlmInformer(LlmInformerConfig config = {});

    InformerDecision evaluate(const EngineStats &stats,
                              bool donated) override;

    /** Windowed request rate as of the last evaluate() (req/s). */
    double currentRate() const { return rate; }

  private:
    LlmInformerConfig cfg;
    /** (report time, arrivals in that report) history. */
    std::deque<std::pair<aqua::sim::Tick, std::uint64_t>> history;
    double rate = 0.0;
    /** Time of the last Reclaim decision (cooldown anchor). */
    aqua::sim::Tick lastReclaimAt = 0;
    bool reclaimedOnce = false;
};

/** Tunables of the batch informer. */
struct BatchInformerConfig
{
    /** HBM safety margin retained for the engine itself. */
    std::uint64_t marginBytes = std::uint64_t(2) << 30;
    /** Require at least this much donatable memory to bother. */
    std::uint64_t minDonateBytes = std::uint64_t(1) << 30;
};

/**
 * One-shot free-memory donor for image/audio engines (§B
 * "batch-informer"): donate everything above the margin; never
 * reclaim — these models stay compute-bound.
 */
class BatchInformer : public Informer
{
  public:
    explicit BatchInformer(BatchInformerConfig config = {});

    InformerDecision evaluate(const EngineStats &stats,
                              bool donated) override;

  private:
    BatchInformerConfig cfg;
};

} // namespace aqua::core

#endif // AQUA_AQUA_INFORMER_HH
