/**
 * @file
 * Graceful brownout: a hysteresis ladder of service degradations an
 * engine climbs under overload instead of collapsing.
 *
 * Production serving systems treat overload as a first-class failure
 * mode: rather than queueing unboundedly (and missing every deadline)
 * or crashing (OOM), the engine sheds optional work first and only
 * refuses new requests as a last resort. The ladder here:
 *
 *   Normal -> ShedBestEffort -> NoCachePublish -> ForceDramOffload
 *          -> RejectNew
 *
 * Levels are driven by queue depth, queue delay, free-pool fraction
 * and offload-path pressure (a donor reclaiming its lease or a
 * degraded NVLink — the circuit-breaker input). Escalation is
 * immediate (overload demands fast reaction); de-escalation steps
 * down one level at a time and only after a dwell period with all
 * signals below their low-water marks, which is what prevents level
 * flapping around a threshold.
 *
 * The controller is engine-agnostic: it consumes a plain
 * BrownoutSignals snapshot and exposes level queries; the serving
 * engine maps levels to concrete degradations (skip prefix-cache
 * publishes, shrink the CFS slice, prefer the DRAM backend, refuse
 * admission). Every transition is traced and accounted per level.
 */

#ifndef AQUA_OVERLOAD_BROWNOUT_HH
#define AQUA_OVERLOAD_BROWNOUT_HH

#include <array>
#include <cstdint>
#include <string>

#include "sim/ticks.hh"
#include "trace/trace.hh"

namespace aqua::overload {

/** Degradation ladder, mildest first. Order is meaningful: level
 *  comparisons use >=, and every level implies the ones below it. */
enum class BrownoutLevel : std::uint8_t
{
    /** Full service. */
    Normal = 0,
    /** Shed best-effort (deadline-less, low-priority) requests. */
    ShedBestEffort = 1,
    /** Stop publishing prefix-cache blocks (cache upkeep is optional
     *  work; freeing eviction pressure beats future hit rate). */
    NoCachePublish = 2,
    /** Prefer the host-DRAM backend over the NVLink donor for swaps —
     *  the circuit breaker over a reclaiming or degraded offload
     *  path. */
    ForceDramOffload = 3,
    /** Refuse new admissions entirely. */
    RejectNew = 4,
};

/** Number of ladder rungs (for per-level accounting arrays). */
inline constexpr std::size_t numBrownoutLevels = 5;

/** Stable lowercase name, e.g. "shed_best_effort". */
const char *brownoutLevelName(BrownoutLevel level);

/** Signals sampled by the engine each evaluation. */
struct BrownoutSignals
{
    aqua::sim::Tick now = 0;
    /** Sequences queued for GPU service: the admission queue plus any
     *  swapped-out sequences time-sharing the batch (under a fair
     *  policy, overload pools in the latter, not the former). */
    std::size_t queueDepth = 0;
    /** Age of the oldest waiting request, seconds. */
    double queueDelaySec = 0.0;
    /** Free + evictable fraction of the KV pool (1.0 = empty pool). */
    double freePoolFraction = 1.0;
    /** Offload-path pressure: the lease donor is reclaiming, or the
     *  engine observed a reclaim-induced stall recently. */
    bool reclaimPressure = false;
    /** NVLink health from Link::degradation(): 1.0 = full bandwidth,
     *  lower = degraded (fault injection or hardware). */
    double linkHealth = 1.0;
};

/** Queue depth entering / leaving pressure. */
inline constexpr std::size_t queueHigh = 24;
inline constexpr std::size_t queueLow = 8;

/** Oldest-waiter age entering pressure (seconds). */
inline constexpr double delayHighSec = 2.0;

/** How long after a reclaim-driven evacuation the offload path still
 *  counts as pressured (circuit-breaker hold time; bridges the gaps
 *  between the staged rounds of one reclaim). */
inline constexpr aqua::sim::Tick evacPressureWindow =
    1000 * aqua::sim::nsPerMs;

/** Hysteresis tunables. */
struct BrownoutConfig
{
    /** Minimum time between level changes (hysteresis dwell). */
    aqua::sim::Tick minDwell = 200 * aqua::sim::nsPerMs;
};

/** Counters and per-level residency accounting. */
struct BrownoutStats
{
    /** Level transitions performed (either direction). */
    std::uint64_t transitions = 0;
    /** Escalations (level increased). */
    std::uint64_t escalations = 0;
    /** Ticks spent at each level (closed intervals only; call
     *  BrownoutController::timeAtLevel for an up-to-date view). */
    std::array<aqua::sim::Tick, numBrownoutLevels> ticksAtLevel{};
};

/**
 * The hysteresis ladder controller.
 */
class BrownoutController
{
  public:
    explicit BrownoutController(BrownoutConfig config = {});

    /** Emit a "brownout_level" trace event per transition. */
    void setTraceLog(trace::TraceLog *log) { tracer = log; }

    /**
     * Evaluate the latest signals; may transition the level.
     * @return the (possibly new) level.
     */
    BrownoutLevel update(const BrownoutSignals &signals);

    BrownoutLevel level() const { return current; }

    //
    // Level-effect queries for the engine's hot path.
    //

    bool shedBestEffort() const
    {
        return current >= BrownoutLevel::ShedBestEffort;
    }
    bool publishDisabled() const
    {
        return current >= BrownoutLevel::NoCachePublish;
    }
    bool forceDramOffload() const
    {
        return current >= BrownoutLevel::ForceDramOffload;
    }
    bool rejectingNew() const
    {
        return current >= BrownoutLevel::RejectNew;
    }

    /** Multiplier for the CFS slice at the current level. */
    double sliceFactor() const;

    /** Ticks spent at @p level, including the open interval up to
     *  @p now when it is the current level. */
    aqua::sim::Tick timeAtLevel(BrownoutLevel level,
                                aqua::sim::Tick now) const;

    const BrownoutStats &stats() const { return counters; }

  private:
    /** Severity the raw signals call for, ignoring hysteresis. */
    BrownoutLevel targetLevel(const BrownoutSignals &s) const;

    /** All signals below their low-water marks (step-down gate). */
    bool calm(const BrownoutSignals &s) const;

    void transitionTo(BrownoutLevel next, const BrownoutSignals &s,
                      const char *reason);

    BrownoutConfig cfg;
    BrownoutLevel current = BrownoutLevel::Normal;
    /** When the current level was entered. */
    aqua::sim::Tick enteredAt = 0;
    BrownoutStats counters;
    trace::TraceLog *tracer = nullptr;
};

} // namespace aqua::overload

#endif // AQUA_OVERLOAD_BROWNOUT_HH
