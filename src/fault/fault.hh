/**
 * @file
 * Deterministic fault injection for the AQUA control plane.
 *
 * Parking a consumer's KV caches and LoRA adapters in a *peer GPU's*
 * HBM widens the failure domain of every request: a donor GPU crash, a
 * flapping NVLink or an unreachable coordinator now strands another
 * tenant's context. The paper specifies the control protocol only for
 * the happy path; this subsystem is the chaos layer that lets us prove
 * the implementation survives everything else.
 *
 * Two pieces live here:
 *
 *  - FaultPlan: a typed, timestamped schedule of faults. Plans are
 *    built programmatically, parsed from JSON, or generated from a
 *    seeded sim::Random stream so a chaos run replays identically.
 *  - FaultInjector: applies a plan to a simulated server. Faults are
 *    scheduled on the simulation's event queue; every injection and
 *    recovery emits a trace::TraceLog event carrying a fault id, so a
 *    run can be audited for matching inject/recover pairs.
 *
 * Fault taxonomy:
 *
 *  | kind               | models                               |
 *  |--------------------|--------------------------------------|
 *  | gpu_fail           | donor GPU crash: heartbeats stop at  |
 *  |                    | `at`; after a grace window the GPU's |
 *  |                    | ports go dark and transfers panic    |
 *  | link_degrade       | NVLink/PCIe degradation or flapping; |
 *  |                    | scales the size-aware bandwidth ramp |
 *  | coordinator_outage | coordinator unreachable; southbound  |
 *  |                    | calls see 503 and back off           |
 *  | message_drop       | control messages dropped with a      |
 *  |                    | seeded probability                   |
 *  | message_delay      | control messages delivered late      |
 *  | ssd_degrade        | storage-tier media slowdown (thermal |
 *  |                    | throttle, GC storm); scales the      |
 *  |                    | drive's bandwidth ramp               |
 *  | ssd_fail           | drive offline; tier accesses panic,  |
 *  |                    | resumes fall back to recompute       |
 *  | coordinator_crash  | coordinator process dies and loses   |
 *  |                    | in-memory state; restarts cold from  |
 *  |                    | its journal and resyncs survivors    |
 *  | payload_corrupt    | in-flight link payload corruption;   |
 *  |                    | signature checks fail at read time   |
 *  | ssd_bitrot         | at-rest media corruption; stored     |
 *  |                    | copies damaged, repair needs a       |
 *  |                    | replica or recompute                 |
 */

#ifndef AQUA_FAULT_FAULT_HH
#define AQUA_FAULT_FAULT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "aqua/rest.hh"
#include "hw/topology.hh"
#include "json/json.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "trace/trace.hh"

namespace aqua::core {
class AquaLib;
}

namespace aqua::hw {
class Fabric;
}

namespace aqua::fault {

/** The typed faults the injector knows how to apply. */
enum class FaultKind
{
    GpuFail,
    LinkDegrade,
    CoordinatorOutage,
    MessageDrop,
    MessageDelay,
    SsdDegrade,
    SsdFail,
    CoordinatorCrash,
    PayloadCorrupt,
    SsdBitrot,
};

/** Wire name of a fault kind (e.g. "gpu_fail"). */
const char *faultKindName(FaultKind kind);

/** Parse a wire name; nullopt for unknown names. */
std::optional<FaultKind> faultKindFromName(const std::string &name);

/** Which link a LinkDegrade fault hits. Fabric targets the
 *  inter-server fabric (requires FaultInjector::attachFabric). */
enum class FaultLink { Nvlink, Pcie, Fabric };

/** One scheduled fault. */
struct FaultSpec
{
    FaultKind kind = FaultKind::CoordinatorOutage;
    /** Injection time (absolute ticks). */
    aqua::sim::Tick at = 0;
    /**
     * Fault length; recovery fires at at + duration. A GpuFail with
     * duration 0 is permanent (no recovery event).
     */
    aqua::sim::Tick duration = 0;

    /** GpuFail: the dying GPU. */
    hw::GpuId gpu = hw::hostDramId;
    /**
     * GpuFail: how long after `at` the GPU's memory stays readable.
     * Emergency evacuation must finish inside this window; transfers
     * touching the GPU after it panic.
     */
    aqua::sim::Tick grace = 0;

    /** LinkDegrade: which link. */
    FaultLink link = FaultLink::Nvlink;
    /** LinkDegrade / SsdDegrade: bandwidth multiplier while degraded,
     *  in (0, 1]. */
    double factor = 1.0;
    /** LinkDegrade: number of degrade/recover cycles (a flap). */
    std::uint32_t flaps = 1;

    /** MessageDrop / PayloadCorrupt / SsdBitrot: per-call drop or
     *  per-payload corruption probability. */
    double probability = 1.0;
    /** MessageDelay: extra latency added to each call. */
    aqua::sim::Tick delay = 0;

    /**
     * CoordinatorCrash: journal records lost with the crash — the
     * unflushed tail that never reached stable storage. Replay alone
     * cannot see these mutations; survivor resync must reconcile them.
     */
    std::uint32_t loseTail = 0;

    json::Value toJson() const;
};

class FaultPlan;

/** Outcome of parsing a plan. */
struct FaultPlanParse
{
    /** Meaningful only when ok. */
    std::vector<FaultSpec> faults;
    std::uint64_t seed = 0;
    bool ok = false;
    std::string error;
};

/** Knobs of FaultPlan::random(). */
struct ChaosConfig
{
    /** Plan horizon: every fault is injected before this tick. */
    aqua::sim::Tick horizon = 1 * aqua::sim::nsPerSec;
    /** Candidate donor GPUs for gpu_fail faults. */
    std::vector<hw::GpuId> donorGpus;
    /** Number of donor failures to schedule. */
    std::uint32_t gpuFailures = 0;
    /** Mean failure length (0 = permanent); exponential. */
    aqua::sim::Tick meanGpuDowntime = 0;
    /** Readable-memory grace window after a donor failure. */
    aqua::sim::Tick gpuGrace = 50 * aqua::sim::nsPerMs;
    /** Number of link degradation events. */
    std::uint32_t linkDegrades = 0;
    /** Number of coordinator outage windows. */
    std::uint32_t outages = 0;
    /** Mean outage length; exponential. */
    aqua::sim::Tick meanOutageTime = 2 * aqua::sim::nsPerMs;
    /** Number of message-drop windows. */
    std::uint32_t dropWindows = 0;
    /** Drop probability inside a drop window. */
    double dropProbability = 0.5;
    /** Mean drop-window length; exponential. */
    aqua::sim::Tick meanDropTime = 2 * aqua::sim::nsPerMs;
    /** Number of message-delay windows. */
    std::uint32_t delayWindows = 0;
    /** Mean delay-window length; exponential. */
    aqua::sim::Tick meanDelayTime = 5 * aqua::sim::nsPerMs;
    /** Number of coordinator crash/restart cycles. */
    std::uint32_t crashes = 0;
    /** Max journal-tail records lost per crash (uniform in
     *  [0, max]). */
    std::uint32_t crashLoseTail = 0;
    /** Number of payload-corruption windows. */
    std::uint32_t corruptWindows = 0;
    /** Number of SSD bitrot windows. */
    std::uint32_t bitrotWindows = 0;
    /** Per-read bitrot probability inside a window. */
    double bitrotProbability = 0.05;
};

/**
 * A schedule of faults, sorted by injection time.
 */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /** Append a fault (kept sorted by FaultSpec::at). */
    void add(FaultSpec spec);

    const std::vector<FaultSpec> &faults() const { return list; }
    std::size_t size() const { return list.size(); }
    bool empty() const { return list.empty(); }

    /**
     * Seed of the random stream used for probabilistic faults
     * (message drops). Also recorded by toJson().
     */
    std::uint64_t seed() const { return rngSeed; }
    void setSeed(std::uint64_t seed) { rngSeed = seed; }

    /** Serialize: {"seed": n, "faults": [...]}. */
    json::Value toJson() const;

    /** Parse a plan from its JSON form. */
    static FaultPlanParse fromJson(const json::Value &v);

    /** Parse a plan from JSON text. */
    static FaultPlanParse parse(const std::string &text);

    /** Build a plan from @p parsed (which must be ok). */
    static FaultPlan fromParse(const FaultPlanParse &parsed);

    /**
     * Generate a reproducible chaos plan: fault times are uniform over
     * the horizon, lengths exponential around their means, all drawn
     * from a PCG stream seeded with @p seed. The same (seed, config)
     * pair always yields the same plan.
     */
    static FaultPlan random(std::uint64_t seed, const ChaosConfig &cfg);

  private:
    std::vector<FaultSpec> list;
    std::uint64_t rngSeed = 1;
};

/** Counters the injector exposes for benches and tests. */
struct FaultInjectorStats
{
    std::uint64_t injected = 0;
    std::uint64_t recovered = 0;
    std::uint64_t droppedMessages = 0;
    std::uint64_t delayedMessages = 0;
    std::uint64_t rejectedDuringOutage = 0;
    std::uint64_t rejectedDuringCrash = 0;
    std::uint64_t coordinatorCrashes = 0;
};

/**
 * Applies a FaultPlan to one simulated server.
 *
 * The injector schedules every fault on the simulation's event queue
 * at arm() time. GPU failures additionally need the victim's AquaLib
 * registered (registerLib) so its heartbeats stop; coordinator-path
 * faults are implemented through the RestRouter's fault hook, which
 * the injector owns while armed.
 *
 * Trace events (categories "fault_inject" / "fault_recover") carry a
 * monotonically increasing "fault_id"; a clean run pairs them up
 * exactly (trace::TraceLog::unmatchedPairs).
 */
class FaultInjector
{
  public:
    /**
     * @param sim Simulation whose queue drives the plan.
     * @param topology The server interconnect faults apply to.
     * @param router The coordinator REST router faults intercept.
     */
    FaultInjector(aqua::sim::Simulation &sim, hw::Topology &topology,
                  core::RestRouter &router);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;
    ~FaultInjector();

    /** Attach an audit log for inject/recover events. Not owned. */
    void setTraceLog(trace::TraceLog *log) { tracer = log; }

    /** Register a per-GPU AquaLib so gpu_fail faults can reach it. */
    void registerLib(core::AquaLib &lib);

    /** Attach the inter-server fabric so link_degrade faults with
     *  link=fabric can reach it (nullptr detaches). Not owned. */
    void attachFabric(hw::Fabric *fab) { fabric = fab; }

    /**
     * Called when a gpu_fail fault's grace window closes and the
     * GPU's memory goes dark (after Topology::markGpuFailed). Lets
     * cluster-level services — e.g. the prefix registry — react to
     * the death: break leases, promote replicas, invalidate chains.
     */
    void setGpuFailObserver(std::function<void(hw::GpuId)> observer)
    {
        gpuFailObserver = std::move(observer);
    }

    /**
     * Hooks for coordinator_crash faults. @p onCrash fires when the
     * coordinator process dies (its in-memory state is gone from that
     * instant; every REST call in the crash window sees a retryable
     * 503). @p onRestart fires when it comes back cold: the recovery
     * layer replays the journal — minus @p loseTail unflushed tail
     * records — and resyncs against the survivors.
     */
    void setCoordinatorCrashHooks(
        std::function<void(aqua::sim::Tick)> onCrash,
        std::function<void(aqua::sim::Tick, std::uint32_t loseTail)>
            onRestart)
    {
        crashHook = std::move(onCrash);
        restartHook = std::move(onRestart);
    }

    /**
     * Schedule every fault of @p plan on the event queue and install
     * the REST fault hook. May be called once per injector.
     */
    void arm(const FaultPlan &plan);

    const FaultInjectorStats &stats() const { return counters; }

    /** Whether a coordinator outage window is open at @p now. */
    bool coordinatorUnavailable(aqua::sim::Tick now) const
    {
        return (now >= outageStart && now < outageEnd) ||
               (now >= crashStart && now < crashEnd);
    }

    /** Whether a coordinator crash window is open at @p now. */
    bool coordinatorCrashed(aqua::sim::Tick now) const
    {
        return now >= crashStart && now < crashEnd;
    }

  private:
    void inject(std::uint64_t faultId, const FaultSpec &f);
    void recover(std::uint64_t faultId, const FaultSpec &f);
    void traceFault(const char *category, std::uint64_t faultId,
                    const FaultSpec &f);
    /** The RestRouter fault hook: outage/drop/delay behaviour. */
    core::DispatchFault onDispatch(const std::string &route,
                                   const json::Value &body);

    aqua::sim::Simulation &sim;
    hw::Topology &topo;
    core::RestRouter &router;
    hw::Fabric *fabric = nullptr;
    trace::TraceLog *tracer = nullptr;
    std::function<void(hw::GpuId)> gpuFailObserver;
    std::function<void(aqua::sim::Tick)> crashHook;
    std::function<void(aqua::sim::Tick, std::uint32_t)> restartHook;
    std::map<hw::GpuId, core::AquaLib *> libs;
    aqua::sim::Random rng;
    bool armed = false;

    // Active coordinator-path fault windows (absolute ticks).
    aqua::sim::Tick outageStart = 0, outageEnd = 0;
    aqua::sim::Tick crashStart = 0, crashEnd = 0;
    aqua::sim::Tick dropStart = 0, dropEnd = 0;
    double dropProbability = 0.0;
    aqua::sim::Tick delayStart = 0, delayEnd = 0;
    aqua::sim::Tick messageDelay = 0;

    FaultInjectorStats counters;
};

} // namespace aqua::fault

#endif // AQUA_FAULT_FAULT_HH
