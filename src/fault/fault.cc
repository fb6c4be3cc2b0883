#include "fault/fault.hh"

#include <algorithm>
#include <utility>

#include "aqua/aqua_lib.hh"
#include "hw/fabric.hh"
#include "sim/logging.hh"

namespace aqua::fault {

using namespace aqua::sim;
using json::Value;

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::GpuFail:
        return "gpu_fail";
      case FaultKind::LinkDegrade:
        return "link_degrade";
      case FaultKind::CoordinatorOutage:
        return "coordinator_outage";
      case FaultKind::MessageDrop:
        return "message_drop";
      case FaultKind::MessageDelay:
        return "message_delay";
      case FaultKind::SsdDegrade:
        return "ssd_degrade";
      case FaultKind::SsdFail:
        return "ssd_fail";
      case FaultKind::CoordinatorCrash:
        return "coordinator_crash";
      case FaultKind::PayloadCorrupt:
        return "payload_corrupt";
      case FaultKind::SsdBitrot:
        return "ssd_bitrot";
    }
    return "unknown";
}

std::optional<FaultKind>
faultKindFromName(const std::string &name)
{
    for (FaultKind kind :
         {FaultKind::GpuFail, FaultKind::LinkDegrade,
          FaultKind::CoordinatorOutage, FaultKind::MessageDrop,
          FaultKind::MessageDelay, FaultKind::SsdDegrade,
          FaultKind::SsdFail, FaultKind::CoordinatorCrash,
          FaultKind::PayloadCorrupt, FaultKind::SsdBitrot}) {
        if (name == faultKindName(kind))
            return kind;
    }
    return std::nullopt;
}

Value
FaultSpec::toJson() const
{
    Value v;
    v["kind"] = faultKindName(kind);
    v["at_ns"] = static_cast<std::int64_t>(at);
    v["duration_ns"] = static_cast<std::int64_t>(duration);
    switch (kind) {
      case FaultKind::GpuFail:
        v["gpu"] = gpu;
        v["grace_ns"] = static_cast<std::int64_t>(grace);
        break;
      case FaultKind::LinkDegrade:
        v["link"] = link == FaultLink::Nvlink   ? "nvlink"
                    : link == FaultLink::Pcie   ? "pcie"
                                                : "fabric";
        v["factor"] = factor;
        v["flaps"] = static_cast<std::int64_t>(flaps);
        break;
      case FaultKind::CoordinatorOutage:
        break;
      case FaultKind::MessageDrop:
        v["probability"] = probability;
        break;
      case FaultKind::MessageDelay:
        v["delay_ns"] = static_cast<std::int64_t>(delay);
        break;
      case FaultKind::SsdDegrade:
        v["factor"] = factor;
        break;
      case FaultKind::SsdFail:
        break;
      case FaultKind::CoordinatorCrash:
        v["lose_tail"] = static_cast<std::int64_t>(loseTail);
        break;
      case FaultKind::PayloadCorrupt:
      case FaultKind::SsdBitrot:
        v["probability"] = probability;
        break;
    }
    return v;
}

void
FaultPlan::add(FaultSpec spec)
{
    auto pos = std::upper_bound(
        list.begin(), list.end(), spec,
        [](const FaultSpec &a, const FaultSpec &b) {
            return a.at < b.at;
        });
    list.insert(pos, spec);
}

Value
FaultPlan::toJson() const
{
    Value v;
    v["seed"] = static_cast<std::int64_t>(rngSeed);
    json::Array faults;
    for (const FaultSpec &f : list)
        faults.push_back(f.toJson());
    v["faults"] = Value(std::move(faults));
    return v;
}

namespace {

FaultPlanParse
parseError(std::string why)
{
    FaultPlanParse out;
    out.ok = false;
    out.error = std::move(why);
    return out;
}

} // anonymous namespace

FaultPlanParse
FaultPlan::fromJson(const Value &v)
{
    if (!v.isObject())
        return parseError("plan must be a JSON object");
    FaultPlanParse out;
    out.seed = static_cast<std::uint64_t>(v.getInt("seed", 1));
    const Value *faults = v.find("faults");
    if (!faults || !faults->isArray())
        return parseError("plan needs a \"faults\" array");
    std::size_t idx = 0;
    for (const Value &entry : faults->asArray()) {
        std::string at = "faults[" + std::to_string(idx++) + "]";
        if (!entry.isObject())
            return parseError(at + ": fault must be an object");
        std::string kindName = entry.getString("kind", "");
        auto kind = faultKindFromName(kindName);
        if (!kind)
            return parseError(at + ": unknown kind \"" + kindName +
                              "\"");
        FaultSpec f;
        f.kind = *kind;
        f.at = static_cast<Tick>(entry.getInt("at_ns", -1));
        if (entry.getInt("at_ns", -1) < 0)
            return parseError(at + ": needs at_ns >= 0");
        f.duration =
            static_cast<Tick>(entry.getInt("duration_ns", 0));
        switch (*kind) {
          case FaultKind::GpuFail: {
            std::int64_t gpu = entry.getInt("gpu", -1);
            if (gpu < 0)
                return parseError(at + ": gpu_fail needs gpu");
            f.gpu = static_cast<hw::GpuId>(gpu);
            f.grace = static_cast<Tick>(entry.getInt("grace_ns", 0));
            break;
          }
          case FaultKind::LinkDegrade: {
            std::string link = entry.getString("link", "nvlink");
            if (link == "nvlink") {
                f.link = FaultLink::Nvlink;
            } else if (link == "pcie") {
                f.link = FaultLink::Pcie;
            } else if (link == "fabric") {
                f.link = FaultLink::Fabric;
            } else {
                return parseError(
                    at + ": link must be nvlink|pcie|fabric");
            }
            f.factor = entry.getDouble("factor", 1.0);
            if (f.factor <= 0.0 || f.factor > 1.0)
                return parseError(at + ": factor must be in (0, 1]");
            f.flaps = static_cast<std::uint32_t>(
                entry.getInt("flaps", 1));
            if (f.flaps == 0)
                return parseError(at + ": flaps must be >= 1");
            if (f.duration == 0)
                return parseError(at +
                                  ": link_degrade needs duration_ns");
            break;
          }
          case FaultKind::CoordinatorOutage:
            if (f.duration == 0)
                return parseError(
                    at + ": coordinator_outage needs duration_ns");
            break;
          case FaultKind::MessageDrop:
            f.probability = entry.getDouble("probability", 1.0);
            if (f.probability < 0.0 || f.probability > 1.0)
                return parseError(at +
                                  ": probability must be in [0, 1]");
            if (f.duration == 0)
                return parseError(at +
                                  ": message_drop needs duration_ns");
            break;
          case FaultKind::MessageDelay:
            f.delay = static_cast<Tick>(entry.getInt("delay_ns", 0));
            if (f.delay == 0)
                return parseError(at +
                                  ": message_delay needs delay_ns");
            if (f.duration == 0)
                return parseError(at +
                                  ": message_delay needs duration_ns");
            break;
          case FaultKind::SsdDegrade:
            f.factor = entry.getDouble("factor", 1.0);
            if (f.factor <= 0.0 || f.factor > 1.0)
                return parseError(at + ": factor must be in (0, 1]");
            if (f.duration == 0)
                return parseError(at +
                                  ": ssd_degrade needs duration_ns");
            break;
          case FaultKind::SsdFail:
            // Like gpu_fail, duration 0 = the drive never comes back.
            break;
          case FaultKind::CoordinatorCrash:
            // The restart is the interesting part: a crash that never
            // recovers is just a permanent outage.
            if (f.duration == 0)
                return parseError(
                    at + ": coordinator_crash needs duration_ns");
            f.loseTail = static_cast<std::uint32_t>(
                entry.getInt("lose_tail", 0));
            break;
          case FaultKind::PayloadCorrupt:
            f.probability = entry.getDouble("probability", 1.0);
            if (f.probability <= 0.0 || f.probability > 1.0)
                return parseError(at +
                                  ": probability must be in (0, 1]");
            if (f.duration == 0)
                return parseError(
                    at + ": payload_corrupt needs duration_ns");
            break;
          case FaultKind::SsdBitrot:
            f.probability = entry.getDouble("probability", 1.0);
            if (f.probability <= 0.0 || f.probability > 1.0)
                return parseError(at +
                                  ": probability must be in (0, 1]");
            if (f.duration == 0)
                return parseError(at +
                                  ": ssd_bitrot needs duration_ns");
            break;
        }
        out.faults.push_back(f);
    }
    out.ok = true;
    return out;
}

FaultPlanParse
FaultPlan::parse(const std::string &text)
{
    json::ParseResult parsed = json::parse(text);
    if (!parsed.ok)
        return parseError("bad json: " + parsed.error);
    return fromJson(parsed.value);
}

FaultPlan
FaultPlan::fromParse(const FaultPlanParse &parsed)
{
    if (!parsed.ok)
        panic("FaultPlan::fromParse: %s", parsed.error.c_str());
    FaultPlan plan;
    plan.setSeed(parsed.seed);
    for (const FaultSpec &f : parsed.faults)
        plan.add(f);
    return plan;
}

/** Degraded-bandwidth factor range [min, max) of random chaos. */
constexpr double minDegradeFactor = 0.1;
constexpr double maxDegradeFactor = 0.5;
/** Mean degradation length; exponential. */
constexpr Tick meanDegradeTime = 10 * nsPerMs;
/** Max flap cycles per degradation (uniform in [1, max]). */
constexpr std::uint32_t maxFlaps = 3;
/** Injected per-call delay inside a delay window. */
constexpr Tick messageDelay = 1 * nsPerMs;
/** Mean crash (dead-coordinator) length; exponential. */
constexpr Tick meanCrashTime = 2 * nsPerMs;
/** Per-payload corruption probability inside a window. */
constexpr double corruptProbability = 0.05;
/** Mean corruption-window length; exponential. */
constexpr Tick meanCorruptTime = 5 * nsPerMs;
/** Mean bitrot-window length; exponential. */
constexpr Tick meanBitrotTime = 5 * nsPerMs;

FaultPlan
FaultPlan::random(std::uint64_t seed, const ChaosConfig &cfg)
{
    FaultPlan plan;
    plan.setSeed(seed);
    Random rng(seed);

    auto when = [&] {
        return static_cast<Tick>(rng.uniform() *
                                 static_cast<double>(cfg.horizon));
    };
    auto length = [&](Tick mean) -> Tick {
        if (mean == 0)
            return 0;
        double rate = 1.0 / static_cast<double>(mean);
        Tick t = static_cast<Tick>(rng.exponential(rate));
        return t > 0 ? t : 1;
    };

    for (std::uint32_t i = 0; i < cfg.gpuFailures; ++i) {
        if (cfg.donorGpus.empty())
            break;
        FaultSpec f;
        f.kind = FaultKind::GpuFail;
        f.at = when();
        f.duration = length(cfg.meanGpuDowntime);
        f.gpu = cfg.donorGpus[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(cfg.donorGpus.size()) - 1))];
        f.grace = cfg.gpuGrace;
        plan.add(f);
    }
    for (std::uint32_t i = 0; i < cfg.linkDegrades; ++i) {
        FaultSpec f;
        f.kind = FaultKind::LinkDegrade;
        f.at = when();
        f.duration = length(meanDegradeTime);
        f.link = rng.bernoulli(0.5) ? FaultLink::Nvlink
                                    : FaultLink::Pcie;
        f.factor = rng.uniform(minDegradeFactor, maxDegradeFactor);
        f.flaps = static_cast<std::uint32_t>(rng.uniformInt(1, maxFlaps));
        plan.add(f);
    }
    for (std::uint32_t i = 0; i < cfg.outages; ++i) {
        FaultSpec f;
        f.kind = FaultKind::CoordinatorOutage;
        f.at = when();
        f.duration = length(cfg.meanOutageTime);
        plan.add(f);
    }
    for (std::uint32_t i = 0; i < cfg.dropWindows; ++i) {
        FaultSpec f;
        f.kind = FaultKind::MessageDrop;
        f.at = when();
        f.duration = length(cfg.meanDropTime);
        f.probability = cfg.dropProbability;
        plan.add(f);
    }
    for (std::uint32_t i = 0; i < cfg.delayWindows; ++i) {
        FaultSpec f;
        f.kind = FaultKind::MessageDelay;
        f.at = when();
        f.duration = length(cfg.meanDelayTime);
        f.delay = messageDelay;
        plan.add(f);
    }
    for (std::uint32_t i = 0; i < cfg.crashes; ++i) {
        FaultSpec f;
        f.kind = FaultKind::CoordinatorCrash;
        f.at = when();
        Tick d = length(meanCrashTime);
        f.duration = d > 0 ? d : 1; // a crash always restarts
        f.loseTail = static_cast<std::uint32_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(cfg.crashLoseTail)));
        plan.add(f);
    }
    for (std::uint32_t i = 0; i < cfg.corruptWindows; ++i) {
        FaultSpec f;
        f.kind = FaultKind::PayloadCorrupt;
        f.at = when();
        Tick d = length(meanCorruptTime);
        f.duration = d > 0 ? d : 1;
        f.probability = corruptProbability;
        plan.add(f);
    }
    for (std::uint32_t i = 0; i < cfg.bitrotWindows; ++i) {
        FaultSpec f;
        f.kind = FaultKind::SsdBitrot;
        f.at = when();
        Tick d = length(meanBitrotTime);
        f.duration = d > 0 ? d : 1;
        f.probability = cfg.bitrotProbability;
        plan.add(f);
    }
    return plan;
}

FaultInjector::FaultInjector(Simulation &sim, hw::Topology &topology,
                             core::RestRouter &router)
    : sim(sim), topo(topology), router(router), rng(1)
{
}

FaultInjector::~FaultInjector()
{
    if (armed)
        router.setFaultHook(nullptr);
}

void
FaultInjector::registerLib(core::AquaLib &lib)
{
    libs[lib.gpuId()] = &lib;
}

void
FaultInjector::traceFault(const char *category, std::uint64_t faultId,
                          const FaultSpec &f)
{
    if (!tracer)
        return;
    Value fields = f.toJson();
    fields["fault_id"] = static_cast<std::int64_t>(faultId);
    tracer->emit(sim.now(), category, std::move(fields));
}

void
FaultInjector::arm(const FaultPlan &plan)
{
    if (armed)
        panic("FaultInjector::arm: already armed");
    armed = true;
    rng = Random(plan.seed());
    router.setFaultHook([this](const std::string &route,
                               const Value &body) {
        return onDispatch(route, body);
    });

    std::uint64_t faultId = 0;
    for (const FaultSpec &spec : plan.faults()) {
        if (spec.kind == FaultKind::LinkDegrade && spec.flaps > 1) {
            // A flap is N degrade/recover cycles with the degraded
            // and healthy phases of equal length; each cycle gets its
            // own fault id so inject/recover events pair up.
            for (std::uint32_t k = 0; k < spec.flaps; ++k) {
                FaultSpec cycle = spec;
                cycle.flaps = 1;
                cycle.at = spec.at + k * 2 * spec.duration;
                std::uint64_t id = faultId++;
                sim.queue().schedule(cycle.at, [this, id, cycle] {
                    inject(id, cycle);
                });
            }
            continue;
        }
        std::uint64_t id = faultId++;
        sim.queue().schedule(spec.at, [this, id, spec] {
            inject(id, spec);
        });
    }
}

void
FaultInjector::inject(std::uint64_t faultId, const FaultSpec &f)
{
    ++counters.injected;
    traceFault("fault_inject", faultId, f);
    switch (f.kind) {
      case FaultKind::GpuFail: {
        // The GPU's software stack dies now: heartbeats stop, its
        // informer goes silent. Its HBM stays readable through the
        // grace window so emergency evacuation can race the failure,
        // then the ports go dark.
        auto it = libs.find(f.gpu);
        if (it != libs.end())
            it->second->setFailed(true);
        // If the GPU comes back before its grace window closes (a
        // transient software crash), its memory never goes dark.
        if (f.duration == 0 || f.duration > f.grace) {
            sim.queue().schedule(sim.now() + f.grace,
                                 [this, gpu = f.gpu] {
                topo.markGpuFailed(gpu, true);
                if (gpuFailObserver)
                    gpuFailObserver(gpu);
            });
        }
        break;
      }
      case FaultKind::LinkDegrade:
        if (f.link == FaultLink::Nvlink) {
            topo.degradePeerLink(f.factor);
        } else if (f.link == FaultLink::Pcie) {
            topo.degradeHostLink(f.factor);
        } else {
            if (!fabric)
                panic("link_degrade on the fabric needs "
                      "FaultInjector::attachFabric");
            fabric->setDegradation(f.factor);
        }
        break;
      case FaultKind::CoordinatorOutage:
        outageStart = f.at;
        outageEnd = f.at + f.duration;
        break;
      case FaultKind::MessageDrop:
        dropStart = f.at;
        dropEnd = f.at + f.duration;
        dropProbability = f.probability;
        break;
      case FaultKind::MessageDelay:
        delayStart = f.at;
        delayEnd = f.at + f.duration;
        messageDelay = f.delay;
        break;
      case FaultKind::SsdDegrade:
        topo.degradeSsd(f.factor);
        break;
      case FaultKind::SsdFail:
        topo.markSsdFailed(true);
        break;
      case FaultKind::CoordinatorCrash:
        // The coordinator process is gone from this instant: its
        // in-memory maps no longer exist, and every REST call in the
        // window is rejected retryably. The recovery layer (the crash
        // hook) freezes dependent services until the restart resyncs.
        ++counters.coordinatorCrashes;
        crashStart = f.at;
        crashEnd = f.at + f.duration;
        if (crashHook)
            crashHook(sim.now());
        break;
      case FaultKind::PayloadCorrupt:
        topo.setPayloadCorruption(f.probability);
        break;
      case FaultKind::SsdBitrot:
        topo.setSsdBitrot(f.probability);
        break;
    }
    if (f.duration == 0)
        return; // permanent fault: no recovery event
    sim.queue().schedule(sim.now() + f.duration, [this, faultId, f] {
        recover(faultId, f);
    });
}

void
FaultInjector::recover(std::uint64_t faultId, const FaultSpec &f)
{
    ++counters.recovered;
    switch (f.kind) {
      case FaultKind::GpuFail: {
        topo.markGpuFailed(f.gpu, false);
        auto it = libs.find(f.gpu);
        if (it != libs.end())
            it->second->setFailed(false);
        break;
      }
      case FaultKind::LinkDegrade:
        if (f.link == FaultLink::Nvlink) {
            topo.degradePeerLink(1.0);
        } else if (f.link == FaultLink::Pcie) {
            topo.degradeHostLink(1.0);
        } else if (fabric) {
            fabric->setDegradation(1.0);
        }
        break;
      case FaultKind::CoordinatorOutage:
      case FaultKind::MessageDrop:
      case FaultKind::MessageDelay:
        // Window faults expire by timestamp; nothing to undo.
        break;
      case FaultKind::SsdDegrade:
        topo.degradeSsd(1.0);
        break;
      case FaultKind::SsdFail:
        topo.markSsdFailed(false);
        break;
      case FaultKind::CoordinatorCrash:
        // Cold restart: replay journal minus the lost tail, then
        // resync against the survivors (RecoveryManager's job).
        if (restartHook)
            restartHook(sim.now(), f.loseTail);
        break;
      case FaultKind::PayloadCorrupt:
        topo.setPayloadCorruption(0.0);
        break;
      case FaultKind::SsdBitrot:
        topo.setSsdBitrot(0.0);
        break;
    }
    traceFault("fault_recover", faultId, f);
}

core::DispatchFault
FaultInjector::onDispatch(const std::string &route, const Value &body)
{
    core::DispatchFault fate;
    // Retries back off in *virtual* time: the caller stamps each
    // attempt with "now" = sim time plus the backoff already served,
    // so a retry issued "after" a window closes gets through even
    // though the simulation clock has not advanced mid-call.
    Tick now = static_cast<Tick>(
        body.getInt("now", static_cast<std::int64_t>(sim.now())));
    (void)route;
    if (now >= crashStart && now < crashEnd) {
        ++counters.rejectedDuringCrash;
        fate.fate = core::DispatchFault::Fate::Reject;
        fate.status = core::RestStatus::ServiceUnavailable;
        fate.reason = "injected coordinator crash";
        return fate;
    }
    if (now >= outageStart && now < outageEnd) {
        ++counters.rejectedDuringOutage;
        fate.fate = core::DispatchFault::Fate::Reject;
        fate.status = core::RestStatus::ServiceUnavailable;
        fate.reason = "injected coordinator outage";
        return fate;
    }
    if (now >= dropStart && now < dropEnd &&
        rng.bernoulli(dropProbability)) {
        ++counters.droppedMessages;
        fate.fate = core::DispatchFault::Fate::Reject;
        fate.status = core::RestStatus::Timeout;
        fate.reason = "injected message drop";
        return fate;
    }
    if (now >= delayStart && now < delayEnd) {
        ++counters.delayedMessages;
        fate.fate = core::DispatchFault::Fate::Delay;
        fate.extraLatency = messageDelay;
        return fate;
    }
    return fate;
}

} // namespace aqua::fault
