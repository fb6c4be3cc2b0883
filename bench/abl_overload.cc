/**
 * @file
 * Ablation: overload control (deadline-aware admission + graceful
 * brownout + backpressure) under an offered-load sweep.
 *
 * Bursty deadline-stamped traffic is replayed at x1..x8 the nominal
 * rate against two configurations of the same AQUA-offloaded serving
 * stack: the uncontrolled baseline (every arrival eventually served,
 * however late) and the controlled stack (admission control sheds
 * requests whose deadline the queue already ate; the brownout ladder
 * degrades optional work before refusing admissions). Reported per
 * cell: goodput (deadline-met completions/s), deadline attainment,
 * queue-delay percentiles, sheds and brownout activity.
 *
 * The final cell replays the x4 overload with a chaos fault plan
 * injected against the donor (fault::FaultPlan): overload control and
 * failure recovery must compose — zero byte-identity violations and
 * no stuck sequences.
 *
 * `--smoke` shrinks the sweep for quick pipelines.
 */

#include <cstring>
#include <vector>

#include "bench/bench_util.hh"
#include "exp/experiments.hh"
#include "fault/fault.hh"
#include "sim/ticks.hh"
#include "trace/trace.hh"

using namespace aqua;
using namespace aqua::sim;

namespace {

json::Object
cellJson(const exp::OverloadRunResult &r)
{
    json::Object o;
    o["requests"] = static_cast<std::int64_t>(r.metrics.size());
    o["shed"] = static_cast<std::int64_t>(r.shed);
    o["deadline_met"] = static_cast<std::int64_t>(r.deadlineMet);
    o["deadline_missed"] =
        static_cast<std::int64_t>(r.deadlineMissed);
    o["goodput_per_sec"] = r.goodputPerSec;
    o["attainment"] = r.attainment;
    o["queue_delay_p50_sec"] = r.queueDelayP50Sec;
    o["queue_delay_p99_sec"] = r.queueDelayP99Sec;
    o["fallback_swaps"] = static_cast<std::int64_t>(r.fallbackSwaps);
    o["brownout_transitions"] =
        static_cast<std::int64_t>(r.brownoutTransitions);
    o["seconds_degraded"] = r.secondsDegraded;
    o["sig_mismatches"] = static_cast<std::int64_t>(r.sigMismatches);
    o["unfinished"] = static_cast<std::int64_t>(r.unfinished);
    o["elapsed_sec"] = r.elapsedSec;
    return o;
}

/** Chaos plan for the fault+overload composition cell: transient
 *  donor loss plus link degradation mid-burst. */
fault::FaultPlan
overloadChaosPlan()
{
    fault::FaultPlan plan;
    fault::FaultSpec degrade;
    degrade.kind = fault::FaultKind::LinkDegrade;
    degrade.at = secToTicks(10.0);
    degrade.duration = secToTicks(15.0);
    degrade.factor = 0.3;
    plan.add(degrade);
    fault::FaultSpec kill;
    kill.kind = fault::FaultKind::GpuFail;
    kill.at = secToTicks(30.0);
    kill.duration = secToTicks(8.0);
    kill.gpu = 1;
    // Evacuation settles at engine iteration boundaries; under x4
    // overload iterations stretch, so the dark-memory grace must be
    // wider than the light-load 200ms seed_robustness gets away with.
    kill.grace = secToTicks(2.0);
    plan.add(kill);
    return plan;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    bench::banner("Overload-control ablation",
                  "bursty deadline traffic at x1..x8 load, "
                  "controlled vs uncontrolled");

    exp::OverloadRunConfig base;
    if (smoke) {
        base.numRequests = 80;
        base.maxSimSeconds = 1500.0;
    }

    std::vector<double> loads =
        smoke ? std::vector<double>{1.0, 4.0}
              : std::vector<double>{1.0, 2.0, 4.0, 8.0};

    stats::Table t({"load", "config", "served", "shed", "met",
                    "goodput/s", "attain", "qdelay p99 s",
                    "brownout", "fallback"});
    json::Object cells;
    exp::OverloadRunResult ctl1, ctl4, raw1, raw4;
    for (double load : loads) {
        for (int controlled = 0; controlled <= 1; ++controlled) {
            exp::OverloadRunConfig cfg = base;
            cfg.loadMultiplier = load;
            cfg.controlled = controlled != 0;
            exp::OverloadRunResult r = exp::runOverload(cfg);
            std::uint64_t served =
                r.deadlineMet + r.deadlineMissed;
            t.newRow()
                .cell("x" + std::to_string(static_cast<int>(load)))
                .cell(controlled ? "controlled" : "baseline")
                .cell(static_cast<double>(served), 0)
                .cell(static_cast<double>(r.shed), 0)
                .cell(static_cast<double>(r.deadlineMet), 0)
                .cell(r.goodputPerSec, 2)
                .cell(r.attainment, 2)
                .cell(r.queueDelayP99Sec, 2)
                .cell(static_cast<double>(r.brownoutTransitions), 0)
                .cell(static_cast<double>(r.fallbackSwaps), 0);
            std::string key =
                std::string(controlled ? "controlled" : "baseline") +
                "_x" + std::to_string(static_cast<int>(load));
            cells[key] = cellJson(r);
            if (load == 1.0 && controlled)
                ctl1 = r;
            if (load == 4.0 && controlled)
                ctl4 = r;
            if (load == 1.0 && !controlled)
                raw1 = r;
            if (load == 4.0 && !controlled)
                raw4 = r;
        }
    }
    bench::show(t);

    // Acceptance: at x4 offered load the controlled stack sustains
    // >= 80% of its x1 goodput with bounded p99 queue delay and no
    // stuck sequences, while the baseline's goodput collapses (under
    // half of its x1 value) behind an unbounded queue.
    bool okGoodput = ctl4.goodputPerSec >= 0.8 * ctl1.goodputPerSec;
    bool okBaselineCollapse =
        raw4.goodputPerSec < 0.5 * raw1.goodputPerSec ||
        raw4.goodputPerSec < ctl4.goodputPerSec;
    // "Bounded": under the absolute bound the SLO implies (a met
    // deadline caps queueing delay at (sloMultiple-1) x baseline) and
    // strictly below the baseline's runaway delay.
    bool okQueueDelay =
        ctl4.queueDelayP99Sec < raw4.queueDelayP99Sec &&
        ctl4.queueDelayP99Sec <= 60.0;
    bool okNoStuck = ctl1.unfinished == 0 && ctl4.unfinished == 0;
    bool okBrownout = ctl4.brownoutTransitions > 0 && ctl4.shed > 0;

    // Fault+overload composition: chaos at x4 with controls on.
    trace::TraceLog chaosLog;
    fault::FaultPlan plan = overloadChaosPlan();
    exp::OverloadRunConfig chaosCfg = base;
    chaosCfg.loadMultiplier = 4.0;
    chaosCfg.controlled = true;
    chaosCfg.faults = &plan;
    chaosCfg.traceLog = &chaosLog;
    exp::OverloadRunResult chaos = exp::runOverload(chaosCfg);
    cells["chaos_controlled_x4"] = cellJson(chaos);
    bool okChaos = chaos.sigMismatches == 0 && chaos.unfinished == 0;
    std::size_t shedEvents = chaosLog.countCategory("shed");
    std::size_t levelEvents = chaosLog.countCategory("brownout_level");

    std::printf("x4/x1 controlled goodput %.2f/%.2f (%.0f%%), "
                "baseline %.2f/%.2f\n",
                ctl4.goodputPerSec, ctl1.goodputPerSec,
                ctl1.goodputPerSec > 0.0
                    ? 100.0 * ctl4.goodputPerSec / ctl1.goodputPerSec
                    : 0.0,
                raw4.goodputPerSec, raw1.goodputPerSec);
    std::printf("chaos cell: %llu sheds traced, %llu brownout "
                "transitions traced, %llu sig mismatches, %llu "
                "unfinished\n",
                static_cast<unsigned long long>(shedEvents),
                static_cast<unsigned long long>(levelEvents),
                static_cast<unsigned long long>(chaos.sigMismatches),
                static_cast<unsigned long long>(chaos.unfinished));
    std::printf("acceptance: goodput>=80%% %s, baseline_collapses %s, "
                "bounded_p99 %s, no_stuck %s, brownout_active %s, "
                "chaos_intact %s\n",
                okGoodput ? "PASS" : "FAIL",
                okBaselineCollapse ? "PASS" : "FAIL",
                okQueueDelay ? "PASS" : "FAIL",
                okNoStuck ? "PASS" : "FAIL",
                okBrownout ? "PASS" : "FAIL",
                okChaos ? "PASS" : "FAIL");

    bench::JsonReporter report("overload");
    report.set("smoke", smoke)
        .set("num_requests",
             static_cast<std::int64_t>(base.numRequests))
        .set("slo_multiple", exp::overloadSloMultiple)
        .set("best_effort_fraction", base.bestEffortFraction);
    report.set("cells", std::move(cells));
    json::Object accept;
    accept["controlled_goodput_ge_80pct"] = okGoodput;
    accept["baseline_collapses"] = okBaselineCollapse;
    accept["bounded_queue_delay_p99"] = okQueueDelay;
    accept["no_stuck_sequences"] = okNoStuck;
    accept["brownout_active"] = okBrownout;
    accept["chaos_byte_identity"] = okChaos;
    report.set("acceptance", std::move(accept));
    report.write();

    bool ok = okGoodput && okBaselineCollapse && okQueueDelay &&
              okNoStuck && okBrownout && okChaos;
    return ok ? 0 : 1;
}
