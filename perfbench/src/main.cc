/**
 * @file
 * The benchmark harness.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE]
 *
 * A workload is a fixed list of instances whose seeds derive from
 * --seed. A pass builds (set-up) and runs (timed phase) every
 * instance once; passes repeat until --seconds are spent. run_s and
 * setup_s sum, over instances, the median of that instance's timings
 * across passes, rescaled to a reference host speed by a probe timed
 * between instances (see probeSeconds). Every pass must reproduce the
 * first pass's output digests bit for bit.
 *
 * With --trace 0 the result line carries the end-to-end metrics.
 * With --trace 1 half the time runs untraced and half traced (spans
 * recorded around every layer call, decorators handed to the
 * engines); the result line carries the per-layer metrics, including
 * the tracing overhead, and the spans of the first traced pass are
 * written to --trace-out as Chrome trace-event JSON.
 *
 * Simulated-clock metrics and the output digest are printed on the
 * lines before the result line. Exit status is non-zero when any
 * correctness gate trips.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "report.hh"
#include "sim/logging.hh"
#include "spans.hh"
#include "workload.hh"

using namespace perfbench;

namespace {

/** Set-ups timed per instance, for a median, and the share of the
 *  run's budget extra set-ups may take to get there. */
constexpr std::size_t kMinSetups = 9;
constexpr double kTopUpShare = 0.05;

/**
 * Host-speed probe: its duration at reference speed, and the time spent
 * probing after each timed phase, as a share of that phase.
 */
constexpr double kProbeRefS = 0.004;
constexpr double kProbeShare = 0.03;

/** Spans written to the trace file; keeps it to tens of megabytes. */
constexpr std::size_t kMaxTraceSpans = 200000;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            aqua::sim::fatal("missing value for %s", a.c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(v, nullptr);
        else if (a == "--trace")
            o.trace = std::strcmp(v, "0") != 0;
        else if (a == "--trace-out")
            o.traceOut = v;
        else
            aqua::sim::fatal("unknown argument %s", a.c_str());
    }
    if (o.seconds <= 0.0)
        aqua::sim::fatal("--seconds must be positive");
    return o;
}

std::uint64_t
instanceSeed(std::uint64_t seed, std::size_t k)
{
    // splitmix64 of (seed, k): distinct, well-mixed instance seeds.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + k + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * A fixed piece of work in the style of the simulator's hot paths:
 * fill a hash map and look every key up twice, then churn a binary
 * heap. @return its host seconds.
 */
double
probeSeconds()
{
    constexpr std::uint64_t keys = 16384;
    std::int64_t t0 = nowNs();
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t i = 0; i < keys; ++i)
        map.emplace(i * 0x9e3779b97f4a7c15ull, i);
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < 2 * keys; ++i)
        hits += map.count((i % keys) * 0x9e3779b97f4a7c15ull);
    std::priority_queue<std::uint64_t> heap;
    std::uint64_t x = 1;
    for (int i = 0; i < 60000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        heap.push(x >> 11);
        if (i & 1)
            heap.pop();
    }
    double seconds = double(nowNs() - t0) / 1e9;
    if (hits != 2 * keys || heap.size() != 30000)
        aqua::sim::panic("host-speed probe computed a wrong result");
    return seconds;
}

/** Timings and outputs of repeated passes over a workload. */
struct Passes
{
    /** [instance] -> host seconds of each repetition. */
    std::vector<std::vector<double>> setupS, runS;
    /** Host-speed probe samples taken between repetitions. */
    std::vector<double> probeS;
    /** Outputs of the first pass, per instance. */
    std::vector<Outputs> outputs;
    std::size_t count = 0;
    /** Spans per traced pass (empty when untraced). */
    std::vector<Spans> spans;

    double
    sumOfMedians(const std::vector<std::vector<double>> &t) const
    {
        double s = 0.0;
        for (const auto &v : t)
            s += median(v);
        return s;
    }
    /** Median probe time over its reference: 1.2 = host 20% slow. */
    double slowdown() const { return median(probeS) / kProbeRefS; }
    /** Host seconds at reference speed (see probeSeconds). */
    double setupSeconds() const { return rawSetupSeconds() / slowdown(); }
    double runSeconds() const { return rawRunSeconds() / slowdown(); }
    double rawSetupSeconds() const { return sumOfMedians(setupS); }
    double rawRunSeconds() const { return sumOfMedians(runS); }
};

/**
 * Run passes until @p budget seconds are spent (at least one). Later
 * passes must reproduce @p reference digests (the first pass's own
 * when null); mismatches are appended to @p errors.
 */
Passes
runPasses(const WorkloadDef &w, const std::vector<std::uint64_t> &seeds,
          double budget, bool traced, const std::vector<Outputs> *reference,
          std::vector<std::string> &errors)
{
    Passes p;
    p.setupS.resize(seeds.size());
    p.runS.resize(seeds.size());
    std::int64_t start = nowNs();
    for (;;) {
        std::int64_t passStart = nowNs();
        Spans *spans = nullptr;
        if (traced) {
            p.spans.emplace_back();
            spans = &p.spans.back();
        }
        for (std::size_t k = 0; k < seeds.size(); ++k) {
            std::int64_t t0 = nowNs();
            std::unique_ptr<Instance> inst;
            {
                Scope s(spans, "setup", k);
                inst = w.make(seeds[k], spans);
            }
            std::int64_t t1 = nowNs();
            {
                Scope s(spans, "run", k);
                inst->run();
            }
            std::int64_t t2 = nowNs();
            p.setupS[k].push_back(double(t1 - t0) / 1e9);
            p.runS[k].push_back(double(t2 - t1) / 1e9);

            Outputs out = inst->outputs();
            if (traced && p.count == 0)
                inst->afterTrace(*spans, out);
            const Outputs *ref = reference ? &(*reference)[k]
                                 : p.count ? &p.outputs[k]
                                           : nullptr;
            if (ref && ref->digest != out.digest)
                errors.push_back("instance " + std::to_string(k) +
                                 ": output digest differs between " +
                                 (reference ? "traced and untraced runs"
                                            : "repetitions"));
            if (p.count == 0)
                p.outputs.push_back(std::move(out));

            // Sample host speed in proportion to the time just measured,
            // once the instance's memory is released (a live instance's
            // heap slows the probe's allocations erratically).
            inst.reset();
            double probeBudget = kProbeShare * double(t2 - t1) / 1e9;
            std::int64_t probeStart = nowNs();
            do
                p.probeS.push_back(probeSeconds());
            while (double(nowNs() - probeStart) / 1e9 < probeBudget);
        }
        ++p.count;
        std::int64_t now = nowNs();
        // Stop when another pass of the same length would overrun.
        if (double(now - start) / 1e9 + double(now - passStart) / 1e9 >
            budget)
            break;
    }
    // setup_s is a median too. Millisecond set-ups jitter a lot, so top
    // up instances with fewer than kMinSetups samples, round-robin, with
    // set-ups that are timed but not run, spending at most
    // kTopUpShare of the budget.
    std::int64_t topUpStart = nowNs();
    for (bool more = true; more;) {
        more = false;
        for (std::size_t k = 0; k < seeds.size(); ++k) {
            if (p.setupS[k].size() >= kMinSetups ||
                double(nowNs() - topUpStart) / 1e9 > kTopUpShare * budget)
                continue;
            std::int64_t t0 = nowNs();
            std::unique_ptr<Instance> inst = w.make(seeds[k], nullptr);
            p.setupS[k].push_back(double(nowNs() - t0) / 1e9);
            more = true;
        }
    }
    return p;
}

/** Outputs of all instances of one pass, merged. */
Outputs
merge(const std::vector<Outputs> &all)
{
    Outputs m;
    for (const Outputs &o : all) {
        m.errors.insert(m.errors.end(), o.errors.begin(), o.errors.end());
        m.attempted += o.attempted;
        m.failed += o.failed;
        m.broken += o.broken;
        m.ttft.insert(m.ttft.end(), o.ttft.begin(), o.ttft.end());
        m.rct.insert(m.rct.end(), o.rct.begin(), o.rct.end());
        m.rctSumS += o.rctSumS;
        m.rctCount += o.rctCount;
        m.simS += o.simS;
        m.good += o.good;
        m.tokens += o.tokens;
        m.objectiveSum += o.objectiveSum;
        m.objectives += o.objectives;
        m.consumers += o.consumers;
        m.paired += o.paired;
        for (const auto &[name, v] : o.counters)
            m.counters[name] += v;
        Digest d;
        d.mix(m.digest);
        d.mix(o.digest);
        m.digest = d.value();
    }
    return m;
}

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

/** Simulated-clock end-to-end metrics that apply to @p o. */
std::vector<Metric>
simulatedMetrics(const Outputs &o)
{
    std::vector<Metric> ms;
    auto latency = [&ms](const char *what, const std::vector<double> &v) {
        if (v.empty())
            return;
        Tail t = tailPercentile(v);
        ms.push_back({std::string(what) + "_p50_s", "s", median(v),
                      "n=" + std::to_string(v.size())});
        ms.push_back({std::string(what) + "_tail_s", "s", t.value,
                      tailNote(t)});
    };
    latency("ttft", o.ttft);
    latency("rct", o.rct);
    if (o.rctCount)
        ms.push_back({"rct_mean_s", "s", o.rctSumS / double(o.rctCount),
                      "n=" + std::to_string(o.rctCount)});
    if (o.simS > 0.0) {
        ms.push_back({"goodput_rps", "1/s", o.good / o.simS,
                      std::to_string(o.good) + " within limit over " +
                          std::to_string(o.simS) + " simulated s"});
        ms.push_back({"tokens_per_s", "1/s", o.tokens / o.simS, ""});
    }
    ms.push_back({"failed_frac", "ratio",
                  ratio(double(o.failed), double(o.attempted)),
                  std::to_string(o.failed) + " of " +
                      std::to_string(o.attempted)});
    if (o.objectives)
        ms.push_back({"placer_objective", "GB",
                      o.objectiveSum / double(o.objectives) / 1e9,
                      "mean of " + std::to_string(o.objectives)});
    if (o.consumers)
        ms.push_back({"paired_frac", "ratio",
                      ratio(double(o.paired), double(o.consumers)),
                      std::to_string(o.paired) + " of " +
                          std::to_string(o.consumers)});
    return ms;
}

/** Per-layer metrics from counters and the traced passes' spans. */
std::vector<Metric>
layerMetrics(const Outputs &o, const Passes &traced, double overheadS)
{
    // Span times are per pass and at reference speed, like run_s.
    std::map<std::string, LayerTime> red;
    for (const Spans &s : traced.spans)
        for (const auto &[name, t] : reduceSpans(s.all())) {
            LayerTime &acc = red[name];
            acc.calls += t.calls;
            acc.totalS += t.totalS;
            acc.selfS += t.selfS;
        }
    double passes = double(std::max<std::size_t>(traced.spans.size(), 1));
    double timeScale = 1.0 / (passes * traced.slowdown());
    auto self = [&](const char *layer) {
        return layerSelfS(red, layer) * timeScale;
    };
    auto total = [&](const char *name) {
        return layerTotalS(red, name) * timeScale;
    };
    auto calls = [&](const char *name) {
        return double(layerCalls(red, name)) / passes;
    };
    auto c = [&](const char *name) {
        auto it = o.counters.find(name);
        return it == o.counters.end() ? 0.0 : it->second;
    };
    double placeS = total("placer.place");
    return {
        {"serve.engine.self_s", "s", self("serve.engine"), ""},
        {"serve.prefix.lookups", "count", c("serve.prefix.lookups"), ""},
        {"serve.prefix.hit_rate", "ratio",
         ratio(c("serve.prefix.hit_tokens"), c("serve.prefix.prompt_tokens")),
         "hit tokens / prompt tokens"},
        {"serve.prefix.evictions", "count", c("serve.prefix.evictions"), ""},
        {"serve.scheduler.calls", "count", calls("serve.scheduler"), ""},
        {"serve.scheduler.self_s", "s", self("serve.scheduler"), ""},
        {"serve.offload.calls", "count", calls("serve.offload"), ""},
        {"serve.offload.self_s", "s", self("serve.offload"), ""},
        {"serve.offload.write_bytes", "B", c("serve.offload.write_bytes"), ""},
        {"serve.offload.read_bytes", "B", c("serve.offload.read_bytes"), ""},
        {"serve.swap_outs", "count", c("serve.swap_outs"), ""},
        {"serve.swap_ins", "count", c("serve.swap_ins"), ""},
        {"tier.calls", "count", calls("tier"), ""},
        {"tier.self_s", "s", self("tier"), ""},
        {"tier.parks", "count", c("tier.parks"), ""},
        {"tier.stream_resumes", "count", c("tier.stream_resumes"), ""},
        {"tier.recompute_resumes", "count", c("tier.recompute_resumes"), ""},
        {"tier.stream_useful_frac", "ratio",
         ratio(c("tier.streams_completed"), c("tier.streams_started")),
         "completed / started streams"},
        {"tier.bytes_wasted", "B", c("tier.bytes_wasted"), ""},
        {"hw.ssd.read_bytes", "B", c("hw.ssd.read_bytes"), ""},
        {"hw.ssd.write_bytes", "B", c("hw.ssd.write_bytes"), ""},
        {"overload.shed", "count", c("overload.shed"), ""},
        {"overload.brownout_transitions", "count",
         c("overload.brownout_transitions"), ""},
        {"overload.deadline_attainment", "ratio",
         ratio(c("overload.deadline_met"), c("overload.deadline_served")),
         "met / served with a deadline"},
        {"placer.place_s", "s", placeS, ""},
        {"placer.nodes", "count", c("placer.nodes"), ""},
        {"placer.nodes_per_s", "1/s", ratio(c("placer.nodes"), placeS), ""},
        {"placer.proved_optimal", "count", c("placer.proved_optimal"),
         "of " + std::to_string(std::uint64_t(c("placer.solves"))) +
             " solves"},
        {"placer.repairs", "count", c("placer.repairs"), ""},
        {"placer.full_fallbacks", "count", c("placer.full_fallbacks"), ""},
        {"placer.repair_local_frac", "ratio",
         ratio(c("placer.local_repairs"), c("placer.churn_ops")),
         "local repairs / churn ops"},
        {"placer.repair_s", "s", total("placer.repair"), ""},
        {"placer.initial_s", "s", total("placer.initial"), "in set-up"},
        {"workload.gen_s", "s", total("workload.gen"), "in set-up"},
        {"sim.events", "count", c("sim.events"), ""},
        {"sim.events_per_s", "1/s", ratio(c("sim.events"), total("run")),
         "over the traced timed phase"},
        {"sim.cross_messages", "count", c("sim.cross_messages"), ""},
        {"cluster.prefix_hit_frac", "ratio",
         ratio(c("cluster.prefix_hits"), c("cluster.prefix_lookups")), ""},
        {"cluster.prefix_bytes_streamed", "B",
         c("cluster.prefix_bytes_streamed"), ""},
        {"cluster.forwards", "count", c("cluster.forwards"), ""},
        // The sharded column runs once, in the first traced pass.
        {"sim.sharded.run_s", "s",
         layerTotalS(red, "sim.sharded.run") / traced.slowdown(),
         std::to_string(shardedThreads()) + " threads"},
        {"sim.sharded.windows", "count", c("sim.sharded.windows"), ""},
        {"sim.sharded.events_per_window", "count",
         ratio(c("sim.sharded.events"), c("sim.sharded.windows")), ""},
        {"trace.overhead_s", "s", overheadS,
         "traced run_s - untraced run_s"},
    };
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    std::vector<WorkloadDef> defs = {
        serveOverloadWorkload(), tierSessionsWorkload(),
        placementWorkload(), clusterScaleWorkload()};
    const WorkloadDef *w = nullptr;
    for (const WorkloadDef &d : defs)
        if (d.name == opt.workload)
            w = &d;
    if (!w)
        aqua::sim::fatal("unknown workload '%s'", opt.workload.c_str());

    std::vector<std::uint64_t> seeds;
    for (std::size_t k = 0; k < w->instances; ++k)
        seeds.push_back(instanceSeed(opt.seed, k));

    std::vector<std::string> errors;
    double untracedBudget = opt.trace ? opt.seconds / 2 : opt.seconds;
    Passes plain = runPasses(*w, seeds, untracedBudget, false, nullptr,
                             errors);
    Outputs all = merge(plain.outputs);

    std::printf("workload %s  seed %llu  instances %zu  passes %zu\n",
                w->name.c_str(), static_cast<unsigned long long>(opt.seed),
                seeds.size(), plain.count);
    for (std::size_t k = 0; k < seeds.size(); ++k) {
        const Outputs &o = plain.outputs[k];
        auto ev = o.counters.find("sim.events");
        std::printf("  instance %zu  seed %016llx  setup %.4f s  run %.4f s"
                    "  events %.0f  simulated %.1f s  digest %016llx\n",
                    k, static_cast<unsigned long long>(seeds[k]),
                    median(plain.setupS[k]), median(plain.runS[k]),
                    ev == o.counters.end() ? 0.0 : ev->second, o.simS,
                    static_cast<unsigned long long>(o.digest));
    }
    std::printf("output digest %016llx\n",
                static_cast<unsigned long long>(all.digest));

    char measured[2][96];
    std::snprintf(measured[0], sizeof measured[0],
                  "sum of per-instance medians; measured %.4f s",
                  plain.rawRunSeconds());
    std::snprintf(measured[1], sizeof measured[1],
                  "sum of per-instance medians; measured %.4f s",
                  plain.rawSetupSeconds());
    std::printf("host slowdown %.4f (median of %zu probes of %.0f ms at "
                "reference speed); host seconds below are at reference "
                "speed\n",
                plain.slowdown(), plain.probeS.size(), kProbeRefS * 1e3);
    std::vector<Metric> host = {
        {"run_s", "s", plain.runSeconds(), measured[0]},
        {"setup_s", "s", plain.setupSeconds(), measured[1]},
        {"peak_rss_mb", "MB", peakRssMb(), ""},
    };
    printMetrics("end-to-end, host clock:", host);
    std::vector<Metric> simulated = simulatedMetrics(all);
    if (all.counters.count("sim.events"))
        simulated.push_back({"host_us_per_event", "us",
                             plain.runSeconds() * 1e6 /
                                 all.counters["sim.events"],
                             "host-clock, for comparing model changes"});
    printMetrics("end-to-end, simulated clock:", simulated);

    std::vector<Metric> result = host;
    if (opt.trace) {
        Passes traced = runPasses(*w, seeds, opt.seconds / 2, true,
                                  &plain.outputs, errors);
        Outputs tracedAll = merge(traced.outputs);
        errors.insert(errors.end(), tracedAll.errors.begin(),
                      tracedAll.errors.end());
        double overhead = traced.runSeconds() - plain.runSeconds();
        result = layerMetrics(tracedAll, traced, overhead);
        printMetrics("per layer (traced):", result);
        if (!opt.traceOut.empty() && !traced.spans.empty()) {
            const Spans &first = traced.spans.front();
            std::size_t written = std::min(first.all().size(), kMaxTraceSpans);
            std::ofstream f(opt.traceOut);
            first.writeChromeTrace(f, written);
            if (!f)
                errors.push_back("cannot write " + opt.traceOut);
            else
                std::printf("trace: first %zu of %zu spans of the first "
                            "traced pass -> %s\n",
                            written, first.all().size(),
                            opt.traceOut.c_str());
        }
    }

    // The traced pass re-checks the same gates; report each once.
    errors.insert(errors.begin(), all.errors.begin(), all.errors.end());
    std::vector<std::string> reported;
    for (const std::string &e : errors)
        if (std::find(reported.begin(), reported.end(), e) == reported.end())
            reported.push_back(e);
    for (const std::string &e : reported)
        std::printf("GATE: %s\n", e.c_str());
    bool correct = errors.empty();
    std::printf("correct: %s\n", correct ? "yes" : "NO");
    std::printf("%s\n",
                resultJson(correct, all.attempted, all.broken, result)
                    .c_str());
    return correct ? 0 : 1;
}
