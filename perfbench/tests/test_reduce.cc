/**
 * @file
 * Self-tests of the benchmark's reduction code: the tail-percentile
 * rule, self time under overlapping children, and outcome counting.
 * Exit status 0 = all pass.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "report.hh"
#include "spans.hh"

using namespace perfbench;
using aqua::workload::RequestMetrics;

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok)
        ++failures;
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

std::vector<double>
ramp(std::size_t n)
{
    // Descending so the rule must sort; values are 1..n.
    std::vector<double> v;
    for (std::size_t i = n; i > 0; --i)
        v.push_back(double(i));
    return v;
}

void
testTail()
{
    // n = 2000: p99.9 has rank 1998 -> 2 beyond (too few); p99 has
    // rank 1980 -> 20 beyond.
    Tail t = tailPercentile(ramp(2000));
    check(t.percentile == 99.0, "tail: n=2000 picks p99");
    check(t.value == 1980.0, "tail: n=2000 value is the rank-1980 sample");
    check(t.beyond == 20 && t.samples == 2000,
          "tail: n=2000 reports 20 beyond of 2000");

    // n = 1010: p99 has rank 1000 -> exactly 10 beyond, which counts.
    t = tailPercentile(ramp(1010));
    check(t.percentile == 99.0 && t.beyond == 10,
          "tail: exactly 10 beyond qualifies");

    // n = 1009: p99 rank 999 -> 10 beyond; p99.9 rank 1008 -> 1.
    t = tailPercentile(ramp(1009));
    check(t.percentile == 99.0 && t.value == 999.0 && t.beyond == 10,
          "tail: n=1009 stays at p99");

    // n = 900: p99 has rank 891 -> only 9 beyond, so p95 (45 beyond).
    t = tailPercentile(ramp(900));
    check(t.percentile == 95.0 && t.value == 855.0 && t.beyond == 45,
          "tail: 9 beyond does not qualify");

    // n = 100: p99 -> 1 beyond, p95 -> 5, p90 -> 10 beyond.
    t = tailPercentile(ramp(100));
    check(t.percentile == 90.0 && t.value == 90.0 && t.beyond == 10,
          "tail: n=100 falls back to p90");

    // n = 15: only p50 (rank 8, 7 beyond) is below 10 -> none fits.
    t = tailPercentile(ramp(15));
    check(t.percentile == 100.0 && t.value == 15.0 && t.beyond == 0 &&
              t.samples == 15,
          "tail: too few samples reports the max as p100");

    t = tailPercentile({});
    check(t.samples == 0 && t.value == 0.0, "tail: empty input");
}

void
testSelfTime()
{
    // Parent [0, 100] with children [10, 40], [30, 60] (overlapping)
    // and [70, 80]: their union is [10, 60] + [70, 80] = 60, so the
    // parent's self time is 40, not 100 - (30 + 30 + 10) = 30.
    Spans s;
    s.add({"serve.engine", 0, 100, -1, 0});
    s.add({"serve.offload", 10, 40, 0, 0});
    s.add({"serve.offload", 30, 60, 0, 0});
    s.add({"serve.scheduler", 70, 80, 0, 0});
    // A child sticking out of its parent is clipped to it.
    s.add({"tier", 200, 300, -1, 0});
    s.add({"tier.inner", 250, 350, 4, 0});
    auto r = reduceSpans(s.all());
    check(near(r["serve.engine"].selfS, 40e-9),
          "self: overlapping children counted once");
    check(r["serve.offload"].calls == 2 &&
              near(r["serve.offload"].totalS, 60e-9),
          "self: child totals keep their full durations");
    check(near(r["tier"].selfS, 50e-9), "self: children clipped to parent");
    check(near(layerSelfS(r, "tier"), 50e-9 + 100e-9),
          "self: a layer includes its dotted sub-spans");
    check(near(layerSelfS(r, "serve.off"), 0.0) &&
              near(layerSelfS(r, "serve.offload"), 60e-9) &&
              near(layerSelfS(r, "serve"), (40 + 60 + 10) * 1e-9),
          "self: a layer name must match whole components");

    // Spans recorded through the RAII scope nest properly.
    Spans live;
    {
        Scope outer(&live, "a");
        Scope inner(&live, "a.b", 7);
    }
    check(live.all().size() == 2 && live.all()[1].parent == 0 &&
              live.all()[1].id == 7 &&
              live.all()[0].endNs >= live.all()[1].endNs,
          "scope: nested spans link to their parent");
    Scope none(nullptr, "ignored");
}

RequestMetrics
served(std::uint64_t id, double finishSec, double deadlineSec)
{
    RequestMetrics m;
    m.id = id;
    m.arrival = 1;
    m.firstToken = aqua::sim::secToTicks(finishSec / 2);
    m.finish = aqua::sim::secToTicks(finishSec);
    m.deadline = deadlineSec > 0 ? aqua::sim::secToTicks(deadlineSec) : 0;
    return m;
}

void
testCounting()
{
    std::vector<RequestMetrics> ms;
    ms.push_back(served(1, 1.0, 2.0));  // good
    ms.push_back(served(2, 3.0, 2.0));  // late
    ms.push_back(served(3, 5.0, 0.0));  // best effort, good
    RequestMetrics shed;
    shed.id = 4;
    shed.shed = true;
    ms.push_back(shed);                  // shed
    // Requests 5 and 6 were attempted but never finished.
    RequestCounts c = countRequests(
        ms, 6, [](const RequestMetrics &m) { return m.metDeadline(); });
    check(c.good == 2 && c.shed == 1 && c.unfinished == 2,
          "count: good/shed/unfinished split");
    check(near(c.failedFrac(), 3.0 / 6.0),
          "count: failed_frac = (shed + unfinished) / attempted");
    check(near(c.goodputPerSec(10.0), 0.2),
          "count: goodput counts only good requests");

    // A shed request that also carries a finish stamp is still a miss.
    RequestMetrics shedLate = served(7, 1.0, 2.0);
    shedLate.shed = true;
    c = countRequests({shedLate}, 1,
                      [](const RequestMetrics &) { return true; });
    check(c.good == 0 && c.shed == 1 && near(c.failedFrac(), 1.0),
          "count: shed misses the limit even when stamped finished");

    c = countRequests({}, 0, [](const RequestMetrics &) { return true; });
    check(c.failedFrac() == 0.0 && c.goodputPerSec(0.0) == 0.0,
          "count: empty run");
}

void
testMisc()
{
    check(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5 &&
              median({}) == 0,
          "median: odd, even, empty");
    Digest a, b;
    a.mix(1);
    a.mix(2);
    b.mix(2);
    b.mix(1);
    check(a.value() != b.value(), "digest: order sensitive");
    std::string j = resultJson(true, 3, 1, {{"run_s", "s", 0.25, ""}});
    check(j == "{\"correct\": true, \"attempted\": 3, \"failed\": 1, "
               "\"metrics\": {\"run_s\": {\"value\": 0.25, \"unit\": "
               "\"s\"}}}",
          "result: JSON line shape");
}

} // anonymous namespace

int
main()
{
    testTail();
    testSelfTime();
    testCounting();
    testMisc();
    std::printf("%s (%d failures)\n", failures ? "FAIL" : "PASS",
                failures);
    return failures ? 1 : 0;
}
