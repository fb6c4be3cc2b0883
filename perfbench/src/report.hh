/**
 * @file
 * Reductions from raw benchmark outputs to reported metrics: the
 * tail-percentile rule, request outcome counting (goodput and failed
 * fraction), medians of host timings, output digests and the metric
 * sheet a workload fills in.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "workload/request.hh"

namespace perfbench {

/** A tail percentile together with the samples that justify it. */
struct Tail
{
    double value = 0.0;
    /** Percentile reported, e.g. 99.0; 100 = too few samples. */
    double percentile = 100.0;
    /** Samples strictly beyond the reported one. */
    std::size_t beyond = 0;
    /** All samples. */
    std::size_t samples = 0;
};

/** Samples that must lie beyond a reported tail percentile. */
inline constexpr std::size_t kTailBeyond = 10;

/**
 * The highest percentile of {99.99, 99.9, 99, 95, 90, 75, 50} that
 * still has at least kTailBeyond samples beyond it (nearest-rank
 * definition: rank = ceil(p/100 * n), beyond = n - rank). With too
 * few samples for any of them the maximum is reported as p100 with
 * zero beyond. @p values need not be sorted.
 */
Tail tailPercentile(std::vector<double> values);

/** Median (mean of the middle pair for even sizes); 0 when empty. */
double median(std::vector<double> values);

/** Request outcomes against a latency limit. */
struct RequestCounts
{
    std::uint64_t attempted = 0;
    /** Finished, not shed, within the latency limit. */
    std::uint64_t good = 0;
    std::uint64_t shed = 0;
    /** Attempted but neither finished nor shed. */
    std::uint64_t unfinished = 0;

    /** Shed and unfinished requests over those attempted. */
    double failedFrac() const;
    /** Good requests per simulated second. */
    double goodputPerSec(double simSeconds) const;
};

/** Latency limit of a finished request: true = met. */
using LimitFn = std::function<bool(const aqua::workload::RequestMetrics &)>;

/**
 * Count outcomes of @p attempted requests whose engine-side records
 * are @p metrics (finished and shed requests; unfinished ones have
 * no record). Shed and unfinished requests miss the limit.
 */
RequestCounts countRequests(
    const std::vector<aqua::workload::RequestMetrics> &metrics,
    std::uint64_t attempted, const LimitFn &metLimit);

/** FNV-1a accumulator for output digests. */
class Digest
{
  public:
    void mix(std::uint64_t v);
    void mixDouble(double v);
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 14695981039346656037ull;
};

/** One named metric value. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    /** Extra human-readable context, e.g. "p99, 42 beyond, n=4200". */
    std::string note;
};

/** Format a tail for a Metric note. */
std::string tailNote(const Tail &tail);

/** Print "  name = value unit  (note)" lines. */
void printMetrics(const char *heading, const std::vector<Metric> &metrics);

/**
 * The result line: one JSON object with keys correct, attempted,
 * failed and metrics ({name: {value, unit}}), values printed with
 * full precision.
 */
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
