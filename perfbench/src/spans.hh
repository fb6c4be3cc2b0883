/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one timed call into a layer: a name, host start and end
 * times, the span that was open when it began (its parent) and an
 * optional id shared by the spans of one request. Spans are appended
 * to a vector while the run executes and only leave memory at exit,
 * as a Chrome trace-event JSON file (opens in Perfetto or
 * chrome://tracing). reduceSpans() turns them into per-layer call
 * counts, total time and self time.
 *
 * Recording is single-threaded: spans are opened and closed on the
 * thread that drives the simulation.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** Host nanoseconds on the steady clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    /** Layer-qualified name, e.g. "serve.scheduler"; static storage. */
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span, -1 at top level. */
    std::int32_t parent = -1;
    /** Request (or other unit) the span belongs to; 0 = none. */
    std::uint64_t id = 0;
};

class Spans
{
  public:
    /** Open a span under the innermost open one. @return its index. */
    std::int32_t open(const char *name, std::uint64_t id = 0);

    /** Close the span @p index (must be the innermost open one). */
    void close(std::int32_t index);

    const std::vector<Span> &all() const { return spans; }

    /** Append a finished span directly (tests, imported timings). */
    void add(const Span &span) { spans.push_back(span); }

    /** Write the first @p maxSpans spans as Chrome trace-event JSON
     *  ("X" events). */
    void writeChromeTrace(std::ostream &out, std::size_t maxSpans) const;

  private:
    std::vector<Span> spans;
    std::vector<std::int32_t> stack;
};

/**
 * RAII span: records nothing when @p spans is null, so the untraced
 * run pays one branch per call site.
 */
class Scope
{
  public:
    Scope(Spans *spans, const char *name, std::uint64_t id = 0)
        : rec(spans), index(spans ? spans->open(name, id) : -1)
    {
    }
    ~Scope()
    {
        if (rec)
            rec->close(index);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Spans *rec;
    std::int32_t index;
};

/** Per-name reduction of a span list. */
struct LayerTime
{
    std::uint64_t calls = 0;
    /** Sum of span durations, seconds. */
    double totalS = 0.0;
    /** Sum of (duration - union of child intervals), seconds. */
    double selfS = 0.0;
};

/**
 * Reduce spans by name. A span's self time is its duration minus the
 * part of it covered by its children, where overlapping children are
 * counted once (union of intervals, clipped to the parent).
 */
std::map<std::string, LayerTime> reduceSpans(const std::vector<Span> &spans);

/**
 * Self seconds of layer @p layer: spans named exactly @p layer or
 * nested below it by name (@p layer followed by '.').
 */
double layerSelfS(const std::map<std::string, LayerTime> &reduced,
                  const std::string &layer);

/** Call count of the spans named exactly @p name. */
std::uint64_t layerCalls(const std::map<std::string, LayerTime> &reduced,
                         const std::string &name);

/** Total (not self) seconds of the spans named exactly @p name. */
double layerTotalS(const std::map<std::string, LayerTime> &reduced,
                   const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
