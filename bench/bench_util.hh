/**
 * @file
 * Shared helpers for the figure/table benchmark harnesses.
 *
 * Every bench binary regenerates one table or figure from the paper's
 * evaluation: it prints the same rows/series the paper reports, plus a
 * short "paper vs measured" note. Absolute numbers come from a
 * simulated substrate; the shapes are what must (and do) match.
 */

#ifndef AQUA_BENCH_BENCH_UTIL_HH
#define AQUA_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "json/json.hh"
#include "serve/vllm_engine.hh"
#include "stats/summary.hh"
#include "stats/table.hh"
#include "workload/request.hh"

namespace aqua::bench {

/** Print a figure banner. */
inline void
banner(const std::string &figure, const std::string &caption)
{
    std::printf("==============================================="
                "=================\n");
    std::printf("%s — %s\n", figure.c_str(), caption.c_str());
    std::printf("==============================================="
                "=================\n");
}

/** Print a table. */
inline void
show(const stats::Table &table)
{
    std::printf("%s\n", table.render().c_str());
}

/** TTFT summary over finished requests (seconds). */
inline stats::Summary
ttftSummary(const std::vector<workload::RequestMetrics> &metrics)
{
    stats::Summary s;
    for (const auto &m : metrics) {
        if (m.started())
            s.add(m.ttftSec());
    }
    return s;
}

/** RCT summary over finished requests (seconds). */
inline stats::Summary
rctSummary(const std::vector<workload::RequestMetrics> &metrics)
{
    stats::Summary s;
    for (const auto &m : metrics) {
        if (m.finished())
            s.add(m.rctSec());
    }
    return s;
}

/** Sorted RCTs in seconds (the paper's Fig. 8/11/12 x-axis). */
inline std::vector<double>
sortedRcts(const std::vector<workload::RequestMetrics> &metrics)
{
    stats::Summary s = rctSummary(metrics);
    return s.sorted();
}

/**
 * Responsiveness SLO attainment: the fraction of requests whose
 * first token arrived within @p ttftDeadlineSec (unstarted requests
 * count as misses).
 */
inline double
sloAttainment(const std::vector<workload::RequestMetrics> &metrics,
              double ttftDeadlineSec)
{
    if (metrics.empty())
        return 0.0;
    std::size_t hits = 0;
    for (const auto &m : metrics) {
        if (m.started() && m.ttftSec() <= ttftDeadlineSec)
            ++hits;
    }
    return static_cast<double>(hits) /
           static_cast<double>(metrics.size());
}

/** Write the prefix-hit tokens by origin under their JSON keys. */
inline void
setHitOrigins(json::Object &o, const serve::PrefixCacheEngineStats &s)
{
    o["hit_tokens_local"] = static_cast<std::int64_t>(s.hitTokensLocal);
    o["hit_tokens_remote_peer"] =
        static_cast<std::int64_t>(s.hitTokensRemote);
    o["hit_tokens_dram"] = static_cast<std::int64_t>(s.hitTokensDram);
    o["hit_tokens_remote_server"] =
        static_cast<std::int64_t>(s.hitTokensRemoteServer);
}

/**
 * Machine-readable benchmark reporter.
 *
 * Collects named metrics into a JSON document and writes it as
 * BENCH_<name>.json in the working directory, so CI can archive runs
 * as artifacts and diff them across commits. The text tables stay the
 * human-facing output; this is the scriptable twin.
 *
 * The written file is *byte-deterministic* for a deterministic bench:
 * keys are serialized in sorted order regardless of insertion order,
 * and the reporter never stamps wall-clock times or dates into the
 * document. Benches must follow the same policy — report simulated
 * time, seeds and counts, and keep host timings on stdout (or under
 * keys the consumer knows to ignore) so two runs of the same seed
 * diff clean. CI's determinism check relies on this.
 */
class JsonReporter
{
  public:
    explicit JsonReporter(std::string name) : benchName(std::move(name))
    {
        doc["bench"] = benchName;
        doc["schema_version"] = 1;
    }

    /** Set a top-level metric (chainable). */
    JsonReporter &
    set(const std::string &key, json::Value v)
    {
        doc[key] = std::move(v);
        return *this;
    }

    /** Add a percentile breakdown of @p s under @p key. */
    JsonReporter &
    setSummary(const std::string &key, const stats::Summary &s)
    {
        json::Object o;
        o["count"] = static_cast<std::int64_t>(s.count());
        if (!s.empty()) {
            o["mean"] = s.mean();
            o["min"] = s.min();
            o["p50"] = s.median();
            o["p95"] = s.p95();
            o["p99"] = s.p99();
            o["max"] = s.max();
        }
        doc[key] = std::move(o);
        return *this;
    }

    /** Mutable document root (for nested structures). */
    json::Object &root() { return doc; }

    /** Output path: BENCH_<name>.json in the working directory. */
    std::string
    path() const
    {
        return "BENCH_" + benchName + ".json";
    }

    /** The document exactly as write() serializes it. */
    std::string
    dumpCanonical() const
    {
        std::string out = json::canonicalized(json::Value(doc)).dump(2);
        out.push_back('\n');
        return out;
    }

    /**
     * Write the document. @return false (with a note on stderr) if
     * the file cannot be created; benches report but don't fail.
     */
    bool
    write() const
    {
        std::string out = dumpCanonical();
        std::string file = path();
        std::FILE *fp = std::fopen(file.c_str(), "w");
        if (!fp) {
            std::fprintf(stderr, "warning: cannot write %s\n",
                         file.c_str());
            return false;
        }
        std::fwrite(out.data(), 1, out.size(), fp);
        std::fclose(fp);
        std::printf("[json] wrote %s\n", file.c_str());
        return true;
    }

  private:
    std::string benchName;
    json::Object doc;
};

} // namespace aqua::bench

#endif // AQUA_BENCH_BENCH_UTIL_HH
