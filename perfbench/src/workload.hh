/**
 * @file
 * The interface between the benchmark harness and its workloads.
 *
 * A workload is a list of instances, each built from its own seed.
 * The harness times an instance's construction (set-up) and its run()
 * (the timed phase) separately, then reads its simulated outputs.
 * Instances run once; the harness builds a fresh one for every
 * repetition and checks that repetitions agree bit for bit.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hh"

namespace perfbench {

/** Simulated-clock outputs of one instance (all deterministic). */
struct Outputs
{
    /** Digest over every simulated result the instance produced. */
    std::uint64_t digest = 0;
    /** Correctness-gate violations; empty = correct. */
    std::vector<std::string> errors;

    /** Operations (requests, solves, churn events) attempted, those
     *  that failed from the user's view (shed, unfinished,
     *  infeasible), and the subset of those that trip the correctness
     *  gate (everything but deliberate shedding). */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t broken = 0;

    /** Per-request latency samples, seconds (empty = n/a). */
    std::vector<double> ttft;
    std::vector<double> rct;
    /** Summed latency for models exposing only a sum. */
    double rctSumS = 0.0;
    std::uint64_t rctCount = 0;
    /** Simulated seconds, requests within their latency limit and
     *  decode tokens (goodput and token rate apply when simS > 0). */
    double simS = 0.0;
    std::uint64_t good = 0;
    std::uint64_t tokens = 0;
    /** Algorithm 1 objectives of the placements made, summed. */
    double objectiveSum = 0.0;
    std::uint64_t objectives = 0;
    /** Consumers placed and consumers paired with a producer. */
    std::uint64_t consumers = 0;
    std::uint64_t paired = 0;

    /** Layer counters, summed across instances (see main.cc). */
    std::map<std::string, double> counters;
};

class Instance
{
  public:
    virtual ~Instance() = default;

    /** The timed phase. Called once. */
    virtual void run() = 0;

    /** Outputs of the finished run. */
    virtual Outputs outputs() = 0;

    /**
     * Extra traced-only work after the last traced repetition (e.g. the
     * sharded-executor column); adds counters and errors to @p out.
     */
    virtual void afterTrace(Spans &spans, Outputs &out)
    {
        (void)spans;
        (void)out;
    }
};

/**
 * Builds an instance from @p seed. @p spans is null in untraced runs;
 * when set, the instance records spans around its layer calls and
 * hands decorators to its engines.
 */
using InstanceFactory =
    std::function<std::unique_ptr<Instance>(std::uint64_t seed, Spans *spans)>;

struct WorkloadDef
{
    std::string name;
    /** Instances per pass. */
    std::size_t instances = 1;
    InstanceFactory make;
};

/** Worker threads of the sharded column: min(4, usable CPUs). */
unsigned shardedThreads();

WorkloadDef serveOverloadWorkload();
WorkloadDef tierSessionsWorkload();
WorkloadDef placementWorkload();
WorkloadDef clusterScaleWorkload();

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
