/**
 * @file
 * Stream-vs-recompute cost model for cross-server prefix fetches.
 *
 * A consumer that discovers a remote prefix copy (via the
 * FederationDirectory) has two ways to materialise it: stream the KV
 * bytes over the inter-server fabric, or re-prefill the tokens locally
 * at the roofline rate. The fabric is the slow path by construction —
 * a NIC is an order of magnitude narrower than NVLink and the spine is
 * oversubscribed — so the decision flips with chain length, current
 * fabric degradation and queue backlog, and the precision the chain is
 * stored at (quantized chains move fewer bytes but pay a dequant pass
 * on arrival).
 *
 * The crossover comparison itself is model::streamBeatsRecompute,
 * shared with the storage tier's park-resume decider so the two
 * cannot drift.
 */

#ifndef AQUA_FEDERATION_COST_MODEL_HH
#define AQUA_FEDERATION_COST_MODEL_HH

#include <cstdint>

#include "hw/fabric.hh"
#include "model/kv_precision.hh"
#include "model/perf_model.hh"
#include "sim/ticks.hh"

namespace aqua::federation {

struct FederationCostConfig
{
    /**
     * Multiplier applied to the streamed side of the crossover; > 1
     * biases toward recompute when the estimates are close (a
     * mispredicted stream stalls the request behind a congested
     * fabric; a mispredicted recompute merely burns FLOPs).
     */
    double safetyFactor = 1.2;
};

/** One decision with the quantities that produced it. */
struct FederationDecision
{
    /** true = stream the remote copy; false = re-prefill locally. */
    bool stream = false;
    /** Predicted fabric makespan (hops + wire + queue backlog). */
    aqua::sim::Tick streamEstimate = 0;
    /** Fixed overhead on the streamed side (control + dequant). */
    aqua::sim::Tick streamOverhead = 0;
    /** Roofline re-prefill time of the covered tokens. */
    aqua::sim::Tick prefillEstimate = 0;
};

/**
 * Decides stream-vs-recompute for remote prefix chains. One instance
 * per consumer engine; reads the fabric's *current* state (queue
 * backlog, degradation) at each decision, so the same chain can flip
 * from stream to recompute as the fabric sours.
 */
class FederationCostModel
{
  public:
    FederationCostModel(const hw::Fabric &fabric,
                        const model::PerfModel &perf,
                        FederationCostConfig config = {});

    const FederationCostConfig &config() const { return cfg; }

    /**
     * Weigh streaming @p wireBytes of KV (stored at @p precision on
     * the home) from @p homeServer to @p consumerServer against
     * re-prefilling @p tokens locally.
     */
    FederationDecision decide(std::size_t homeServer,
                              std::size_t consumerServer,
                              std::uint64_t wireBytes,
                              std::uint64_t tokens,
                              model::KvPrecision precision) const;

  private:
    const hw::Fabric &fabric;
    const model::PerfModel &perf;
    FederationCostConfig cfg;
};

} // namespace aqua::federation

#endif // AQUA_FEDERATION_COST_MODEL_HH
