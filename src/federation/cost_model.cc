#include "federation/cost_model.hh"

#include "model/stream_choice.hh"

namespace aqua::federation {

/**
 * Fixed control-plane cost per fetch: the fetch_begin grant and the
 * fetch_end validation, each one coordinator round trip.
 */
constexpr aqua::sim::Tick controlOverhead = 2 * aqua::sim::nsPerUs;

FederationCostModel::FederationCostModel(const hw::Fabric &fabric,
                                         const model::PerfModel &perf,
                                         FederationCostConfig config)
    : fabric(fabric), perf(perf), cfg(config)
{
}

FederationDecision
FederationCostModel::decide(std::size_t homeServer,
                            std::size_t consumerServer,
                            std::uint64_t wireBytes,
                            std::uint64_t tokens,
                            model::KvPrecision precision) const
{
    FederationDecision d;
    d.streamEstimate =
        fabric.streamEstimate(homeServer, consumerServer, wireBytes);
    d.streamOverhead = controlOverhead +
                       perf.dequantTimeAt(wireBytes, precision);
    d.prefillEstimate = perf.prefillTime(tokens);
    d.stream = model::streamBeatsRecompute(
        d.streamEstimate, d.streamOverhead, d.prefillEstimate,
        cfg.safetyFactor);
    return d;
}

} // namespace aqua::federation
