/**
 * @file
 * Deadline-aware admission control: spend HBM and NVLink bandwidth
 * only on requests that can still meet their SLO.
 *
 * Under overload, admitting every arrival maximises throughput but
 * ruins goodput — a request admitted behind a deep queue finishes
 * long after its deadline, having consumed prefill compute, KV blocks
 * and offload bandwidth that a still-viable request needed. The
 * controller predicts a waiting request's completion time from
 * model::PerfModel-derived service rates plus the queue ahead of it
 * and sheds it up front when the prediction already misses the
 * deadline.
 *
 * The controller is serve-agnostic: the scheduler builds a plain
 * AdmissionQuery per waiting sequence and acts on the verdict. Sheds
 * and deadline attainment are counted per reason and traced, so the
 * brownout ladder and the benches can observe every decision.
 */

#ifndef AQUA_OVERLOAD_ADMISSION_HH
#define AQUA_OVERLOAD_ADMISSION_HH

#include <cstdint>

#include "overload/brownout.hh"
#include "sim/ticks.hh"

namespace aqua::overload {

/** Why a request was shed (None = admit). */
enum class ShedReason : std::uint8_t
{
    None = 0,
    /** Predicted completion already misses the deadline. */
    DeadlineUnmeetable,
    /** Best-effort request shed by brownout level >= ShedBestEffort. */
    BrownoutBestEffort,
    /** Brownout level RejectNew refuses all new admissions. */
    BrownoutReject,
};

/** Stable lowercase name, e.g. "deadline_unmeetable". */
const char *shedReasonName(ShedReason reason);

/** Service rates the engine derives from its model::PerfModel. */
struct ServiceRates
{
    /** Prefill cost per prompt token. */
    aqua::sim::Tick prefillPerToken = 0;
    /** Decode iteration time (one token per resident sequence). */
    aqua::sim::Tick decodePerToken = 0;
};

/** Tunables. */
struct AdmissionConfig
{
    /** Inflate the service prediction: > 1 sheds earlier (pessimistic
     *  about queueing effects the linear model ignores). */
    double safetyFactor = 1.0;
};

/** One admission question, posed by the scheduler. */
struct AdmissionQuery
{
    aqua::sim::Tick now = 0;
    std::uint64_t requestId = 0;
    /** Absolute completion deadline; 0 = no SLO. */
    aqua::sim::Tick deadline = 0;
    /** Deadline-less, sheddable-first work. */
    bool bestEffort = false;
    /** Prompt tokens still to prefill for this request. */
    std::uint32_t promptTokens = 0;
    /** Generation budget remaining. */
    std::uint32_t remainingNewTokens = 0;
    /** Prompt tokens of waiting sequences queued ahead. */
    std::uint64_t queuedPrefillTokensAhead = 0;
    /** Sequences currently resident and decoding. */
    std::size_t runningCount = 0;
    /** Engine batch capacity. */
    std::size_t maxBatch = 1;
};

/** Decision counters. */
struct AdmissionStats
{
    std::uint64_t admitted = 0;
    std::uint64_t shedDeadline = 0;
    std::uint64_t shedBestEffort = 0;
    std::uint64_t shedReject = 0;
    /** Completions by deadline outcome (no-SLO finishes count met). */
    std::uint64_t deadlineMet = 0;
    std::uint64_t deadlineMissed = 0;

    std::uint64_t
    totalShed() const
    {
        return shedDeadline + shedBestEffort + shedReject;
    }
};

/**
 * The admission controller.
 */
class AdmissionController
{
  public:
    explicit AdmissionController(ServiceRates rates,
                                 AdmissionConfig config = {});

    /**
     * Predicted completion tick of @p q if admitted now: queued
     * prefill work ahead, own prefill, then decode iterations shared
     * with the resident batch.
     */
    aqua::sim::Tick predictCompletion(const AdmissionQuery &q) const;

    /**
     * Admit-or-shed verdict for one waiting request at brownout level
     * @p level. Pure — the engine accounts the acted-on verdict via
     * recordShed()/recordAdmit() (and emits the "shed" trace event,
     * since it owns the request context).
     */
    ShedReason assess(const AdmissionQuery &q,
                      BrownoutLevel level) const;

    /** Account one shed the engine acted on. */
    void recordShed(ShedReason reason);

    /** Account one successful admission. */
    void recordAdmit() { ++counters.admitted; }

    /** Account a finished request against its deadline. */
    void recordCompletion(aqua::sim::Tick finish,
                          aqua::sim::Tick deadline);

    const AdmissionStats &stats() const { return counters; }
    const ServiceRates &rates() const { return svc; }

    /** Deadline attainment over finished requests, [0, 1]. */
    double attainment() const;

  private:
    ServiceRates svc;
    AdmissionConfig cfg;
    AdmissionStats counters;
};

} // namespace aqua::overload

#endif // AQUA_OVERLOAD_ADMISSION_HH
