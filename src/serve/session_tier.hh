/**
 * @file
 * SessionTier: the serving engine's window onto a storage tier below
 * host DRAM.
 *
 * The engine stays tier-agnostic: it reports lifecycle events (a
 * session went cold, a swapped sequence's KV landed in DRAM, a handle
 * came back up) and asks policy questions (what should demote, can
 * this resume be streamed instead of recomputed); the tier
 * implementation owns the device, the demotion policy and the
 * prefetch pipeline. tier::ParkAgent is the production implementation;
 * tests can substitute fakes.
 */

#ifndef AQUA_SERVE_SESSION_TIER_HH
#define AQUA_SERVE_SESSION_TIER_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "serve/offload_backend.hh"
#include "sim/ticks.hh"

namespace aqua::serve {

/**
 * Abstract storage-tier hooks for cold-session park/resume and
 * DRAM→SSD demotion of swapped-out KV.
 */
class SessionTier
{
  public:
    /** Resume outcome: streamed = the KV landed in HBM via the
     *  prefetch pipeline; false = the stream was cancelled or the
     *  device failed and the engine must re-prefill. Returns whether
     *  the engine kept the landed KV: false means it was discarded on
     *  arrival (it failed its integrity check), so the tier books the
     *  streamed bytes as wasted. Ignored when streamed is false. */
    using ResumeCallback = std::function<bool(bool streamed)>;

    virtual ~SessionTier() = default;

    //
    // Cold-session park/resume.
    //

    /**
     * A session just finished a turn and its user goes idle for
     * @p idleGapSec. Park the KV on the tier if the gap warrants it.
     *
     * @param sessionKey Stable session identity (the chat user id).
     * @param bytes KV footprint of the conversation so far.
     * @param tokens Tokens that KV covers (prompt + generated).
     * @retval true Parked (the tier copied the bytes down).
     * @retval false Gap below the park threshold or store full.
     */
    virtual bool park(std::uint64_t sessionKey, std::uint64_t bytes,
                      std::uint32_t tokens, double idleGapSec,
                      aqua::sim::Tick now) = 0;

    /** Tokens parked for a session; 0 = nothing parked. */
    virtual std::uint32_t
    parkedTokens(std::uint64_t sessionKey) const = 0;

    /**
     * A cold session's next turn arrived: decide stream-vs-recompute
     * against @p prefillTime (the roofline cost of re-prefilling the
     * parked context) and start the prefetch stream if it wins.
     *
     * @param streamOverhead Extra compute the streamed copy costs
     *        before it is usable (e.g. dequantizing a parked copy
     *        stored below the serving precision); counts against
     *        streaming in the crossover.
     * @retval true Streaming; @p done fires when the stream lands (or
     *         winds down cancelled). The parked entry is consumed.
     * @retval false Recompute: nothing parked, the device is down, or
     *         the stream estimate loses the crossover. Any parked
     *         entry is dropped; @p done never fires.
     */
    virtual bool beginResume(std::uint64_t sessionKey,
                             aqua::sim::Tick now,
                             aqua::sim::Tick prefillTime,
                             ResumeCallback done,
                             aqua::sim::Tick streamOverhead = 0) = 0;

    /**
     * Predictor miss: the resuming request was shed (or the session
     * ended). Cancels any in-flight resume stream and drops the
     * parked entry.
     */
    virtual void cancelResume(std::uint64_t sessionKey) = 0;

    //
    // DRAM→SSD demotion of swapped-out KV.
    //

    /** Backend holding demoted payloads (sequences swap back in from
     *  it through the normal OffloadBackend read path). */
    virtual OffloadBackend &demotionStore() = 0;

    /** A swapped sequence's private KV tail landed in host DRAM. */
    virtual void noteOffloaded(std::uint64_t key, std::uint64_t bytes,
                               aqua::sim::Tick now) = 0;

    /** The payload left the tier's purview (swap-in, shed, engine
     *  teardown). @p promoted when the bytes came back up. */
    virtual void forgetOffloaded(std::uint64_t key, bool promoted,
                                 aqua::sim::Tick now) = 0;

    /** Keys the demotion policy wants moved down one tier, coldest
     *  first. @p pressure = the brownout ladder's ForceDramOffload
     *  rung is active (aggressive threshold). */
    virtual std::vector<std::uint64_t>
    selectDemotions(aqua::sim::Tick now, bool pressure) = 0;

    /**
     * Move @p handle's bytes (resident in @p from, a DRAM-class
     * backend) down to the tier. On success the old handle is freed
     * and the replacement — owned by demotionStore() — returned; the
     * engine repoints the sequence at it. nullopt = store full, the
     * payload stays in DRAM.
     */
    virtual std::optional<OffloadBackend::Handle>
    demote(std::uint64_t key, OffloadBackend &from,
           const OffloadBackend::Handle &handle, std::uint64_t nChunks,
           aqua::sim::Tick now) = 0;
};

} // namespace aqua::serve

#endif // AQUA_SERVE_SESSION_TIER_HH
