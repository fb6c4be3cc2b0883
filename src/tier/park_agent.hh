/**
 * @file
 * ParkAgent: the production SessionTier implementation.
 *
 * Glues the three tier pieces together behind the serving engine's
 * tier-agnostic hooks: the SsdBackend holds parked and demoted
 * payloads, the TierManager scores what demotes and decides
 * stream-vs-recompute, and the PrefetchPipeline streams parked KV
 * back SSD→DRAM→HBM behind the decode compute.
 */

#ifndef AQUA_TIER_PARK_AGENT_HH
#define AQUA_TIER_PARK_AGENT_HH

#include <cstdint>
#include <map>

#include "hw/server.hh"
#include "serve/session_tier.hh"
#include "tier/prefetch.hh"
#include "tier/ssd_backend.hh"
#include "tier/tier_manager.hh"

namespace aqua::tier {

/** ParkAgent tunables: the tier policy's knobs (the SSD backend and
 *  prefetch pipeline run with their defaults). */
struct ParkAgentConfig
{
    TierConfig tier;
};

/**
 * SSD-backed cold-session park/resume plus DRAM→SSD demotion.
 */
class ParkAgent : public serve::SessionTier
{
  public:
    ParkAgent(hw::Server &server, hw::GpuId gpu,
              ParkAgentConfig config = {});
    ~ParkAgent() override;

    ParkAgent(const ParkAgent &) = delete;
    ParkAgent &operator=(const ParkAgent &) = delete;

    //
    // serve::SessionTier.
    //

    bool park(std::uint64_t sessionKey, std::uint64_t bytes,
              std::uint32_t tokens, double idleGapSec,
              aqua::sim::Tick now) override;
    std::uint32_t parkedTokens(std::uint64_t sessionKey) const override;
    bool beginResume(std::uint64_t sessionKey, aqua::sim::Tick now,
                     aqua::sim::Tick prefillTime, ResumeCallback done,
                     aqua::sim::Tick streamOverhead = 0) override;
    void cancelResume(std::uint64_t sessionKey) override;

    serve::OffloadBackend &demotionStore() override { return store; }
    void noteOffloaded(std::uint64_t key, std::uint64_t bytes,
                       aqua::sim::Tick now) override;
    void forgetOffloaded(std::uint64_t key, bool promoted,
                         aqua::sim::Tick now) override;
    std::vector<std::uint64_t>
    selectDemotions(aqua::sim::Tick now, bool pressure) override;
    std::optional<serve::OffloadBackend::Handle>
    demote(std::uint64_t key, serve::OffloadBackend &from,
           const serve::OffloadBackend::Handle &handle,
           std::uint64_t nChunks, aqua::sim::Tick now) override;

    //
    // Introspection.
    //

    SsdBackend &backend() { return store; }
    PrefetchPipeline &pipeline() { return pipe; }
    TierManager &manager() { return mgr; }
    const TierManager &manager() const { return mgr; }

    /** Sessions currently parked on the SSD. */
    std::size_t parkedCount() const { return sessions.size(); }
    /** Bytes those sessions hold on the media. */
    std::uint64_t parkedBytes() const;

  private:
    struct Parked
    {
        serve::OffloadBackend::Handle handle;
        std::uint32_t tokens = 0;
        /** Resume stream in flight (0 = none). */
        PrefetchPipeline::StreamId stream = 0;
    };

    /** TierManager key for a parked session (the manager also tracks
     *  swapped-KV items under raw request ids; keep the keyspaces
     *  apart). */
    static std::uint64_t parkKey(std::uint64_t sessionKey)
    {
        return sessionKey | (std::uint64_t(1) << 63);
    }

    /** Free a parked entry's storage and policy records. */
    void dropParked(std::uint64_t sessionKey);

    hw::Server &server;
    SsdBackend store;
    PrefetchPipeline pipe;
    TierManager mgr;
    std::map<std::uint64_t, Parked> sessions;
};

} // namespace aqua::tier

#endif // AQUA_TIER_PARK_AGENT_HH
