/**
 * @file
 * Cross-server prefix federation directory.
 *
 * The cluster prefix registry (cluster/PrefixRegistry) keeps one
 * resident shared-prefix KV copy per scale-up domain — but registries
 * are siloed per server, so a hot system prompt published on server A
 * is re-prefilled from scratch on server B. The FederationDirectory
 * breaks the silo at the control plane: each server's directory
 * advertises its registry's *home* chains (keyed by the same dual
 * rolling hashes) to every peer server, so a consumer can discover a
 * remote copy and weigh streaming it over the inter-server fabric
 * against local re-prefill (federation/cost_model.hh).
 *
 * Consistency model — Harvest-style opportunistic, not transactional:
 *
 *  - Advertisements are versioned per origin server. A chain gaining
 *    a home bumps the version and pushes the advert to each peer
 *    after a gossip delay; invalidation (evict, GPU failure) pushes a
 *    tombstone the same way. Peers apply an advert only when its
 *    version is newer than what they hold.
 *  - Pushes ride the peer coordinator's REST router, so a crashed or
 *    unreachable coordinator silently loses them. A periodic
 *    anti-entropy round re-sends the full local table to every peer,
 *    repairing losses within one period.
 *  - Remote fetches are granted by the home server (admission-capped
 *    — a home serves at most maxRemoteConsumers concurrent remote
 *    streams, so federation load cannot starve local serving) but the
 *    chain is NOT pinned: the home stays free to evict it mid-stream.
 *    The consumer validates the fetch ticket when the stream lands —
 *    chain still present, advert version unchanged — and falls back
 *    to recompute when validation fails. Stale reads are impossible
 *    (the version check catches every mutation); stalls are
 *    impossible (the stream always completes, only its payload may be
 *    declared worthless).
 *  - Local adverts are journal-backed (recovery/StateJournal) and
 *    replay through the PR 9 recovery machinery after a
 *    coordinator_crash; remote views are soft state refilled by the
 *    peers' next anti-entropy rounds.
 */

#ifndef AQUA_FEDERATION_DIRECTORY_HH
#define AQUA_FEDERATION_DIRECTORY_HH

#include <cstdint>
#include <map>
#include <vector>

#include "aqua/rest.hh"
#include "cluster/prefix_registry.hh"
#include "json/json.hh"
#include "sim/simulation.hh"
#include "trace/trace.hh"

namespace aqua::recovery {
class StateJournal;
} // namespace aqua::recovery

namespace aqua::federation {

/** Delay before a changed advert reaches each peer. */
inline constexpr aqua::sim::Tick gossipDelay = 100 * aqua::sim::nsPerUs;

/** Directory tunables. */
struct DirectoryConfig
{
    /** This server's id on the fabric. */
    std::uint32_t serverId = 0;
    /**
     * Harvest-style admission cap: concurrent remote consumers this
     * server will serve as a stream source. Further fetch_begin
     * requests are refused and the consumers re-prefill locally.
     */
    std::uint32_t maxRemoteConsumers = 2;
};

/** One versioned chain advertisement. */
struct DirectoryEntry
{
    std::uint64_t key = 0;
    std::uint64_t verify = 0;
    std::uint32_t blocks = 0;
    std::uint64_t tokens = 0;
    std::uint64_t bytes = 0;
    std::uint64_t chainSig = 0;
    /** Origin (home) server. */
    std::uint32_t server = 0;
    /** Per-origin version; higher wins. */
    std::uint64_t version = 0;
    /** True when the origin withdrew the chain. */
    bool tombstone = false;
};

/** Result of a consumer-side directory lookup. */
struct FederationLookup
{
    bool found = false;
    DirectoryEntry entry;
};

/** A home-side fetch grant (or refusal). */
struct FetchGrant
{
    bool ok = false;
    /** Refusal reason when !ok ("cap", "stale", "frozen"). */
    std::string reason;
    std::uint64_t ticket = 0;
    hw::GpuId homeGpu = hw::hostDramId;
    std::uint32_t homeServer = 0;
    std::uint32_t blocks = 0;
    std::uint64_t tokens = 0;
    std::uint64_t bytes = 0;
    std::uint64_t chainSig = 0;
};

struct DirectoryStats
{
    /** Local adverts pushed (publishes and tombstones). */
    std::uint64_t advertsPublished = 0;
    std::uint64_t tombstones = 0;
    /** Peer adverts accepted / ignored as stale. */
    std::uint64_t advertsApplied = 0;
    std::uint64_t advertsStale = 0;
    /** Gossip pushes a peer's router refused (outage/crash). */
    std::uint64_t advertsDropped = 0;
    std::uint64_t antiEntropyRounds = 0;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /** Home-side fetch admissions. */
    std::uint64_t fetchGrants = 0;
    std::uint64_t fetchCapRejects = 0;
    std::uint64_t fetchStaleRejects = 0;
    /** Completed fetches by validation outcome. */
    std::uint64_t fetchValidated = 0;
    std::uint64_t fetchInvalidated = 0;
};

/**
 * One server's federation directory. Lives next to the coordinator
 * and its prefix registry; binds the /federation routes there
 * (federation_rest.hh).
 */
class FederationDirectory
{
  public:
    /**
     * @param sim Shared cluster simulation.
     * @param registry This server's prefix registry; its chain
     *        observer is claimed by this directory.
     * @param config Tunables (serverId must be unique per fabric).
     */
    FederationDirectory(aqua::sim::Simulation &sim,
                        cluster::PrefixRegistry &registry,
                        DirectoryConfig config = {});

    FederationDirectory(const FederationDirectory &) = delete;
    FederationDirectory &operator=(const FederationDirectory &) =
        delete;
    ~FederationDirectory();

    std::uint32_t serverId() const { return cfg.serverId; }
    const DirectoryConfig &config() const { return cfg; }
    const DirectoryStats &stats() const { return counters; }

    /**
     * Connect a peer server's coordinator router (gossip and
     * cross-server fetch control ride it, so the peer's outage and
     * crash faults apply). Call once per peer, both directions.
     */
    void addPeer(std::uint32_t serverId, core::RestRouter &router);

    /**
     * Start periodic anti-entropy: every period, re-send the full
     * local advert table to every peer, until @p until (exclusive).
     * The horizon keeps the event queue finite for sim.run().
     */
    void startAntiEntropy(aqua::sim::Tick until);

    /** Run one anti-entropy round now (also used by tests). */
    void antiEntropyRound();

    /** Optional event log (fed_advert, fed_tombstone, ...). */
    void setTraceLog(trace::TraceLog *log) { tracer = log; }

    //
    // Consumer side.
    //

    /**
     * Longest live remote advert matching one of @p candidates
     * (ordered longest-first). Own-server and tombstoned entries
     * never match; a verify mismatch falls through to the next
     * candidate.
     */
    FederationLookup
    lookup(const std::vector<cluster::CandidateKey> &candidates);

    /**
     * Ask @p entry's home server to admit a fetch: dispatches
     * POST /federation/fetch_begin on the home coordinator's router.
     * Refused when the home is unreachable, over its admission cap,
     * or no longer holds the chain.
     */
    FetchGrant requestFetch(const DirectoryEntry &entry);

    /**
     * Report a completed stream to the home server
     * (POST /federation/fetch_end) and learn whether the payload is
     * trustworthy: the chain must still be registered and its advert
     * version unchanged since the grant. false = the home mutated the
     * chain mid-stream; the consumer must discard and recompute.
     */
    bool finishFetch(std::uint32_t homeServer, std::uint64_t ticket);

    //
    // Home side (invoked via /federation/* routes).
    //

    /** Apply one gossiped advert from a peer. */
    void applyAdvert(const DirectoryEntry &entry);

    /** Admit (or refuse) a remote fetch of a locally homed chain. */
    FetchGrant fetchBegin(std::uint64_t key, std::uint64_t verify,
                          std::uint32_t consumerServer);

    /** Close a fetch ticket; @return payload validity. */
    bool fetchEnd(std::uint64_t ticket);

    /** Remote streams currently being served (admission load). */
    std::size_t activeFetches() const { return fetches.size(); }

    /** Live (non-tombstoned) remote adverts held. */
    std::size_t remoteAdvertCount() const;

    /** Local adverts held (including tombstones). */
    std::size_t localAdvertCount() const { return local.size(); }

    //
    // Crash recovery (src/recovery) — mirrors PrefixRegistry.
    //

    /** Attach (or detach, with nullptr) the write-ahead journal. */
    void attachJournal(aqua::recovery::StateJournal *j);

    /** Full-state export of the authoritative local adverts. */
    json::Value exportState() const;

    /** Drop all advert/fetch state; peers, config and stats stay. */
    void reset();

    /** Restore a full-state export taken by exportState(). */
    void restoreState(const json::Value &snapshot);

    /** Re-apply one journaled mutation (replay; never re-journaled). */
    void applyJournalRecord(const std::string &op,
                            const json::Value &fields);

    /** Freeze mutating traffic during a coordinator crash window:
     *  federation_rest maps a frozen directory to a retryable 503. */
    void setFrozen(bool f) { frozenFlag = f; }
    bool frozen() const { return frozenFlag; }

    /** Serialize an advert to its wire/journal JSON form. */
    static json::Value advertToJson(const DirectoryEntry &e);

    /** Parse an advert from its wire/journal JSON form. */
    static DirectoryEntry advertFromJson(const json::Value &v);

  private:
    struct Peer
    {
        std::uint32_t serverId = 0;
        core::RestRouter *router = nullptr;
    };

    struct ActiveFetch
    {
        std::uint64_t key = 0;
        std::uint64_t verify = 0;
        /** Local advert version at grant time. */
        std::uint64_t version = 0;
    };

    /** Registry observer: a chain gained a local home. */
    void onChainPublished(std::uint64_t key, std::uint64_t verify,
                          std::uint32_t blocks, std::uint64_t tokens,
                          std::uint64_t bytes,
                          std::uint64_t chainSig);

    /** Registry observer: a chain lost its last local copy. */
    void onChainInvalidated(std::uint64_t key);

    /** Push one advert to every peer after the gossip delay. */
    void pushToPeers(const DirectoryEntry &entry);

    /** Dispatch one advert to one peer's router, now. */
    void pushToPeer(const Peer &peer, const DirectoryEntry &entry);

    void jlog(const char *op, json::Value fields);
    void trace(const char *category, const DirectoryEntry &e);

    aqua::sim::Simulation &sim;
    cluster::PrefixRegistry &registry;
    DirectoryConfig cfg;
    std::vector<Peer> peers;
    /** Authoritative adverts of locally homed chains, by key
     *  (tombstones retained so re-publishes keep version order). */
    std::map<std::uint64_t, DirectoryEntry> local;
    /** Learned peer adverts: key -> origin server -> latest. */
    std::map<std::uint64_t, std::map<std::uint32_t, DirectoryEntry>>
        remote;
    /** Open fetch grants by ticket. */
    std::map<std::uint64_t, ActiveFetch> fetches;
    std::uint64_t nextTicket = 1;
    /** Monotonic advert version source (per directory). */
    std::uint64_t seq = 0;
    trace::TraceLog *tracer = nullptr;
    aqua::recovery::StateJournal *journal = nullptr;
    bool frozenFlag = false;
    bool antiEntropyArmed = false;
    DirectoryStats counters;
};

} // namespace aqua::federation

#endif // AQUA_FEDERATION_DIRECTORY_HH
