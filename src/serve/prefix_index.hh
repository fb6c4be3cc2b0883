/**
 * @file
 * Hash-based prefix index for copy-on-write KV block sharing.
 *
 * vLLM-style automatic prefix caching: the KV blocks of a sequence are
 * keyed by a rolling hash over the token-content chain they hold, so a
 * new sequence whose prompt shares a prefix with cached state reuses
 * the resident blocks instead of recomputing (and re-writing) their KV.
 * Full blocks are keyed by the chain hash up to and including the
 * block; a partially filled tail block gets its own entry keyed by the
 * chain plus the partial content and length, and is shared
 * copy-on-write (a borrower forks the block before appending).
 *
 * Every entry carries a second, independently seeded verification hash;
 * a primary-key hit whose verification hash mismatches is treated as a
 * miss (hash-collision fallback), never as a false share.
 */

#ifndef AQUA_SERVE_PREFIX_INDEX_HH
#define AQUA_SERVE_PREFIX_INDEX_HH

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "mem/block_allocator.hh"
#include "sim/ticks.hh"
#include "workload/request.hh"

namespace aqua::serve {

/** Content id of the token at a position of a sequence's stream. */
using TokenFn = std::function<std::uint64_t(std::uint64_t)>;

/** Token function for a request (simulated token contents). */
TokenFn tokenFnFor(const workload::Request &request);

/**
 * How the index picks eviction victims.
 */
enum class EvictionPolicy
{
    /** Strict least-recently-used (default). */
    Lru,
    /** Cheapest-to-lose first: score = chain depth x hit count, so a
     *  deep, frequently reused chain (an expensive recompute) outlives
     *  a shallow or cold one even when recently touched. */
    CostAware,
};

/** Counters kept by the index (block granularity). */
struct PrefixIndexStats
{
    /** Full blocks served from cache by lookups. */
    std::uint64_t hits = 0;
    /** Full blocks a lookup wanted but the index could not serve. */
    std::uint64_t misses = 0;
    /** Partial tail blocks served (copy-on-write shares). */
    std::uint64_t partialHits = 0;
    /** Primary-key hits rejected by the verification hash. */
    std::uint64_t collisions = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;

    double
    hitRate() const
    {
        std::uint64_t total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

/**
 * Maps token-chain hashes to resident KV blocks.
 *
 * The index stores block ids only; reference counting lives in the
 * owning KvCache, which takes one reference per entry it publishes and
 * drops it when the entry is evicted.
 */
class PrefixIndex
{
  public:
    explicit PrefixIndex(std::uint32_t blockTokens);

    /** Result of a lookup. */
    struct Match
    {
        /** Matched blocks, chain order (full blocks, then at most one
         *  partial tail). No references are taken. */
        std::vector<aqua::mem::BlockId> blocks;
        /** Tokens covered by the match. */
        std::uint64_t tokens = 0;
        /** Tokens in the trailing partial block (0 = all full). */
        std::uint32_t partialTokens = 0;
    };

    /**
     * Longest cached chain matching @p tok, capped at @p maxTokens.
     *
     * @param touch Update LRU stamps and hit/miss counters; pass false
     *              for read-only probes (admission accounting).
     */
    Match lookup(const TokenFn &tok, std::uint64_t maxTokens,
                 aqua::sim::Tick now, bool touch = true);

    /**
     * Register @p blocks as holding tokens [0, tokens) of @p tok's
     * stream. Existing entries are refreshed, not replaced.
     *
     * @return Blocks newly referenced by the index, one per new entry
     *         (the caller should take a reference on each).
     */
    std::vector<aqua::mem::BlockId>
    insert(const TokenFn &tok, std::uint64_t tokens,
           const std::vector<aqua::mem::BlockId> &blocks,
           aqua::sim::Tick now);

    /**
     * Evict up to @p maxEntries entries whose block satisfies
     * @p evictable (typically: no borrower besides the index), cheapest
     * first. Victims come from an ordered index kept current on every
     * touch, insert and erase (O(log n) each), sorted by (cost,
     * lastUse, block, key): cost is depth x uses under CostAware and 0
     * under Lru; the chain key only makes the order total (a block's
     * full entry vs its stale partial entry stamped on the same tick).
     * The walk starts at the cheapest entry and skips entries whose
     * block fails @p evictable (borrowed or pinned), re-checking it per
     * candidate, since evicting one entry can change another's answer.
     * Victims and their order match sorting every entry by that key.
     *
     * @return The evicted entries' blocks in eviction order (the
     *         caller drops one reference per returned element).
     */
    std::vector<aqua::mem::BlockId>
    evictLru(std::size_t maxEntries,
             const std::function<bool(aqua::mem::BlockId)> &evictable);

    /** Drop every entry. @return blocks to unref, one per entry. */
    std::vector<aqua::mem::BlockId> clear();

    /** References the index holds on @p id (entries pointing at it). */
    std::uint32_t refsHeld(aqua::mem::BlockId id) const;

    /**
     * Chain key over the first @p fullBlocks blocks of @p tok's
     * stream; identifies a shared block group (offload dedup).
     */
    std::uint64_t chainKey(const TokenFn &tok,
                           std::size_t fullBlocks) const;

    /** Primary + verification hash of one chain boundary. */
    struct ChainKeys
    {
        std::uint64_t key = 0;
        std::uint64_t verify = 0;
    };

    /** Both chain hashes over the first @p fullBlocks blocks. */
    ChainKeys chainKeysAt(const TokenFn &tok,
                          std::size_t fullBlocks) const;

    /**
     * Both chain hashes at every full-block boundary up to
     * @p fullBlocks: element i covers blocks [0, i]. One rolling pass;
     * feeds the cluster registry's candidate-key lookups.
     */
    std::vector<ChainKeys> chainKeysUpTo(const TokenFn &tok,
                                         std::size_t fullBlocks) const;

    /**
     * Keys of the entry that covers tokens [0, @p tokens) of @p tok's
     * stream, as the index stores them (primary mask applied): a full
     * block's entry when @p tokens is a multiple of the block size,
     * else the partial tail's. Lets an external model of the index
     * address the same entries.
     */
    ChainKeys entryKeysAt(const TokenFn &tok, std::uint64_t tokens) const;

    /** Select the eviction victim ordering (default Lru). Re-keys
     *  the eviction index, whose cost term depends on the policy. */
    void setEvictionPolicy(EvictionPolicy policy);
    EvictionPolicy evictionPolicy() const { return eviction; }

    /**
     * Consistency audit (tests and harnesses, not the hot path): the
     * eviction index holds exactly one current key per entry, and
     * every block's reference count matches the entries pointing at
     * it. Returns human-readable violations; empty = consistent.
     */
    std::vector<std::string> auditInvariants() const;

    std::size_t entries() const { return map.size(); }
    const PrefixIndexStats &stats() const { return counters; }

    /**
     * Test hook: mask applied to primary keys. A narrow mask forces
     * primary collisions so the verification-hash fallback can be
     * exercised deterministically.
     */
    void setPrimaryMask(std::uint64_t mask) { primaryMask = mask; }

  private:
    struct Entry
    {
        aqua::mem::BlockId block = 0;
        /** Independent verification hash (collision fallback). */
        std::uint64_t verify = 0;
        /** Tokens the entry covers in its block (== blockTokens for
         *  full blocks, fewer for a partial tail). */
        std::uint32_t tokens = 0;
        aqua::sim::Tick lastUse = 0;
        /** Blocks from the chain root to this entry (1-based): the
         *  recompute depth a loss would cost (CostAware scoring). */
        std::uint32_t depth = 1;
        /** Lookup hits served (CostAware scoring). */
        std::uint64_t uses = 0;
    };

    /** Dual rolling hash state over one block's tokens. */
    struct ChainState
    {
        std::uint64_t key;
        std::uint64_t verify;
    };

    /** Eviction order: (cost, lastUse, block, primary key). */
    using OrderKey = std::tuple<std::uint64_t, aqua::sim::Tick,
                                aqua::mem::BlockId, std::uint64_t>;

    OrderKey orderKey(std::uint64_t key, const Entry &e) const;
    /** Stamp @p e (stored under @p key) as used at @p now, counting a
     *  lookup hit if @p hit, and move it to its new eviction slot. */
    void touchEntry(std::uint64_t key, Entry &e, aqua::sim::Tick now,
                    bool hit);

    ChainState extendChain(ChainState chain, const TokenFn &tok,
                           std::uint64_t firstToken,
                           std::uint32_t count) const;
    std::uint64_t partialKey(const ChainState &chain,
                             std::uint64_t partialVerify,
                             std::uint32_t tokens) const;

    std::uint32_t blockTokens;
    EvictionPolicy eviction = EvictionPolicy::Lru;
    std::uint64_t primaryMask = ~std::uint64_t(0);
    std::unordered_map<std::uint64_t, Entry> map;
    /** One orderKey per map entry, cheapest victim first. */
    std::set<OrderKey> order;
    /** Entries per block (a block can back a full and a stale partial
     *  entry at once); one index reference is held per entry. */
    std::unordered_map<aqua::mem::BlockId, std::uint32_t> held;
    PrefixIndexStats counters;
};

} // namespace aqua::serve

#endif // AQUA_SERVE_PREFIX_INDEX_HH
