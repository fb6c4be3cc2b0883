#include "serve/prefix_index.hh"

#include <string>

#include "sim/logging.hh"

namespace aqua::serve {

namespace {

/** splitmix64 finalizer. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Primary rolling combine. */
std::uint64_t
combineKey(std::uint64_t h, std::uint64_t v)
{
    return mix64(h ^ (v * 0x9ddfea08eb382d69ull));
}

/** Verification combine: independent constants so the two chains do
 *  not collide together. */
std::uint64_t
combineVerify(std::uint64_t h, std::uint64_t v)
{
    return mix64((h + v) * 0xc2b2ae3d27d4eb4full + 0x165667b19e3779f9ull);
}

constexpr std::uint64_t kSeedKey = 0x243f6a8885a308d3ull;
constexpr std::uint64_t kSeedVerify = 0x452821e638d01377ull;
constexpr std::uint64_t kPartialSalt = 0xb5297a4d3c2c1b3full;

} // anonymous namespace

TokenFn
tokenFnFor(const workload::Request &request)
{
    return [request](std::uint64_t pos) {
        return workload::tokenContent(request, pos);
    };
}

PrefixIndex::PrefixIndex(std::uint32_t blockTokens)
    : blockTokens(blockTokens)
{
    if (blockTokens == 0)
        aqua::sim::panic("PrefixIndex: zero block tokens");
}

PrefixIndex::ChainState
PrefixIndex::extendChain(ChainState chain, const TokenFn &tok,
                         std::uint64_t firstToken,
                         std::uint32_t count) const
{
    for (std::uint32_t i = 0; i < count; ++i) {
        std::uint64_t content = tok(firstToken + i);
        chain.key = combineKey(chain.key, content);
        chain.verify = combineVerify(chain.verify, content);
    }
    return chain;
}

PrefixIndex::OrderKey
PrefixIndex::orderKey(std::uint64_t key, const Entry &e) const
{
    // Cheapest loss first: chain depth x hit count approximates the
    // recompute bill of evicting (CostAware); Lru orders on recency.
    std::uint64_t cost = eviction == EvictionPolicy::CostAware
                             ? std::uint64_t(e.depth) * e.uses
                             : 0;
    return {cost, e.lastUse, e.block, key};
}

void
PrefixIndex::touchEntry(std::uint64_t key, Entry &e,
                        aqua::sim::Tick now, bool hit)
{
    auto node = order.extract(orderKey(key, e));
    if (node.empty())
        aqua::sim::panic("PrefixIndex: entry missing from eviction order");
    e.lastUse = now;
    if (hit)
        ++e.uses;
    node.value() = orderKey(key, e);
    order.insert(std::move(node));
}

void
PrefixIndex::setEvictionPolicy(EvictionPolicy policy)
{
    eviction = policy;
    order.clear();
    for (const auto &[key, e] : map)
        order.insert(orderKey(key, e));
}

std::uint64_t
PrefixIndex::partialKey(const ChainState &chain,
                        std::uint64_t /*partialVerify*/,
                        std::uint32_t tokens) const
{
    return mix64(chain.key ^ (std::uint64_t(tokens) * kPartialSalt));
}

PrefixIndex::Match
PrefixIndex::lookup(const TokenFn &tok, std::uint64_t maxTokens,
                    aqua::sim::Tick now, bool touch)
{
    Match m;
    ChainState chain{kSeedKey, kSeedVerify};
    std::uint64_t fullWanted = maxTokens / blockTokens;
    std::uint64_t i = 0;
    for (; i < fullWanted; ++i) {
        ChainState next = extendChain(chain, tok,
                                      i * blockTokens, blockTokens);
        auto it = map.find(next.key & primaryMask);
        if (it == map.end())
            break;
        Entry &e = it->second;
        if (e.tokens != blockTokens || e.verify != next.verify) {
            // Primary-key collision (or a partial entry aliased under
            // a narrow mask): fall back to a miss, never share.
            if (touch)
                ++counters.collisions;
            break;
        }
        chain = next;
        m.blocks.push_back(e.block);
        m.tokens += blockTokens;
        if (touch) {
            touchEntry(it->first, e, now, true);
            ++counters.hits;
        }
    }
    if (touch)
        counters.misses += fullWanted - i;

    // A partially filled tail is shareable (copy-on-write) only when
    // every full block before it matched.
    std::uint32_t rem = static_cast<std::uint32_t>(
        maxTokens - i * blockTokens);
    if (i == fullWanted && rem > 0 && rem < blockTokens) {
        ChainState pc = extendChain(chain, tok, i * blockTokens, rem);
        auto it = map.find(partialKey(chain, pc.verify, rem) &
                           primaryMask);
        if (it != map.end()) {
            Entry &e = it->second;
            if (e.tokens == rem && e.verify == pc.verify) {
                m.blocks.push_back(e.block);
                m.tokens += rem;
                m.partialTokens = rem;
                if (touch) {
                    touchEntry(it->first, e, now, true);
                    ++counters.partialHits;
                }
            } else if (touch) {
                ++counters.collisions;
            }
        }
    }
    return m;
}

std::vector<aqua::mem::BlockId>
PrefixIndex::insert(const TokenFn &tok, std::uint64_t tokens,
                    const std::vector<aqua::mem::BlockId> &blocks,
                    aqua::sim::Tick now)
{
    std::vector<aqua::mem::BlockId> newly;
    std::uint64_t full = tokens / blockTokens;
    if (blocks.size() * blockTokens < tokens) {
        aqua::sim::panic("PrefixIndex::insert: %zu blocks cannot hold "
                         "%llu tokens", blocks.size(),
                         static_cast<unsigned long long>(tokens));
    }
    std::uint32_t depth = 0;
    auto place = [&](std::uint64_t key, std::uint64_t verify,
                     aqua::mem::BlockId block, std::uint32_t count) {
        ++depth;
        auto it = map.find(key);
        if (it == map.end()) {
            const Entry &e = map.emplace(key, Entry{block, verify, count,
                                                    now, depth, 0})
                                 .first->second;
            order.insert(orderKey(key, e));
            ++held[block];
            ++counters.insertions;
            newly.push_back(block);
            return;
        }
        // Same content already cached (or a primary collision): keep
        // the existing entry; refresh its LRU stamp on a content match.
        if (it->second.verify == verify && it->second.tokens == count)
            touchEntry(key, it->second, now, false);
        else
            ++counters.collisions;
    };

    ChainState chain{kSeedKey, kSeedVerify};
    for (std::uint64_t i = 0; i < full; ++i) {
        chain = extendChain(chain, tok, i * blockTokens, blockTokens);
        place(chain.key & primaryMask, chain.verify,
              blocks[static_cast<std::size_t>(i)], blockTokens);
    }
    std::uint32_t rem = static_cast<std::uint32_t>(
        tokens - full * blockTokens);
    if (rem > 0) {
        ChainState pc = extendChain(chain, tok, full * blockTokens, rem);
        place(partialKey(chain, pc.verify, rem) & primaryMask, pc.verify,
              blocks[static_cast<std::size_t>(full)], rem);
    }
    return newly;
}

std::vector<aqua::mem::BlockId>
PrefixIndex::evictLru(
    std::size_t maxEntries,
    const std::function<bool(aqua::mem::BlockId)> &evictable)
{
    std::vector<aqua::mem::BlockId> out;
    // Cheapest first; evictability is re-checked per candidate because
    // each eviction releases a reference a sibling entry's check reads.
    for (auto it = order.begin();
         it != order.end() && out.size() < maxEntries;) {
        const auto &[cost, lastUse, block, key] = *it;
        if (!evictable(block)) {
            ++it;
            continue;
        }
        out.push_back(block);
        map.erase(key);
        auto h = held.find(block);
        if (h != held.end() && --h->second == 0)
            held.erase(h);
        ++counters.evictions;
        it = order.erase(it);
    }
    return out;
}

std::vector<aqua::mem::BlockId>
PrefixIndex::clear()
{
    std::vector<aqua::mem::BlockId> out;
    out.reserve(map.size());
    for (const auto &[key, e] : map)
        out.push_back(e.block);
    counters.evictions += map.size();
    map.clear();
    order.clear();
    held.clear();
    return out;
}

std::vector<std::string>
PrefixIndex::auditInvariants() const
{
    std::vector<std::string> violations;
    if (order.size() != map.size())
        violations.push_back("eviction order holds " +
                             std::to_string(order.size()) + " keys for " +
                             std::to_string(map.size()) + " entries");
    std::unordered_map<aqua::mem::BlockId, std::uint32_t> backing;
    for (const auto &[key, e] : map) {
        if (!order.contains(orderKey(key, e)))
            violations.push_back("entry " + std::to_string(key) +
                                 " (block " + std::to_string(e.block) +
                                 ") is not in the eviction order under "
                                 "its current key");
        ++backing[e.block];
    }
    for (const auto &[block, refs] : held) {
        auto b = backing.find(block);
        std::uint32_t want = b == backing.end() ? 0 : b->second;
        if (refs == 0)
            violations.push_back("block " + std::to_string(block) +
                                 " keeps a zero index ref count");
        else if (refs != want)
            violations.push_back("block " + std::to_string(block) +
                                 " holds " + std::to_string(refs) +
                                 " index refs for " +
                                 std::to_string(want) + " entries");
    }
    for (const auto &[block, entries] : backing) {
        if (!held.contains(block))
            violations.push_back("block " + std::to_string(block) +
                                 " backs " + std::to_string(entries) +
                                 " entries but holds no index ref");
    }
    return violations;
}

std::uint32_t
PrefixIndex::refsHeld(aqua::mem::BlockId id) const
{
    auto it = held.find(id);
    return it == held.end() ? 0 : it->second;
}

std::uint64_t
PrefixIndex::chainKey(const TokenFn &tok, std::size_t fullBlocks) const
{
    ChainState chain{kSeedKey, kSeedVerify};
    chain = extendChain(chain, tok, 0,
                        static_cast<std::uint32_t>(fullBlocks) *
                            blockTokens);
    return chain.key;
}

PrefixIndex::ChainKeys
PrefixIndex::chainKeysAt(const TokenFn &tok,
                         std::size_t fullBlocks) const
{
    ChainState chain{kSeedKey, kSeedVerify};
    chain = extendChain(chain, tok, 0,
                        static_cast<std::uint32_t>(fullBlocks) *
                            blockTokens);
    return {chain.key, chain.verify};
}

PrefixIndex::ChainKeys
PrefixIndex::entryKeysAt(const TokenFn &tok, std::uint64_t tokens) const
{
    std::uint64_t full = tokens / blockTokens;
    std::uint32_t rem = static_cast<std::uint32_t>(
        tokens - full * blockTokens);
    ChainState chain = extendChain(
        {kSeedKey, kSeedVerify}, tok, 0,
        static_cast<std::uint32_t>(full * blockTokens));
    if (rem == 0)
        return {chain.key & primaryMask, chain.verify};
    ChainState pc = extendChain(chain, tok, full * blockTokens, rem);
    return {partialKey(chain, pc.verify, rem) & primaryMask, pc.verify};
}

std::vector<PrefixIndex::ChainKeys>
PrefixIndex::chainKeysUpTo(const TokenFn &tok,
                           std::size_t fullBlocks) const
{
    std::vector<ChainKeys> out;
    out.reserve(fullBlocks);
    ChainState chain{kSeedKey, kSeedVerify};
    for (std::size_t i = 0; i < fullBlocks; ++i) {
        chain = extendChain(chain, tok, i * blockTokens, blockTokens);
        out.push_back({chain.key, chain.verify});
    }
    return out;
}

} // namespace aqua::serve
