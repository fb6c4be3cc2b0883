/**
 * @file
 * Tests for copy-on-write prefix caching: the hash index, CoW forks,
 * refcount hygiene, collision fallback, cache eviction vs donation,
 * and the engine-level shared offload round trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <tuple>

#include "exp/testbed.hh"
#include "hw/gpu.hh"
#include "hw/gpu_spec.hh"
#include "model/model_spec.hh"
#include "serve/kv_cache.hh"
#include "serve/prefix_index.hh"
#include "serve/vllm_engine.hh"
#include "sim/simulation.hh"

using namespace aqua;
using namespace aqua::sim;
using namespace aqua::serve;

namespace {

struct Fixture
{
    Simulation sim;
    hw::Gpu gpu{sim, 0, hw::a100_80g()};
};

/** Deterministic token stream: content id = salt ^ position. */
TokenFn
stream(std::uint64_t salt)
{
    return [salt](std::uint64_t pos) { return salt ^ (pos + 1); };
}

workload::Request
sharedReq(std::uint64_t id, Tick arrival, std::uint32_t prompt,
          std::uint32_t out, std::uint32_t prefixTokens)
{
    workload::Request r;
    r.id = id;
    r.arrival = arrival;
    r.promptTokens = prompt;
    r.maxNewTokens = out;
    r.prefixStream = workload::contentStreamId(0x5157);
    r.prefixTokens = prefixTokens;
    return r;
}

} // anonymous namespace

TEST(PrefixCache, AcquireMatchesPublishedChain)
{
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 1 * gib, 16);
    TokenFn tok = stream(0xabc);

    auto owner = kv.allocateBlocks(3);
    ASSERT_TRUE(owner);
    kv.publishPrefix(tok, 40, *owner, 10);
    kv.freeBlocks(*owner); // cache-only now
    EXPECT_EQ(kv.evictableBlocks(), 3u);

    KvCache::PrefixAcquire acq = kv.acquirePrefix(tok, 40, 20);
    ASSERT_EQ(acq.blocks.size(), 3u);
    EXPECT_EQ(acq.tokens, 40u);
    EXPECT_EQ(acq.partialTokens, 8u);
    EXPECT_EQ(acq.blocks, *owner);
    // Borrower + index on every matched block; none evictable.
    for (mem::BlockId id : acq.blocks)
        EXPECT_EQ(kv.blockRefCount(id), 2u);
    EXPECT_EQ(kv.evictableBlocks(), 0u);
    kv.freeBlocks(acq.blocks);
    EXPECT_EQ(kv.evictableBlocks(), 3u);
}

TEST(PrefixCache, ForkThenAppendDiverges)
{
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 1 * gib, 16);
    TokenFn tokA = stream(0xaaaa);
    // Identical to A for the first 40 tokens, distinct afterwards.
    TokenFn tokB = [&](std::uint64_t pos) {
        return pos < 40 ? tokA(pos) : 0xb0b ^ (pos + 1);
    };

    auto owner = kv.allocateBlocks(3);
    ASSERT_TRUE(owner);
    kv.publishPrefix(tokA, 40, *owner, 10);
    kv.freeBlocks(*owner);

    KvCache::PrefixAcquire acq = kv.acquirePrefix(tokB, 40, 20);
    ASSERT_EQ(acq.blocks.size(), 3u);
    mem::BlockId tail = acq.blocks[2];
    std::uint64_t tailSig = kv.blockSig(tail);

    // CoW: B must not append into the shared partial tail.
    auto fork = kv.forkBlock(tail);
    ASSERT_TRUE(fork);
    EXPECT_NE(*fork, tail);
    EXPECT_EQ(kv.blockRefCount(*fork), 1u);
    EXPECT_EQ(kv.blockRefCount(tail), 1u); // index only again
    EXPECT_EQ(kv.blockSig(*fork), tailSig);

    // B fills its tail with its own tokens and publishes.
    std::vector<mem::BlockId> bBlocks = {acq.blocks[0], acq.blocks[1],
                                         *fork};
    kv.publishPrefix(tokB, 48, bBlocks, 30);
    // The fork now holds B's block 2; A's partial is untouched.
    EXPECT_NE(kv.blockSig(*fork), tailSig);
    EXPECT_EQ(kv.blockSig(tail), tailSig);

    // A's chain still serves A; the 40-token partial survives.
    KvCache::PrefixAcquire again = kv.acquirePrefix(tokA, 40, 40);
    ASSERT_EQ(again.blocks.size(), 3u);
    EXPECT_EQ(again.blocks[2], tail);
    kv.freeBlocks(again.blocks);
    kv.freeBlocks(bBlocks);
}

TEST(PrefixCache, NoRefcountLeakAfterChurn)
{
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 1 * gib, 16);
    std::size_t total = kv.totalBlocks();

    for (int round = 0; round < 20; ++round) {
        TokenFn tok = stream(0x1000 + static_cast<std::uint64_t>(
                                          round % 5));
        auto owner = kv.allocateBlocks(4);
        ASSERT_TRUE(owner);
        kv.publishPrefix(tok, 60, *owner, round * 10);
        KvCache::PrefixAcquire acq =
            kv.acquirePrefix(tok, 60, round * 10 + 5);
        if (acq.partialTokens != 0) {
            auto forked = kv.forkBlock(acq.blocks.back());
            ASSERT_TRUE(forked);
            acq.blocks.back() = *forked;
        }
        kv.freeBlocks(acq.blocks);
        kv.freeBlocks(*owner);
        ASSERT_EQ(kv.prefixIndex().auditInvariants(),
                  std::vector<std::string>{});
    }

    // Everything still allocated is index-held cache, nothing else.
    EXPECT_EQ(kv.freeBlocks() + kv.evictableBlocks(), total);
    EXPECT_EQ(kv.liveKvBytes(), 0u);
    kv.dropCache();
    EXPECT_EQ(kv.prefixIndex().auditInvariants(),
              std::vector<std::string>{});
    EXPECT_EQ(kv.freeBlocks(), total);
    EXPECT_EQ(kv.evictableBlocks(), 0u);
    EXPECT_EQ(kv.usedBytes(), 0u);
}

TEST(PrefixCache, CollisionFallsBackToMiss)
{
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 1 * gib, 16);
    // Collapse every primary key into one bucket: any two distinct
    // chains now collide on the primary hash.
    kv.prefixIndex().setPrimaryMask(0);

    TokenFn tokA = stream(0xaaa);
    TokenFn tokB = stream(0xbbb);
    auto owner = kv.allocateBlocks(1);
    ASSERT_TRUE(owner);
    kv.publishPrefix(tokA, 16, *owner, 10);
    kv.freeBlocks(*owner);

    // B's primary key hits A's entry; the verification hash must
    // reject it — a miss, never a false share.
    KvCache::PrefixAcquire acq = kv.acquirePrefix(tokB, 16, 20);
    EXPECT_TRUE(acq.blocks.empty());
    EXPECT_GE(kv.prefixStats().collisions, 1u);

    // The true owner still matches through the same bucket.
    KvCache::PrefixAcquire own = kv.acquirePrefix(tokA, 16, 30);
    ASSERT_EQ(own.blocks.size(), 1u);
    EXPECT_EQ(own.blocks[0], (*owner)[0]);
    kv.freeBlocks(own.blocks);
}

TEST(PrefixCache, AllocationEvictsCachedLru)
{
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 1 * gib, 16);
    std::size_t total = kv.totalBlocks();

    auto owner = kv.allocateBlocks(4);
    ASSERT_TRUE(owner);
    kv.publishPrefix(stream(0xcafe), 64, *owner, 10);
    kv.freeBlocks(*owner);
    EXPECT_EQ(kv.evictableBlocks(), 4u);

    // Ask for every block: the cache must give way.
    auto allBlocks = kv.allocateBlocks(total);
    ASSERT_TRUE(allBlocks);
    EXPECT_EQ(kv.evictableBlocks(), 0u);
    EXPECT_EQ(kv.freeBlocks(), 0u);
    kv.freeBlocks(*allBlocks);
}

TEST(PrefixCache, DonationEvictsCacheButNeverSharedBlocks)
{
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 2 * gib, 16);

    // A cache-only chain (donatable) and a borrowed chain (pinned).
    auto cold = kv.allocateBlocks(4);
    ASSERT_TRUE(cold);
    kv.publishPrefix(stream(0xc01d), 64, *cold, 10);
    kv.freeBlocks(*cold);

    TokenFn hot = stream(0x407);
    auto hotOwner = kv.allocateBlocks(4);
    ASSERT_TRUE(hotOwner);
    kv.publishPrefix(hot, 64, *hotOwner, 20);
    kv.freeBlocks(*hotOwner);
    KvCache::PrefixAcquire borrowed = kv.acquirePrefix(hot, 64, 30);
    ASSERT_EQ(borrowed.blocks.size(), 4u);

    std::uint64_t released = kv.shrink(2 * gib);
    EXPECT_GT(released, 0u);
    // The cold cache was evicted to feed the donation...
    EXPECT_EQ(kv.evictableBlocks(), 0u);
    // ...but the borrower's shared blocks survived, content intact.
    for (mem::BlockId id : borrowed.blocks)
        EXPECT_GE(kv.blockRefCount(id), 1u);
    KvCache::PrefixAcquire again = kv.acquirePrefix(hot, 64, 40);
    EXPECT_EQ(again.blocks, borrowed.blocks);
    kv.freeBlocks(again.blocks);
    kv.freeBlocks(borrowed.blocks);
    kv.grow(released);
}

//
// Engine-level sharing.
//

TEST(PrefixCacheEngine, SecondRequestPrefillsFromCache)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngineConfig cfg;
    cfg.prefixCache = true;
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend, cfg);

    engine.submit(sharedReq(0, 0, 800, 8, 768));
    tb.sim().runUntil(secToTicks(30.0));
    ASSERT_EQ(engine.finished().size(), 1u);
    EXPECT_EQ(engine.prefixEngineStats().cachedTokens, 0u);

    // Same 768-token preamble: its prefill comes from cache.
    engine.submit(sharedReq(1, secToTicks(30.0), 800, 8, 768));
    tb.sim().runUntil(secToTicks(60.0));
    ASSERT_EQ(engine.finished().size(), 2u);
    EXPECT_GE(engine.prefixEngineStats().cachedTokens, 700u);
    EXPECT_GT(engine.kvCache().prefixStats().hits, 0u);
    EXPECT_EQ(engine.prefixEngineStats().sigMismatches, 0u);
}

TEST(PrefixCacheEngine, CacheNeverBlocksCompletion)
{
    // Memory-pressure regression: the cache must yield to admissions.
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngineConfig cfg;
    cfg.prefixCache = true;
    cfg.kvPoolBytesOverride = std::uint64_t(1) << 30;
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend, cfg);
    for (int i = 0; i < 6; ++i)
        engine.submit(sharedReq(i, 0, 2000, 100, 1024));
    tb.sim().runUntil(secToTicks(600.0));
    EXPECT_EQ(engine.finished().size(), 6u);
    EXPECT_EQ(engine.prefixEngineStats().sigMismatches, 0u);
    EXPECT_EQ(engine.kvCache().liveKvBytes(), 0u);
}

TEST(PrefixCacheEngine, SharedOffloadRoundTripPreservesContent)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngineConfig cfg;
    cfg.prefixCache = true;
    cfg.kvPoolBytesOverride = std::uint64_t(1) << 30;
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<CfsPolicy>(), backend, cfg);
    // CFS over an undersized pool context-switches these through the
    // backend; they all share a 1024-token preamble.
    for (int i = 0; i < 6; ++i)
        engine.submit(sharedReq(i, 0, 2000, 400, 1024));
    tb.sim().runUntil(secToTicks(900.0));
    ASSERT_EQ(engine.finished().size(), 6u);
    EXPECT_GT(engine.swapOutCount(), 0u);
    // Byte identity across every swap round trip.
    EXPECT_EQ(engine.prefixEngineStats().sigMismatches, 0u);
    // All KV returned; only the prefix cache may still hold blocks.
    EXPECT_EQ(engine.kvCache().liveKvBytes(), 0u);
}

TEST(PrefixCacheEngine, SharingReducesOffloadTraffic)
{
    auto run = [](bool sharing) {
        exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
        auto &backend = tb.makeDramBackend(0);
        VllmEngineConfig cfg;
        cfg.prefixCache = sharing;
        cfg.kvPoolBytesOverride = std::uint64_t(1) << 30;
        VllmEngine engine(tb.server(), 0, model::codellama34b(),
                          std::make_unique<CfsPolicy>(), backend, cfg);
        for (int i = 0; i < 6; ++i)
            engine.submit(sharedReq(i, 0, 2000, 400, 1024));
        tb.sim().runUntil(secToTicks(900.0));
        EXPECT_EQ(engine.finished().size(), 6u);
        return engine.offloadWriteBytes();
    };
    // Shared-group dedup writes each common preamble once, so the
    // backend sees no more bytes than with sharing off. (Peak live KV
    // is NOT compared here: under memory pressure the admission
    // discount packs more concurrent sequences into the same pool,
    // which is the point of sharing, not a regression.)
    EXPECT_LE(run(true), run(false));
}

TEST(PrefixCacheEngine, ConcurrentSharingReducesPeakLiveKv)
{
    auto run = [](bool sharing) {
        exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
        auto &backend = tb.makeDramBackend(0);
        VllmEngineConfig cfg;
        cfg.prefixCache = sharing;
        VllmEngine engine(tb.server(), 0, model::codellama34b(),
                          std::make_unique<FcfsPolicy>(), backend, cfg);
        // One request publishes the preamble; five more arrive after
        // its prefill and decode alongside it, borrowing the blocks.
        engine.submit(sharedReq(0, 0, 1200, 300, 1024));
        for (int i = 1; i < 6; ++i)
            engine.submit(sharedReq(i, secToTicks(8.0), 1200, 300,
                                    1024));
        tb.sim().runUntil(secToTicks(300.0));
        EXPECT_EQ(engine.finished().size(), 6u);
        return engine.kvCache().peakLiveKvBytes();
    };
    std::uint64_t peakOff = run(false);
    std::uint64_t peakOn = run(true);
    // Six copies of a 64-block preamble collapse into one.
    EXPECT_LT(peakOn, peakOff);
}

TEST(PrefixCacheEngine, OffByDefaultKeepsCountersZero)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend);
    engine.submit(sharedReq(0, 0, 800, 8, 768));
    engine.submit(sharedReq(1, secToTicks(5.0), 800, 8, 768));
    tb.sim().runUntil(secToTicks(60.0));
    ASSERT_EQ(engine.finished().size(), 2u);
    EXPECT_EQ(engine.prefixEngineStats().cachedTokens, 0u);
    EXPECT_EQ(engine.kvCache().prefixStats().hits, 0u);
    EXPECT_EQ(engine.kvCache().evictableBlocks(), 0u);
}

TEST(PrefixCache, MaxCacheShareCapsCacheOnlyBlocks)
{
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 1 * gib, 16);

    // Publish an 8-block chain and release it: all 8 cache-only.
    TokenFn a = stream(0xaaa);
    auto blocksA = kv.allocateBlocks(8);
    ASSERT_TRUE(blocksA);
    kv.publishPrefix(a, 8 * 16, *blocksA, 10);
    kv.freeBlocks(*blocksA);
    ASSERT_EQ(kv.evictableBlocks(), 8u);

    // Cap the cache-only share at 4 blocks: lowering the share evicts
    // down to the cap immediately.
    double share = 4.5 / static_cast<double>(kv.totalBlocks());
    kv.setMaxCacheShare(share);
    ASSERT_EQ(kv.cacheBlockCap(), 4u);
    EXPECT_LE(kv.evictableBlocks(), 4u);

    // Publishing a fresh chain past the cap evicts the LRU chain
    // rather than growing retention: the cap holds afterwards, and the
    // newest chain is the one still resident.
    TokenFn b = stream(0xbbb);
    auto blocksB = kv.allocateBlocks(4);
    ASSERT_TRUE(blocksB);
    kv.publishPrefix(b, 4 * 16, *blocksB, 20);
    kv.freeBlocks(*blocksB);
    EXPECT_LE(kv.evictableBlocks(), 4u);
    KvCache::PrefixAcquire hitB = kv.acquirePrefix(b, 4 * 16, 30);
    EXPECT_EQ(hitB.blocks.size(), 4u);
    kv.freeBlocks(hitB.blocks);
    KvCache::PrefixAcquire missA = kv.acquirePrefix(a, 8 * 16, 40);
    EXPECT_TRUE(missA.blocks.empty());

    // Share 0 forbids any cache-only retention at all.
    kv.setMaxCacheShare(0.0);
    EXPECT_EQ(kv.evictableBlocks(), 0u);
    auto blocksC = kv.allocateBlocks(2);
    ASSERT_TRUE(blocksC);
    kv.publishPrefix(stream(0xccc), 2 * 16, *blocksC, 50);
    kv.freeBlocks(*blocksC);
    EXPECT_EQ(kv.evictableBlocks(), 0u);

    // Out-of-range shares clamp instead of misbehaving.
    kv.setMaxCacheShare(7.0);
    EXPECT_DOUBLE_EQ(kv.maxCacheShare(), 1.0);
    EXPECT_EQ(kv.cacheBlockCap(), kv.totalBlocks());
}

TEST(PrefixCache, CostAwareEvictionKeepsDeepHotChains)
{
    // Chain A: deep (3 blocks) and hot, but last touched *before*
    // chain B. Chain B: shallow, cold, most recently published. LRU
    // sacrifices A first; cost-aware (depth x hits) keeps the chain
    // whose recompute bill is highest and evicts B instead.
    auto build = [](KvCache &kv, const TokenFn &a, const TokenFn &b) {
        auto blocksA = kv.allocateBlocks(3);
        ASSERT_TRUE(blocksA);
        kv.publishPrefix(a, 48, *blocksA, 10);
        kv.freeBlocks(*blocksA);
        for (Tick t : {15, 20}) { // two reuses bump every A entry
            KvCache::PrefixAcquire hit = kv.acquirePrefix(a, 48, t);
            ASSERT_EQ(hit.blocks.size(), 3u);
            kv.freeBlocks(hit.blocks);
        }
        auto blocksB = kv.allocateBlocks(1);
        ASSERT_TRUE(blocksB);
        kv.publishPrefix(b, 16, *blocksB, 30); // newest entry
        kv.freeBlocks(*blocksB);
        ASSERT_EQ(kv.evictableBlocks(), 4u);
    };
    TokenFn a = stream(0xd1);
    TokenFn b = stream(0xd2);

    Fixture lruF;
    KvCache lru(lruF.gpu, model::codellama34b(), 1 * gib, 16);
    build(lru, a, b);
    EXPECT_EQ(lru.evictCached(1), 1u);
    EXPECT_EQ(lru.prefixIndex().auditInvariants(),
              std::vector<std::string>{});
    // Recency alone rotates out part of the expensive chain.
    EXPECT_LT(lru.probePrefixBlocks(a, 48), 3u);
    EXPECT_EQ(lru.probePrefixBlocks(b, 16), 1u);

    Fixture costF;
    KvCache cost(costF.gpu, model::codellama34b(), 1 * gib, 16);
    cost.setEvictionPolicy(EvictionPolicy::CostAware);
    build(cost, a, b);
    EXPECT_EQ(cost.evictCached(1), 1u);
    EXPECT_EQ(cost.prefixIndex().auditInvariants(),
              std::vector<std::string>{});
    EXPECT_EQ(cost.probePrefixBlocks(a, 48), 3u);
    EXPECT_EQ(cost.probePrefixBlocks(b, 16), 0u);
}

namespace {

/**
 * Reference model of PrefixIndex that picks eviction victims the
 * straightforward way: on every call, collect all entries, sort them by
 * (cost, lastUse, block, key) and walk the result, re-checking
 * evictability per candidate. Entries are addressed through the real
 * index's entryKeysAt, so both models key the same content the same
 * way; lookups, inserts and counters follow the documented semantics.
 */
class SortingOracle
{
  public:
    SortingOracle(const PrefixIndex &keys, std::uint32_t blockTokens)
        : keys(keys), blockTokens(blockTokens)
    {}

    void setEvictionPolicy(EvictionPolicy p) { policy = p; }

    PrefixIndex::Match
    lookup(const TokenFn &tok, std::uint64_t maxTokens, Tick now,
           bool touch)
    {
        PrefixIndex::Match m;
        std::uint64_t fullWanted = maxTokens / blockTokens;
        std::uint64_t i = 0;
        for (; i < fullWanted; ++i) {
            PrefixIndex::ChainKeys k =
                keys.entryKeysAt(tok, (i + 1) * blockTokens);
            auto it = map.find(k.key);
            if (it == map.end())
                break;
            Entry &e = it->second;
            if (e.tokens != blockTokens || e.verify != k.verify) {
                if (touch)
                    ++counters.collisions;
                break;
            }
            m.blocks.push_back(e.block);
            m.tokens += blockTokens;
            if (touch) {
                e.lastUse = now;
                ++e.uses;
                ++counters.hits;
            }
        }
        if (touch)
            counters.misses += fullWanted - i;
        std::uint32_t rem =
            static_cast<std::uint32_t>(maxTokens - i * blockTokens);
        if (i == fullWanted && rem > 0 && rem < blockTokens) {
            PrefixIndex::ChainKeys k = keys.entryKeysAt(tok, maxTokens);
            auto it = map.find(k.key);
            if (it != map.end()) {
                Entry &e = it->second;
                if (e.tokens == rem && e.verify == k.verify) {
                    m.blocks.push_back(e.block);
                    m.tokens += rem;
                    m.partialTokens = rem;
                    if (touch) {
                        e.lastUse = now;
                        ++e.uses;
                        ++counters.partialHits;
                    }
                } else if (touch) {
                    ++counters.collisions;
                }
            }
        }
        return m;
    }

    std::vector<mem::BlockId>
    insert(const TokenFn &tok, std::uint64_t tokens,
           const std::vector<mem::BlockId> &blocks, Tick now)
    {
        std::vector<mem::BlockId> newly;
        std::uint32_t depth = 0;
        for (std::uint64_t end = 0; end < tokens;) {
            std::uint64_t blockIdx = end / blockTokens;
            end = std::min(end + blockTokens, tokens);
            auto count = static_cast<std::uint32_t>(
                end - blockIdx * blockTokens);
            PrefixIndex::ChainKeys k = keys.entryKeysAt(tok, end);
            mem::BlockId block = blocks[blockIdx];
            ++depth;
            auto it = map.find(k.key);
            if (it == map.end()) {
                map.emplace(k.key,
                            Entry{block, k.verify, count, now, depth, 0});
                ++held[block];
                ++counters.insertions;
                newly.push_back(block);
            } else if (it->second.verify == k.verify &&
                       it->second.tokens == count) {
                it->second.lastUse = now;
            } else {
                ++counters.collisions;
            }
        }
        return newly;
    }

    std::vector<mem::BlockId>
    evictLru(std::size_t maxEntries,
             const std::function<bool(mem::BlockId)> &evictable)
    {
        using SortKey =
            std::tuple<std::uint64_t, Tick, mem::BlockId, std::uint64_t>;
        std::vector<SortKey> all;
        for (const auto &[key, e] : map) {
            std::uint64_t cost = policy == EvictionPolicy::CostAware
                                     ? std::uint64_t(e.depth) * e.uses
                                     : 0;
            all.emplace_back(cost, e.lastUse, e.block, key);
        }
        std::sort(all.begin(), all.end());
        std::vector<mem::BlockId> out;
        for (const auto &[cost, lastUse, block, key] : all) {
            if (out.size() >= maxEntries)
                break;
            if (!evictable(block))
                continue;
            map.erase(key);
            if (--held[block] == 0)
                held.erase(block);
            ++counters.evictions;
            out.push_back(block);
        }
        return out;
    }

    std::uint32_t
    refsHeld(mem::BlockId b) const
    {
        auto it = held.find(b);
        return it == held.end() ? 0 : it->second;
    }

    std::size_t entries() const { return map.size(); }
    const PrefixIndexStats &stats() const { return counters; }

  private:
    struct Entry
    {
        mem::BlockId block;
        std::uint64_t verify;
        std::uint32_t tokens;
        Tick lastUse;
        std::uint32_t depth;
        std::uint64_t uses;
    };

    const PrefixIndex &keys;
    std::uint32_t blockTokens;
    EvictionPolicy policy = EvictionPolicy::Lru;
    std::map<std::uint64_t, Entry> map;
    std::map<mem::BlockId, std::uint32_t> held;
    PrefixIndexStats counters;
};

void
expectSameStats(const PrefixIndexStats &got, const PrefixIndexStats &want)
{
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.partialHits, want.partialHits);
    EXPECT_EQ(got.collisions, want.collisions);
    EXPECT_EQ(got.insertions, want.insertions);
    EXPECT_EQ(got.evictions, want.evictions);
}

/**
 * KvCache-style evictability: a block qualifies while it is not pinned
 * and the index holds every reference it had when the call started
 * (@p borrowed adds references from live sequences). Evicting one of a
 * block's entries therefore disqualifies its siblings for the rest of
 * the call, which is why the walk must re-check each candidate.
 */
std::function<bool(mem::BlockId)>
cacheOnly(std::function<std::uint32_t(mem::BlockId)> refsHeld,
          const std::set<mem::BlockId> &pinned,
          const std::set<mem::BlockId> &borrowed)
{
    return [=, start = std::map<mem::BlockId, std::uint32_t>{}](
               mem::BlockId b) mutable {
        if (pinned.count(b))
            return false;
        std::uint32_t now = refsHeld(b);
        auto it =
            start.try_emplace(b, now + (borrowed.count(b) ? 1 : 0)).first;
        return now > 0 && now == it->second;
    };
}

/**
 * Drive a PrefixIndex and the sorting oracle with one seeded random
 * sequence of inserts (growing tails over the same blocks, so a block
 * backs a full entry and stale partial entries), touching and read-only
 * lookups, evictions under random pins and borrowers, and one
 * mid-sequence eviction-policy switch. Ticks often repeat, so entries
 * tie on lastUse and the block and key tie-breaks decide.
 */
void
runDifferential(std::uint64_t seed, EvictionPolicy first,
                std::uint64_t primaryMask)
{
    constexpr std::uint32_t kBlockTokens = 4;
    constexpr int kStreams = 6;
    constexpr int kOps = 1500;
    std::mt19937_64 rng(seed);
    auto pick = [&](std::uint64_t n) { return rng() % n; };

    // Streams share a common prefix of varying length, then diverge.
    std::vector<TokenFn> streams;
    for (int s = 0; s < kStreams; ++s) {
        std::uint64_t shared = pick(24);
        std::uint64_t salt = 0x5eed0000 + static_cast<std::uint64_t>(s);
        streams.push_back([shared, salt](std::uint64_t pos) {
            return pos < shared ? 0xc0ffee ^ pos : salt ^ (pos << 8);
        });
    }

    PrefixIndex real(kBlockTokens);
    real.setPrimaryMask(primaryMask);
    SortingOracle oracle(real, kBlockTokens);
    real.setEvictionPolicy(first);
    oracle.setEvictionPolicy(first);

    mem::BlockId nextBlock = 0;
    std::vector<std::vector<mem::BlockId>> owned(kStreams);
    Tick now = 0;
    std::size_t evicted = 0;
    for (int op = 0; op < kOps; ++op) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " op " +
                     std::to_string(op));
        now += pick(3) == 0 ? 1 : 0;
        if (op == kOps / 2) {
            EvictionPolicy other = first == EvictionPolicy::Lru
                                       ? EvictionPolicy::CostAware
                                       : EvictionPolicy::Lru;
            real.setEvictionPolicy(other);
            oracle.setEvictionPolicy(other);
        }
        auto s = static_cast<std::size_t>(pick(kStreams));
        std::uint64_t r = pick(10);
        if (r < 4) {
            // Publish a prefix of the stream; fresh blocks now and then
            // (a new request), else grow over the stream's own blocks.
            if (owned[s].empty() || pick(4) == 0)
                owned[s].clear();
            std::uint64_t tokens = 1 + pick(10 * kBlockTokens);
            while (owned[s].size() * kBlockTokens < tokens)
                owned[s].push_back(nextBlock++);
            ASSERT_EQ(real.insert(streams[s], tokens, owned[s], now),
                      oracle.insert(streams[s], tokens, owned[s], now));
        } else if (r < 7) {
            std::uint64_t maxTokens = pick(10 * kBlockTokens + 1);
            bool touch = pick(4) != 0;
            PrefixIndex::Match got =
                real.lookup(streams[s], maxTokens, now, touch);
            PrefixIndex::Match want =
                oracle.lookup(streams[s], maxTokens, now, touch);
            ASSERT_EQ(got.blocks, want.blocks);
            ASSERT_EQ(got.tokens, want.tokens);
            ASSERT_EQ(got.partialTokens, want.partialTokens);
        } else {
            std::set<mem::BlockId> pinned, borrowed;
            for (mem::BlockId b = 0; b < nextBlock; ++b) {
                if (pick(5) == 0)
                    pinned.insert(b);
                else if (pick(5) == 0)
                    borrowed.insert(b);
            }
            std::size_t max = pick(6);
            std::vector<mem::BlockId> got = real.evictLru(
                max, cacheOnly([&](mem::BlockId b) {
                    return real.refsHeld(b);
                }, pinned, borrowed));
            std::vector<mem::BlockId> want = oracle.evictLru(
                max, cacheOnly([&](mem::BlockId b) {
                    return oracle.refsHeld(b);
                }, pinned, borrowed));
            ASSERT_EQ(got, want);
            evicted += got.size();
        }
        expectSameStats(real.stats(), oracle.stats());
        ASSERT_EQ(real.entries(), oracle.entries());
        for (mem::BlockId b = 0; b < nextBlock; ++b)
            ASSERT_EQ(real.refsHeld(b), oracle.refsHeld(b)) << "block " << b;
        ASSERT_EQ(real.auditInvariants(), std::vector<std::string>{});
    }
    // The sequence really exercised eviction and reuse.
    EXPECT_GT(evicted, 0u);
    EXPECT_GT(real.stats().hits, 0u);
    EXPECT_GT(real.stats().partialHits, 0u);
}

} // anonymous namespace

TEST(PrefixIndexDifferential, LruThenCostAwareMatchesSortingOracle)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        runDifferential(seed, EvictionPolicy::Lru, ~std::uint64_t(0));
}

TEST(PrefixIndexDifferential, CostAwareThenLruMatchesSortingOracle)
{
    for (std::uint64_t seed = 101; seed <= 108; ++seed)
        runDifferential(seed, EvictionPolicy::CostAware,
                        ~std::uint64_t(0));
}

TEST(PrefixIndexDifferential, NarrowPrimaryMaskMatchesSortingOracle)
{
    // A 6-bit primary key forces collisions, including partial entries
    // aliasing full ones; both models must fall back identically.
    for (std::uint64_t seed = 201; seed <= 204; ++seed)
        runDifferential(seed, seed % 2 ? EvictionPolicy::Lru
                                       : EvictionPolicy::CostAware,
                        0x3f);
}
