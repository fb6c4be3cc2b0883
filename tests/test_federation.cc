/**
 * @file
 * Tests for cross-server prefix federation: the inter-server fabric
 * model (bandwidth ramp, degradation, NIC serialization, estimate
 * accuracy), the shared stream-vs-recompute crossover, the federation
 * directory (gossip, version ordering, tombstones, anti-entropy
 * repair, admission caps, fetch-ticket validation, journal replay,
 * frozen routes), the multi-server testbed factory, and the
 * engine-level race of a home eviction against an in-flight
 * federation stream.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/prefix_registry.hh"
#include "exp/experiments.hh"
#include "exp/testbed.hh"
#include "federation/directory.hh"
#include "federation/federation_rest.hh"
#include "hw/fabric.hh"
#include "model/stream_choice.hh"
#include "recovery/state_journal.hh"
#include "serve/scheduler.hh"
#include "serve/vllm_engine.hh"
#include "sim/simulation.hh"
#include "sim/ticks.hh"
#include "workload/generator.hh"

using namespace aqua;
using namespace aqua::sim;
using namespace aqua::federation;

namespace {

constexpr std::uint64_t mb = 1ull << 20;

/**
 * Publish with boilerplate sizes (@p blocks blocks, 16 tok/block).
 * @return false only on a cluster-wide hash collision.
 */
bool
pub(cluster::PrefixRegistry &reg, hw::GpuId gpu, std::uint64_t key,
    std::uint64_t verify, Tick now = 0, std::uint32_t blocks = 4)
{
    cluster::PublishResult r =
        reg.publish(gpu, key, verify, blocks,
                    std::uint64_t(blocks) * 16, 4 * mb, key ^ verify,
                    now);
    return r.role != cluster::PublishRole::Collision;
}

/** Wire duration of a fabric-only transfer issued on an idle fabric. */
Tick
wireTime(hw::Fabric &fab, std::uint64_t bytes)
{
    hw::TransferTiming t = fab.transfer(0, 1, bytes);
    return t.complete - t.start;
}

/**
 * Two directories over two registries, peered both ways through
 * plain REST routers on a shared simulation.
 */
struct DirectoryPair
{
    Simulation sim{1};
    cluster::PrefixRegistry reg0, reg1;
    core::RestRouter router0, router1;
    std::unique_ptr<FederationDirectory> d0, d1;

    explicit DirectoryPair(DirectoryConfig base = {})
    {
        DirectoryConfig c0 = base;
        c0.serverId = 0;
        DirectoryConfig c1 = base;
        c1.serverId = 1;
        d0 = std::make_unique<FederationDirectory>(sim, reg0, c0);
        d1 = std::make_unique<FederationDirectory>(sim, reg1, c1);
        bindFederationRoutes(router0, *d0);
        bindFederationRoutes(router1, *d1);
        d0->addPeer(1, router1);
        d1->addPeer(0, router0);
    }

    /** Run past the gossip delay so pushed adverts land. */
    void
    settle()
    {
        sim.runUntil(sim.now() + gossipDelay * 2);
    }
};

} // anonymous namespace

//
// Shared stream-vs-recompute crossover.
//

TEST(StreamChoice, CrossoverRespectsSafetyFactor)
{
    // Clear win: 1ms stream vs 10ms prefill.
    EXPECT_TRUE(model::streamBeatsRecompute(1 * nsPerMs, 0,
                                            10 * nsPerMs, 1.2));
    // Clear loss.
    EXPECT_FALSE(model::streamBeatsRecompute(10 * nsPerMs, 0,
                                             1 * nsPerMs, 1.2));
    // Overhead counts against the stream.
    EXPECT_FALSE(model::streamBeatsRecompute(1 * nsPerMs, 9 * nsPerMs,
                                             10 * nsPerMs, 1.2));
    // The safety factor biases ties toward recompute: a stream at
    // 90% of the prefill time loses under a 1.2x margin...
    EXPECT_FALSE(model::streamBeatsRecompute(9 * nsPerMs, 0,
                                             10 * nsPerMs, 1.2));
    // ...and wins with no margin.
    EXPECT_TRUE(model::streamBeatsRecompute(9 * nsPerMs, 0,
                                            10 * nsPerMs, 1.0));
}

//
// Inter-server fabric.
//

TEST(Fabric, BandwidthRampFavorsLargeTransfers)
{
    Simulation sim(1);
    hw::Fabric fab(sim, 2);
    // Effective bytes/tick must improve with size: the ramp makes
    // small transfers proportionally slower.
    Tick small = wireTime(fab, 1 * mb);
    Tick large = wireTime(fab, 64 * mb);
    double bwSmall = double(1 * mb) / double(small);
    double bwLarge = double(64 * mb) / double(large);
    EXPECT_GT(bwLarge, bwSmall * 2.0);
}

TEST(Fabric, DegradationSlowsTheWire)
{
    Simulation sim(1);
    hw::Fabric fab(sim, 2);
    Tick healthy = wireTime(fab, 32 * mb);
    fab.setDegradation(0.25);
    EXPECT_DOUBLE_EQ(fab.degradation(), 0.25);
    Tick degraded = wireTime(fab, 32 * mb);
    EXPECT_GT(degraded, healthy * 2);
    fab.setDegradation(1.0);
    EXPECT_EQ(wireTime(fab, 32 * mb), healthy);
}

TEST(Fabric, NicPortsSerializeConcurrentFlows)
{
    Simulation sim(1);
    hw::Fabric fab(sim, 4);
    // Two flows out of the same source NIC serialize even though the
    // destinations differ.
    hw::TransferTiming a = fab.transfer(0, 1, 32 * mb);
    hw::TransferTiming b = fab.transfer(0, 2, 32 * mb);
    EXPECT_GE(b.start, a.complete);
    EXPECT_GT(fab.stats().queueTicks, 0u);
    EXPECT_EQ(fab.stats().transfers, 2u);
}

TEST(Fabric, StreamEstimateMatchesIdleStream)
{
    auto cluster = exp::Testbed::makeMultiServerCluster(2, 2);
    hw::Fabric &fab = cluster->fabric();
    Tick est = fab.streamEstimate(0, 1, 16 * mb);
    Tick done = 0;
    Simulation &sim = cluster->sim();
    fab.streamKv(0, 0, 1, 0, 16 * mb,
                 [&done, &sim] { done = sim.now(); });
    sim.runUntil(sim.now() + secToTicks(10.0));
    ASSERT_GT(done, 0u);
    // On an idle fabric the estimate has no queueing term: PCIe-out
    // + wire + PCIe-in, which is exactly when the last hop lands.
    EXPECT_NEAR(double(done), double(est), double(est) * 0.01);
}

//
// Federation directory.
//

TEST(Directory, GossipDeliversAdvertsToPeers)
{
    DirectoryPair p;
    ASSERT_TRUE(pub(p.reg0, 0, 0xa1, 0xb1));
    EXPECT_EQ(p.d0->localAdvertCount(), 1u);
    EXPECT_EQ(p.d1->remoteAdvertCount(), 0u); // not yet delivered
    p.settle();
    EXPECT_EQ(p.d1->remoteAdvertCount(), 1u);

    FederationLookup hit =
        p.d1->lookup({cluster::CandidateKey{0xa1, 0xb1, 4}});
    ASSERT_TRUE(hit.found);
    EXPECT_EQ(hit.entry.server, 0u);
    EXPECT_EQ(hit.entry.blocks, 4u);
    EXPECT_EQ(hit.entry.chainSig, 0xa1 ^ 0xb1);

    // A verify mismatch never matches.
    EXPECT_FALSE(
        p.d1->lookup({cluster::CandidateKey{0xa1, 0xff, 4}}).found);
    EXPECT_GT(p.d1->stats().misses, 0u);
}

TEST(Directory, StaleVersionsAreIgnored)
{
    DirectoryPair p;
    DirectoryEntry v2;
    v2.key = 0xa1;
    v2.verify = 0xb1;
    v2.blocks = 8;
    v2.server = 0;
    v2.version = 2;
    p.d1->applyAdvert(v2);
    EXPECT_EQ(p.d1->stats().advertsApplied, 1u);

    DirectoryEntry v1 = v2;
    v1.blocks = 4;
    v1.version = 1;
    p.d1->applyAdvert(v1); // older: ignored
    EXPECT_EQ(p.d1->stats().advertsStale, 1u);
    FederationLookup hit =
        p.d1->lookup({cluster::CandidateKey{0xa1, 0xb1, 8}});
    ASSERT_TRUE(hit.found);
    EXPECT_EQ(hit.entry.blocks, 8u);

    // Own-server adverts are never applied (gossip echo).
    DirectoryEntry own = v2;
    own.server = 1;
    own.version = 9;
    p.d1->applyAdvert(own);
    EXPECT_EQ(p.d1->stats().advertsApplied, 1u);
}

TEST(Directory, EvictionTombstonesThePeerView)
{
    DirectoryPair p;
    ASSERT_TRUE(pub(p.reg0, 0, 0xa1, 0xb1));
    p.settle();
    ASSERT_EQ(p.d1->remoteAdvertCount(), 1u);

    // The home's only copy goes away: invalidation tombstones the
    // advert and gossip withdraws it from every peer.
    p.reg0.evictNotify(0, 0xa1, 0xb1, p.sim.now());
    EXPECT_EQ(p.d0->stats().tombstones, 1u);
    p.settle();
    EXPECT_EQ(p.d1->remoteAdvertCount(), 0u);
    EXPECT_FALSE(
        p.d1->lookup({cluster::CandidateKey{0xa1, 0xb1, 4}}).found);

    // Re-publishing resurrects it with a higher version.
    ASSERT_TRUE(pub(p.reg0, 0, 0xa1, 0xb1, p.sim.now()));
    p.settle();
    EXPECT_EQ(p.d1->remoteAdvertCount(), 1u);
}

TEST(Directory, AntiEntropyRepairsAMissedAdvert)
{
    // d0 publishes with no peers connected: the push goes nowhere.
    Simulation sim(1);
    cluster::PrefixRegistry reg0, reg1;
    core::RestRouter router0, router1;
    DirectoryConfig c0, c1;
    c0.serverId = 0;
    c1.serverId = 1;
    FederationDirectory d0(sim, reg0, c0);
    FederationDirectory d1(sim, reg1, c1);
    bindFederationRoutes(router0, d0);
    bindFederationRoutes(router1, d1);
    ASSERT_TRUE(pub(reg0, 0, 0xa1, 0xb1));
    sim.runUntil(sim.now() + gossipDelay * 2);

    // Late peering: the periodic full-table resend repairs the view.
    d0.addPeer(1, router1);
    d1.addPeer(0, router0);
    EXPECT_EQ(d1.remoteAdvertCount(), 0u);
    d0.antiEntropyRound();
    EXPECT_EQ(d1.remoteAdvertCount(), 1u);
    EXPECT_EQ(d0.stats().antiEntropyRounds, 1u);

    // A frozen directory skips its rounds (crashed coordinators do
    // not gossip).
    d0.setFrozen(true);
    d0.antiEntropyRound();
    EXPECT_EQ(d0.stats().antiEntropyRounds, 2u);
    d0.setFrozen(false);
}

TEST(Directory, AdmissionCapRefusesExcessConsumers)
{
    DirectoryConfig base;
    base.maxRemoteConsumers = 2;
    DirectoryPair p(base);
    ASSERT_TRUE(pub(p.reg0, 0, 0xa1, 0xb1));

    FetchGrant g1 = p.d0->fetchBegin(0xa1, 0xb1, 1);
    FetchGrant g2 = p.d0->fetchBegin(0xa1, 0xb1, 1);
    ASSERT_TRUE(g1.ok);
    ASSERT_TRUE(g2.ok);
    EXPECT_NE(g1.ticket, g2.ticket);
    EXPECT_EQ(p.d0->activeFetches(), 2u);

    FetchGrant g3 = p.d0->fetchBegin(0xa1, 0xb1, 1);
    EXPECT_FALSE(g3.ok);
    EXPECT_EQ(g3.reason, "cap");
    EXPECT_EQ(p.d0->stats().fetchCapRejects, 1u);

    // Closing a ticket frees the slot.
    EXPECT_TRUE(p.d0->fetchEnd(g1.ticket));
    EXPECT_TRUE(p.d0->fetchBegin(0xa1, 0xb1, 1).ok);

    // Unknown chains are refused as stale.
    FetchGrant unknown = p.d0->fetchBegin(0xdead, 0xbeef, 1);
    EXPECT_FALSE(unknown.ok);
    EXPECT_EQ(unknown.reason, "stale");
}

TEST(Directory, MidStreamEvictionInvalidatesTheTicket)
{
    DirectoryPair p;
    ASSERT_TRUE(pub(p.reg0, 0, 0xa1, 0xb1));
    FetchGrant g = p.d0->fetchBegin(0xa1, 0xb1, 1);
    ASSERT_TRUE(g.ok);

    // The home evicts its only copy while the stream is in flight:
    // the version check at completion must declare the payload
    // worthless.
    p.reg0.evictNotify(0, 0xa1, 0xb1, p.sim.now());
    EXPECT_FALSE(p.d0->fetchEnd(g.ticket));
    EXPECT_EQ(p.d0->stats().fetchInvalidated, 1u);
    EXPECT_EQ(p.d0->activeFetches(), 0u);

    // An unknown ticket (granted before a crash) is also invalid.
    EXPECT_FALSE(p.d0->fetchEnd(9999));
}

TEST(Directory, ReplicaPromotionKeepsTheTicketValid)
{
    DirectoryPair p;
    cluster::RegistryAgent agent;
    agent.setPinned = [](std::uint64_t, bool) { return true; };
    agent.promote = [](std::uint64_t) { return true; };
    p.reg0.setAgent(0, agent);
    p.reg0.setAgent(1, agent);
    ASSERT_TRUE(pub(p.reg0, 0, 0xa1, 0xb1));
    ASSERT_TRUE(pub(p.reg0, 1, 0xa1, 0xb1)); // replica on gpu 1

    FetchGrant g = p.d0->fetchBegin(0xa1, 0xb1, 1);
    ASSERT_TRUE(g.ok);
    // The home copy goes away but a replica takes over: the content
    // is byte-identical, so the advert version does not change and
    // the in-flight stream stays trustworthy.
    EXPECT_EQ(p.reg0.evictNotify(0, 0xa1, 0xb1, p.sim.now()),
              cluster::EvictAction::Promoted);
    EXPECT_TRUE(p.d0->fetchEnd(g.ticket));
    EXPECT_EQ(p.d0->stats().fetchValidated, 1u);
}

TEST(Directory, JournalReplayRestoresLocalAdverts)
{
    DirectoryPair p;
    recovery::StateJournal journal;
    p.d0->attachJournal(&journal);
    ASSERT_TRUE(pub(p.reg0, 0, 0xa1, 0xb1));
    ASSERT_TRUE(pub(p.reg0, 0, 0xc2, 0xd2));
    p.reg0.evictNotify(0, 0xc2, 0xd2, p.sim.now());
    ASSERT_EQ(journal.pending().size(), 3u);

    json::Value snapshot = p.d0->exportState();
    p.d0->reset();
    EXPECT_EQ(p.d0->localAdvertCount(), 0u);

    // Tail-only replay (no snapshot) rebuilds the table and the
    // version source.
    for (const recovery::JournalRecord &r : journal.pending())
        p.d0->applyJournalRecord(r.op, r.fields);
    EXPECT_EQ(p.d0->localAdvertCount(), 2u);
    json::Value replayed = p.d0->exportState();
    EXPECT_EQ(replayed.dump(), snapshot.dump());

    // A post-replay publish must version *past* the replayed history,
    // or peers would ignore it as stale.
    ASSERT_TRUE(pub(p.reg0, 0, 0xe3, 0xf3, p.sim.now()));
    p.settle();
    FederationLookup hit =
        p.d1->lookup({cluster::CandidateKey{0xe3, 0xf3, 4}});
    ASSERT_TRUE(hit.found);
    EXPECT_GT(hit.entry.version, 3u);
}

TEST(Directory, FrozenRoutesAreRetryable)
{
    DirectoryPair p;
    p.d0->setFrozen(true);
    json::Value advert;
    advert["key"] = 1;
    advert["server"] = 1;
    advert["version"] = 1;
    core::RestResponse r =
        p.router0.dispatch("POST /federation/advertise", advert);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.retryable());

    json::Value begin;
    begin["key"] = 1;
    begin["verify"] = 2;
    begin["consumer_server"] = 1;
    r = p.router0.dispatch("POST /federation/fetch_begin", begin);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.retryable());

    p.d0->setFrozen(false);
    r = p.router0.dispatch("POST /federation/fetch_begin",
                           std::move(begin));
    EXPECT_TRUE(r.ok()); // answered (refused as stale, but answered)
    EXPECT_FALSE(r.body.getBool("ok", true));
}

//
// Multi-server testbed factory.
//

TEST(MultiServer, FactoryBuildsSharedClockClusterWithFederation)
{
    auto cluster = exp::Testbed::makeMultiServerCluster(3, 2, 7);
    EXPECT_EQ(cluster->size(), 3u);
    EXPECT_EQ(cluster->fabric().numServers(), 3u);
    // One shared clock across every server.
    EXPECT_EQ(&cluster->server(0).sim(), &cluster->sim());
    EXPECT_EQ(&cluster->server(2).sim(), &cluster->sim());

    cluster->makeFederation();
    cluster->makeFederation(); // idempotent
    EXPECT_EQ(cluster->directory(0).serverId(), 0u);
    EXPECT_EQ(cluster->directory(2).serverId(), 2u);

    // The wiring is live: a publish on server 1's registry reaches
    // the other two directories after the gossip delay.
    ASSERT_TRUE(
        pub(cluster->server(1).makePrefixRegistry(), 0, 0xa1, 0xb1));
    cluster->sim().runUntil(cluster->sim().now() + nsPerMs);
    EXPECT_EQ(cluster->directory(0).remoteAdvertCount(), 1u);
    EXPECT_EQ(cluster->directory(2).remoteAdvertCount(), 1u);
    EXPECT_EQ(cluster->directory(1).remoteAdvertCount(), 0u);
    EXPECT_EQ(cluster->directory(1).localAdvertCount(), 1u);
}

//
// Engine-level federation.
//

TEST(FederationEngine, TwoServerEndToEndStreamsThePreamble)
{
    exp::FederationRunConfig cfg;
    cfg.servers = 2;
    cfg.numRequests = 8;
    cfg.ratePerSec = 2.0;
    cfg.maxSimSeconds = 2000.0;
    exp::FederationRunResult on = exp::runFederation(cfg);
    EXPECT_EQ(on.unfinished, 0u);
    EXPECT_GT(on.fedStreamsCompleted, 0u);
    EXPECT_GT(on.hitTokensRemoteServer, 0u);
    EXPECT_EQ(on.fedStreamsInvalidated, 0u);
    EXPECT_EQ(on.sigMismatches, 0u);
    EXPECT_EQ(on.clusterSigMismatches, 0u);
    EXPECT_GT(on.fabricBytesMoved, 0u);

    // Federation may only change where prefill KV comes from, never
    // what gets generated.
    exp::FederationRunConfig offCfg = cfg;
    offCfg.federation = false;
    exp::FederationRunResult off = exp::runFederation(offCfg);
    EXPECT_EQ(off.unfinished, 0u);
    EXPECT_EQ(off.outputDigest, on.outputDigest);
    EXPECT_EQ(off.hitTokensRemoteServer, 0u);
    EXPECT_EQ(off.fabricBytesMoved, 0u);
}

TEST(FederationEngine, HomeEvictionMidStreamFallsBackToRecompute)
{
    // Hand-built 2-server cluster so the eviction can be scheduled
    // while the consumer's stream is on the wire.
    exp::MultiServerCluster cluster(2, 2, 11);
    std::vector<cluster::PrefixRegistry *> regs;
    for (std::size_t i = 0; i < 2; ++i)
        regs.push_back(&cluster.server(i).makePrefixRegistry());
    cluster.makeFederation();

    model::ModelSpec spec = model::presetByName("Codellama-34B");
    std::vector<std::unique_ptr<serve::VllmEngine>> engines;
    for (std::size_t i = 0; i < 2; ++i) {
        exp::Testbed &tb = cluster.server(i);
        serve::DramBackend &backend = tb.makeDramBackend(0);
        serve::VllmEngineConfig ec;
        ec.prefixCache = true;
        engines.push_back(std::make_unique<serve::VllmEngine>(
            tb.server(), 0, spec,
            std::make_unique<serve::CfsPolicy>(), backend, ec));
        core::AquaLib &lib = tb.makeAquaLib(0);
        engines.back()->attachClusterPrefix(regs[i], &lib);
        engines.back()->attachFederation(
            &cluster.fabric(), static_cast<std::uint32_t>(i), &lib);
    }

    workload::TraceBuilder traces(cluster.sim().makeRandom());
    std::vector<workload::Request> trace =
        traces.sharedPrefix(1.0, 2, 768, 1);
    ASSERT_EQ(trace.size(), 2u);

    // Request A prefills and publishes the preamble on server 0.
    workload::Request a = trace[0];
    a.arrival = 0;
    cluster.sim().queue().schedule(a.arrival, [&engines, a] {
        engines[0]->submit(a);
    });

    // Request B opens with the same preamble on server 1, long after
    // A finished and the advert gossiped. Its federation stream
    // starts at submit.
    Tick bAt = secToTicks(60.0);
    workload::Request b = trace[1];
    b.arrival = bAt;
    cluster.sim().queue().schedule(bAt, [&engines, b] {
        engines[1]->submit(b);
    });

    // 200us later — with megabytes still on the wire — the home
    // evicts its only copy. The consumer must detect the version
    // bump at stream completion and recompute instead of trusting
    // ghost bytes, without hanging the request.
    cluster.sim().queue().schedule(bAt + 200 * nsPerUs, [&] {
        json::Value state = cluster.directory(0).exportState();
        const json::Value *adverts = state.find("adverts");
        ASSERT_NE(adverts, nullptr);
        ASSERT_FALSE(adverts->asArray().empty());
        for (const json::Value &v : adverts->asArray()) {
            DirectoryEntry e = FederationDirectory::advertFromJson(v);
            if (!e.tombstone)
                regs[0]->evictNotify(0, e.key, e.verify,
                                     cluster.sim().now());
        }
    });

    Tick deadline = secToTicks(2000.0);
    while (cluster.sim().now() < deadline &&
           (engines[0]->finished().size() +
            engines[1]->finished().size()) < 2) {
        cluster.sim().runUntil(cluster.sim().now() + secToTicks(5.0));
    }

    ASSERT_EQ(engines[0]->finished().size(), 1u);
    ASSERT_EQ(engines[1]->finished().size(), 1u);
    const serve::PrefixCacheEngineStats &es =
        engines[1]->prefixEngineStats();
    EXPECT_EQ(es.fedStreamDecisions, 1u); // the stream was attempted
    EXPECT_EQ(es.fedStreamsInvalidated, 1u);
    EXPECT_EQ(es.fedStreamsCompleted, 0u);
    EXPECT_EQ(es.hitTokensRemoteServer, 0u); // recomputed locally
    EXPECT_EQ(cluster.directory(0).stats().fetchInvalidated, 1u);
    EXPECT_EQ(cluster.directory(0).activeFetches(), 0u);
    EXPECT_EQ(es.sigMismatches, 0u);
    EXPECT_EQ(es.clusterSigMismatches, 0u);
}
