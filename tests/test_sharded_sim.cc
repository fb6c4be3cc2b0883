/**
 * @file
 * Sharded executor tests and the differential equivalence harness.
 *
 * The load-bearing property is that the sharded executor is
 * *bit-identical* to the sequential twin for any DomainNet-conforming
 * model: same per-domain event sequences (digests and full trace
 * logs), same end-state stats, for every seed and any worker count.
 * These tests check the executor primitives first, then run the
 * cluster model through both executors and diff everything.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "exp/cluster_sim.hh"
#include "sim/sharded_sim.hh"

using namespace aqua::sim;
using namespace aqua::exp;

namespace {

ShardedSimulation::Config
shardCfg(std::size_t domains, Tick lookahead, unsigned threads = 0)
{
    ShardedSimulation::Config cfg;
    cfg.numDomains = domains;
    cfg.seed = 1;
    cfg.lookahead = lookahead;
    cfg.threads = threads;
    return cfg;
}

} // anonymous namespace

TEST(ShardedSimulation, EmptyRunFiresNothing)
{
    ShardedSimulation sim(shardCfg(4, 100));
    EXPECT_EQ(sim.run(), 0u);
    EXPECT_EQ(sim.crossMessages(), 0u);
}

TEST(ShardedSimulation, LocalEventsRunPerDomain)
{
    ShardedSimulation sim(shardCfg(3, 100));
    std::vector<int> fired(3, 0);
    for (std::size_t d = 0; d < 3; ++d) {
        auto &q = sim.queueOf(d);
        q.schedule(10, [&fired, d] { ++fired[d]; });
        q.schedule(20, [&fired, d] { ++fired[d]; });
    }
    EXPECT_EQ(sim.run(), 6u);
    for (int f : fired)
        EXPECT_EQ(f, 2);
}

TEST(ShardedSimulation, CrossDomainSendDeliversAtTimestamp)
{
    ShardedSimulation sim(shardCfg(2, 50));
    Tick delivered = 0;
    sim.queueOf(0).schedule(10, [&] {
        sim.send(0, 1, 10 + 50, [&] {
            delivered = sim.queueOf(1).now();
        });
    });
    sim.run();
    EXPECT_EQ(delivered, 60u);
    EXPECT_EQ(sim.crossMessages(), 1u);
}

TEST(ShardedSimulation, DeliveriesPrecedeSameTickLocalEvents)
{
    // A delivery landing at tick T must fire before local band-0
    // events already scheduled at T — on both executors.
    for (int sharded = 0; sharded < 2; ++sharded) {
        std::vector<int> order;
        auto body = [&](DomainNet &net) {
            net.queueOf(1).schedule(60, [&] { order.push_back(2); });
            net.queueOf(0).schedule(10, [&] {
                net.send(0, 1, 60, [&] { order.push_back(1); });
            });
        };
        if (sharded) {
            ShardedSimulation sim(shardCfg(2, 50));
            body(sim);
            sim.run();
        } else {
            EventQueue q;
            SequentialDomainNet net(q, 2, 1, 50);
            body(net);
            q.run();
        }
        EXPECT_EQ(order, (std::vector<int>{1, 2}))
            << (sharded ? "sharded" : "sequential");
    }
}

TEST(ShardedSimulation, SameTickDeliveriesOrderedBySourceDomain)
{
    // Domains 2 and 1 both send to domain 0 for the same tick; the
    // canonical order is by source domain, not send or arrival order.
    for (int sharded = 0; sharded < 2; ++sharded) {
        std::vector<int> order;
        auto body = [&](DomainNet &net) {
            net.queueOf(2).schedule(5, [&] {
                net.send(2, 0, 100, [&] { order.push_back(2); });
            });
            net.queueOf(1).schedule(7, [&] {
                net.send(1, 0, 100, [&] { order.push_back(1); });
            });
        };
        if (sharded) {
            ShardedSimulation sim(shardCfg(3, 50));
            body(sim);
            sim.run();
        } else {
            EventQueue q;
            SequentialDomainNet net(q, 3, 1, 50);
            body(net);
            q.run();
        }
        EXPECT_EQ(order, (std::vector<int>{1, 2}))
            << (sharded ? "sharded" : "sequential");
    }
}

TEST(DomainMailboxes, ScrambledSameTickPostsFireInSourceOrder)
{
    // Four sources post to (domain 0, tick 100) at scrambled times,
    // some twice; a send to another domain in between still advances
    // a source's sequence. Delivery must follow (src, srcSeq) on both
    // executors. One delivered callback posts again to tick 110, where
    // it must precede a message domain 1 sent earlier for that tick.
    for (int sharded = 0; sharded < 2; ++sharded) {
        // Per-domain logs: the sharded executor runs domains on
        // different threads.
        std::vector<std::vector<std::string>> log(5);
        auto body = [&](DomainNet &net) {
            auto sendAt = [&](std::size_t src, Tick at, std::size_t dst,
                              Tick deliver, std::string label) {
                net.queueOf(src).schedule(at, [&net, &log, src, dst,
                                               deliver, label] {
                    net.send(src, dst, deliver, [&log, dst, label] {
                        log[dst].push_back(label);
                    });
                });
            };
            sendAt(3, 20, 0, 100, "3a");
            sendAt(4, 5, 0, 100, "4a");
            sendAt(2, 80, 0, 100, "2b");
            sendAt(1, 85, 0, 100, "1b");
            sendAt(1, 50, 0, 100, "1a");
            sendAt(2, 50, 0, 100, "2a");
            sendAt(3, 20, 4, 60, "4:3");
            sendAt(3, 20, 0, 100, "3b");
            sendAt(1, 95, 0, 110, "1c");
            // 2's third message re-posts from its delivery at 100.
            net.queueOf(2).schedule(85, [&net, &log] {
                net.send(2, 0, 100, [&net, &log] {
                    log[0].push_back("2c");
                    net.send(0, 0, 110,
                             [&log] { log[0].push_back("0r"); });
                    net.send(0, 3, 110,
                             [&log] { log[3].push_back("3r"); });
                });
            });
        };
        std::uint64_t cross = 0;
        if (sharded) {
            ShardedSimulation sim(shardCfg(5, 10));
            body(sim);
            sim.run();
            cross = sim.crossMessages();
        } else {
            EventQueue q;
            SequentialDomainNet net(q, 5, 1, 10);
            body(net);
            q.run();
            cross = net.crossMessages();
        }
        const char *which = sharded ? "sharded" : "sequential";
        EXPECT_EQ(log[0],
                  (std::vector<std::string>{"1a", "1b", "2a", "2b", "2c",
                                            "3a", "3b", "4a", "0r",
                                            "1c"}))
            << which;
        EXPECT_EQ(log[3], (std::vector<std::string>{"3r"})) << which;
        EXPECT_EQ(log[4], (std::vector<std::string>{"4:3"})) << which;
        EXPECT_EQ(cross, 12u) << which;
    }
}

TEST(DomainMailboxes, PooledBatchesServeManyTicks)
{
    // Sources 1 (even i) and 2 (odd i) post 300 messages to domain 0.
    // Delivery ticks run out of order, and message i + 3 from source 2
    // joins the open batch message i from source 1 opened three ticks
    // earlier. Drained batches return to the pool and are reused.
    auto deliverOf = [](int i) {
        return static_cast<Tick>(30 + i + (i % 2 == 0 ? 3 : 0));
    };
    std::vector<std::tuple<Tick, std::size_t, int>> keys;
    for (int i = 0; i < 300; ++i)
        keys.emplace_back(deliverOf(i), 1 + static_cast<std::size_t>(i % 2),
                          i);
    std::sort(keys.begin(), keys.end());
    std::vector<int> want;
    for (const auto &k : keys)
        want.push_back(std::get<2>(k));

    for (int sharded = 0; sharded < 2; ++sharded) {
        std::vector<int> got;
        auto body = [&](DomainNet &net) {
            for (int i = 0; i < 300; ++i) {
                std::size_t src = 1 + static_cast<std::size_t>(i % 2);
                Tick deliver = deliverOf(i);
                net.queueOf(src).schedule(
                    static_cast<Tick>(10 + i),
                    [&net, &got, src, deliver, i] {
                        net.send(src, 0, deliver,
                                 [&got, i] { got.push_back(i); });
                    });
            }
        };
        if (sharded) {
            ShardedSimulation sim(shardCfg(3, 20));
            body(sim);
            sim.run();
        } else {
            EventQueue q;
            SequentialDomainNet net(q, 3, 1, 20);
            body(net);
            q.run();
        }
        EXPECT_EQ(got, want) << (sharded ? "sharded" : "sequential");
    }
}

TEST(ShardedSimulation, PingPongMatchesSequentialTwin)
{
    // A deterministic two-domain ping-pong: each side bounces the
    // token back lookahead ticks later and records its local clock.
    struct Bouncer
    {
        DomainNet &net;
        std::vector<Tick> &ticks;
        int left = 20;

        void
        bounce(std::size_t at)
        {
            ticks.push_back(net.queueOf(at).now());
            if (--left == 0)
                return;
            std::size_t to = at ^ 1;
            net.send(at, to, net.queueOf(at).now() + 70,
                     [this, to] { bounce(to); });
        }
    };

    std::vector<Tick> seqTicks;
    {
        EventQueue q;
        SequentialDomainNet net(q, 2, 1, 70);
        Bouncer b{net, seqTicks};
        net.queueOf(0).schedule(3, [&b] { b.bounce(0); });
        q.run();
    }
    std::vector<Tick> shardTicks;
    {
        ShardedSimulation sim(shardCfg(2, 70));
        Bouncer b{sim, shardTicks};
        sim.queueOf(0).schedule(3, [&b] { b.bounce(0); });
        sim.run();
        EXPECT_EQ(sim.crossMessages(), 19u);
        EXPECT_GT(sim.windows(), 0u);
    }
    EXPECT_EQ(seqTicks.size(), 20u);
    EXPECT_EQ(seqTicks, shardTicks);
}

TEST(ShardedSimulation, RunUntilStopsAtLimitAndResumes)
{
    ShardedSimulation sim(shardCfg(2, 10));
    std::vector<Tick> fired;
    sim.queueOf(0).schedule(100, [&] { fired.push_back(100); });
    sim.queueOf(1).schedule(300, [&] { fired.push_back(300); });
    EXPECT_EQ(sim.runUntil(200), 1u);
    EXPECT_EQ(fired, (std::vector<Tick>{100}));
    EXPECT_EQ(sim.runUntil(400), 1u);
    EXPECT_EQ(fired, (std::vector<Tick>{100, 300}));
}

TEST(ShardedSimulation, DomainRandomIsStructural)
{
    // Stream identity depends only on (seed, domain, stream) — not on
    // the executor or on how many domains exist.
    EventQueue q;
    SequentialDomainNet seq(q, 2, 42, 10);
    ShardedSimulation shard([] {
        auto c = shardCfg(8, 10);
        c.seed = 42;
        return c;
    }());
    Random a = seq.domainRandom(1, 3);
    Random b = shard.domainRandom(1, 3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

namespace {

/** Small cluster instance that still exercises every mechanism. */
ClusterSimConfig
smallCluster(std::uint64_t seed, bool captureTrace)
{
    ClusterSimConfig cfg;
    cfg.numDomains = 4;
    cfg.gpusPerDomain = 4;
    cfg.modelsPerDomain = 2;
    cfg.seed = seed;
    cfg.numRequests = 2000;
    cfg.arrivalRatePerDomain = 4000.0;
    cfg.prefixProb = 0.4;
    cfg.prefixPool = 16;
    cfg.placementEvents = 3;
    cfg.churnIntervalSec = 0.03;
    cfg.captureTrace = captureTrace;
    return cfg;
}

} // anonymous namespace

TEST(ClusterEquivalence, SequentialAndShardedTracesAreIdentical)
{
    ClusterSimConfig cfg = smallCluster(1, true);
    ClusterRunResult seq = runClusterSequential(cfg);
    ClusterRunResult shard = runClusterSharded(cfg);

    ASSERT_EQ(seq.traces.size(), cfg.numDomains);
    std::string why;
    EXPECT_TRUE(equivalentRuns(seq, shard, &why)) << why;

    // The runs actually did something.
    auto *completed = seq.stats.find("total_completed");
    ASSERT_NE(completed, nullptr);
    EXPECT_EQ(static_cast<std::uint64_t>(completed->asInt()),
              cfg.numRequests);
    EXPECT_GT(seq.crossMessages, 0u);
    EXPECT_GT(shard.windows, 0u);
}

TEST(ClusterEquivalence, HoldsAcrossSeeds)
{
    for (std::uint64_t seed : {2, 3, 4, 5}) {
        ClusterSimConfig cfg = smallCluster(seed, false);
        ClusterRunResult seq = runClusterSequential(cfg);
        ClusterRunResult shard = runClusterSharded(cfg);
        std::string why;
        EXPECT_TRUE(equivalentRuns(seq, shard, &why))
            << "seed " << seed << ": " << why;
    }
}

TEST(ClusterEquivalence, IndependentOfWorkerCount)
{
    ClusterSimConfig cfg = smallCluster(7, false);
    ClusterRunResult one = runClusterSharded(cfg, 1);
    ClusterRunResult four = runClusterSharded(cfg, 4);
    EXPECT_EQ(one.threads, 1u);
    std::string why;
    EXPECT_TRUE(equivalentRuns(one, four, &why)) << why;
}

TEST(ClusterEquivalence, RunTwiceSameSeedIsIdentical)
{
    ClusterSimConfig cfg = smallCluster(11, true);
    ClusterRunResult a = runClusterSharded(cfg);
    ClusterRunResult b = runClusterSharded(cfg);
    std::string why;
    EXPECT_TRUE(equivalentRuns(a, b, &why)) << why;
}

TEST(ClusterEquivalence, DifferentSeedsDiverge)
{
    // The harness must be able to tell runs apart, or "equivalent"
    // is vacuous.
    ClusterRunResult a = runClusterSequential(smallCluster(20, false));
    ClusterRunResult b = runClusterSequential(smallCluster(21, false));
    EXPECT_FALSE(equivalentRuns(a, b));
}

TEST(ClusterEquivalence, MismatchReportsDomain)
{
    ClusterRunResult a = runClusterSequential(smallCluster(30, false));
    ClusterRunResult b = a;
    b.digests[2] ^= 1;
    std::string why;
    EXPECT_FALSE(equivalentRuns(a, b, &why));
    EXPECT_NE(why.find("domain 2"), std::string::npos) << why;
}
