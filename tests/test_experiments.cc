/**
 * @file
 * Integration tests over the experiment runners: the paper's
 * headline relationships must hold in every run (who wins, by
 * roughly what factor), independent of exact magnitudes.
 */

#include <gtest/gtest.h>

#include <map>

#include "bench/bench_util.hh"
#include "exp/cluster_sim.hh"
#include "exp/experiments.hh"
#include "fault/fault.hh"
#include "workload/generator.hh"

using namespace aqua;
using namespace aqua::exp;

namespace {

stats::Summary
ttfts(const std::vector<workload::RequestMetrics> &m)
{
    return bench::ttftSummary(m);
}

stats::Summary
rcts(const std::vector<workload::RequestMetrics> &m)
{
    return bench::rctSummary(m);
}

} // anonymous namespace

TEST(Integration, LongPromptAquaBeatsFlexGenSeveralFold)
{
    LongPromptConfig cfg;
    cfg.durationSec = 300.0;
    cfg.mode = OffloadMode::Dram;
    std::uint64_t dram = runLongPrompt(cfg).totalTokens;
    cfg.mode = OffloadMode::Aqua;
    std::uint64_t aqua = runLongPrompt(cfg).totalTokens;
    // Paper: 6X; require at least 4X in any configuration.
    EXPECT_GT(aqua, 4 * dram);
    EXPECT_GT(dram, 100u);
}

TEST(Integration, StagingMattersForLongPrompt)
{
    LongPromptConfig cfg;
    cfg.durationSec = 300.0;
    cfg.mode = OffloadMode::Aqua;
    std::uint64_t staged = runLongPrompt(cfg).totalTokens;
    cfg.mode = OffloadMode::AquaUnstaged;
    std::uint64_t unstaged = runLongPrompt(cfg).totalTokens;
    // FlexGen ships one big KV tensor per step, so the unstaged
    // penalty is mild here; it must not *win*.
    EXPECT_GE(staged, unstaged);
}

TEST(Integration, CfsRestoresResponsivenessAquaRestoresRct)
{
    CfsExperimentConfig cfg;
    cfg.ratePerSec = 5.0;
    cfg.numRequests = 80;

    cfg.mode = ServeMode::VllmBaseline;
    CfsExperimentResult vllm = runCfsExperiment(cfg);
    cfg.mode = ServeMode::CfsDram;
    CfsExperimentResult cfs = runCfsExperiment(cfg);
    cfg.mode = ServeMode::CfsAqua;
    CfsExperimentResult aqua = runCfsExperiment(cfg);

    ASSERT_EQ(vllm.metrics.size(), 80u);
    ASSERT_EQ(cfs.metrics.size(), 80u);
    ASSERT_EQ(aqua.metrics.size(), 80u);

    // Fair scheduling slashes TTFT (paper: ~4X).
    EXPECT_GT(ttfts(vllm.metrics).p95(),
              2.0 * ttfts(aqua.metrics).p95());
    // CFS over PCIe pays in RCT; AQUA wins it back (paper: 2X -> ~).
    EXPECT_GT(rcts(cfs.metrics).median(),
              1.2 * rcts(aqua.metrics).median());
    // The baseline never context-switches; CFS does.
    EXPECT_LT(vllm.consumerSwapOuts, 10u);
    EXPECT_GT(cfs.consumerSwapOuts, 100u);
}

TEST(Integration, ElasticDonateReclaimCycle)
{
    ElasticExperimentConfig cfg;
    cfg.durationSec = 700.0;
    cfg.withAqua = true;
    ElasticExperimentResult r = runElasticExperiment(cfg);

    // Donation early: big "free" memory before the burst.
    double at100 = 0.0;
    double at430 = 0.0;
    double at650 = 0.0;
    for (const stats::Point &p : r.producerFreeMemory) {
        double t = sim::ticksToSec(p.when);
        if (t == 100.0)
            at100 = p.value;
        if (t == 430.0)
            at430 = p.value;
        if (t == 650.0)
            at650 = p.value;
    }
    EXPECT_GT(at100, 35e9); // donated
    EXPECT_LT(at430, at100 * 0.5); // reclaimed during the burst
    EXPECT_GT(at650, 30e9); // re-donated after the burst drains

    // Consumer throughput collapses during the reclaim window and
    // recovers after.
    auto tputAt = [&](double t) {
        for (const stats::Point &p : r.consumerThroughput) {
            if (sim::ticksToSec(p.when) == t)
                return p.value;
        }
        return -1.0;
    };
    EXPECT_GT(tputAt(300.0), 3.0 * tputAt(420.0));
    EXPECT_GT(tputAt(600.0), 3.0 * tputAt(420.0));
    EXPECT_GT(r.consumerTokens, 1000u);
}

TEST(Integration, DonatingCostsTheProducerLittle)
{
    ElasticExperimentConfig cfg;
    cfg.durationSec = 700.0;
    cfg.withAqua = true;
    ElasticExperimentResult with = runElasticExperiment(cfg);
    cfg.withAqua = false;
    ElasticExperimentResult without = runElasticExperiment(cfg);
    ASSERT_GT(with.producerMetrics.size(), 300u);
    ASSERT_EQ(with.producerMetrics.size(),
              without.producerMetrics.size());
    double withMedian = rcts(with.producerMetrics).median();
    double withoutMedian = rcts(without.producerMetrics).median();
    // Fig. 11: overhead is small.
    EXPECT_LT(withMedian, withoutMedian * 1.25);
}

TEST(Integration, LoraAquaImprovesRct)
{
    LoraExperimentConfig cfg;
    cfg.numRequests = 120;
    cfg.mode = OffloadMode::Dram;
    LoraExperimentResult dram = runLoraExperiment(cfg);
    cfg.mode = OffloadMode::Aqua;
    LoraExperimentResult aqua = runLoraExperiment(cfg);
    ASSERT_EQ(dram.metrics.size(), 120u);
    ASSERT_EQ(aqua.metrics.size(), 120u);
    // Paper: up to 1.8X.
    EXPECT_GT(rcts(dram.metrics).median(),
              1.3 * rcts(aqua.metrics).median());
    EXPECT_GT(dram.cacheMisses, 0u);
}

TEST(Integration, BiggerAdaptersBenefitMore)
{
    auto gain = [](std::uint64_t bytes) {
        LoraExperimentConfig cfg;
        cfg.numAdapters = 60;
        cfg.adapterBytes = bytes;
        cfg.cacheBytes = std::uint64_t(10) << 30;
        cfg.ratePerSec = 10.0;
        cfg.numRequests = 100;
        cfg.mode = OffloadMode::Dram;
        double base = rcts(runLoraExperiment(cfg).metrics).median();
        cfg.mode = OffloadMode::Aqua;
        double aqua = rcts(runLoraExperiment(cfg).metrics).median();
        return base - aqua;
    };
    EXPECT_GT(gain(std::uint64_t(320) << 20),
              gain(std::uint64_t(160) << 20));
}

TEST(Integration, ContentionSweepShapes)
{
    // Fig. 2: image/audio plateau with spare memory; the LLM's free
    // memory hits ~0 at peak and throughput then declines.
    auto image = contentionSweep("StableDiffusion",
                                 {1, 4, 8, 16, 32});
    EXPECT_GT(image.back().freeMemoryGb, 30.0);
    EXPECT_LT(image.back().throughput,
              image[3].throughput * 1.25); // plateau

    auto llm = contentionSweep("Llama-2-13B", {1, 16, 48, 64, 96});
    EXPECT_LT(llm[3].freeMemoryGb, 1.0);
    EXPECT_LT(llm[4].throughput, llm[2].throughput); // decline
    EXPECT_GT(llm[2].throughput, llm[0].throughput * 10);
}

TEST(Integration, NvSwitchPairsMatchTwoGpuThroughput)
{
    LongPromptConfig cfg;
    cfg.durationSec = 200.0;
    cfg.mode = OffloadMode::Aqua;
    cfg.pairs = 1;
    std::uint64_t solo = runLongPrompt(cfg).tokensPerConsumer[0];

    cfg.pairs = 4;
    LongPromptResult four = runLongPrompt(cfg);
    ASSERT_EQ(four.tokensPerConsumer.size(), 4u);
    for (std::uint64_t tokens : four.tokensPerConsumer)
        EXPECT_NEAR(static_cast<double>(tokens),
                    static_cast<double>(solo),
                    0.1 * static_cast<double>(solo));

    // Ablation: a shared producer halves (or worse) throughput —
    // the reason for AQUA-PLACER's one-producer-per-consumer rule.
    cfg.sharedProducer = true;
    LongPromptResult shared = runLongPrompt(cfg);
    EXPECT_LT(shared.totalTokens, four.totalTokens * 2 / 3);
}

TEST(Integration, ChatbotKeepsUsersServedEveryTurn)
{
    ChatbotConfig cfg;
    cfg.users = 10;
    cfg.turns = 3;
    cfg.mode = ServeMode::CfsAqua;
    ChatbotResult r = runChatbot(cfg);
    ASSERT_EQ(r.metrics.size(), 30u);
    std::vector<int> perTurn(3, 0);
    for (const auto &tm : r.metrics) {
        EXPECT_TRUE(tm.metrics.finished());
        ++perTurn[tm.turn];
    }
    for (int count : perTurn)
        EXPECT_EQ(count, 10);
}

TEST(Integration, ModeNames)
{
    EXPECT_STREQ(serveModeName(ServeMode::VllmBaseline), "vllm");
    EXPECT_STREQ(serveModeName(ServeMode::CfsDram), "vllm+cfs");
    EXPECT_STREQ(serveModeName(ServeMode::CfsAqua), "aqua");
    EXPECT_STREQ(offloadModeName(OffloadMode::Dram), "dram");
    EXPECT_STREQ(offloadModeName(OffloadMode::Aqua), "aqua");
    EXPECT_STREQ(offloadModeName(OffloadMode::AquaUnstaged),
                 "aqua-unstaged");
}

TEST(Integration, EndToEndClusterHoldsAllGainsAtOnce)
{
    exp::EndToEndConfig cfg;
    cfg.split = "balanced";
    cfg.numServers = 4;
    cfg.durationSec = 120.0;
    cfg.withAqua = false;
    exp::EndToEndResult base = exp::runEndToEnd(cfg);
    cfg.withAqua = true;
    exp::EndToEndResult aqua = exp::runEndToEnd(cfg);

    EXPECT_EQ(aqua.totalConsumers, base.totalConsumers);
    EXPECT_GT(aqua.pairedConsumers, 0u);
    // The long-prompt consumers see the NVLink gain.
    if (base.longPromptConsumers > 0) {
        EXPECT_GT(aqua.longPromptTokens,
                  3 * base.longPromptTokens);
    }
    // LoRA consumers finish faster.
    if (!base.loraMetrics.empty() && !aqua.loraMetrics.empty()) {
        EXPECT_LT(rcts(aqua.loraMetrics).median(),
                  rcts(base.loraMetrics).median());
    }
}

TEST(Integration, BurstyTraceAlternatesPhases)
{
    workload::TraceBuilder traces{sim::Random(5)};
    auto trace = traces.bursty(1.0, 20.0, 30.0, 400);
    ASSERT_EQ(trace.size(), 400u);
    // Count arrivals per 30 s phase: odd phases must be much denser.
    std::map<std::uint64_t, int> perPhase;
    for (const auto &r : trace)
        ++perPhase[r.arrival / sim::secToTicks(30.0)];
    double quiet = 0.0;
    double burst = 0.0;
    int quietPhases = 0;
    int burstPhases = 0;
    for (const auto &[phase, count] : perPhase) {
        if (phase % 2 == 0) {
            quiet += count;
            ++quietPhases;
        } else {
            burst += count;
            ++burstPhases;
        }
    }
    ASSERT_GT(quietPhases, 0);
    ASSERT_GT(burstPhases, 0);
    EXPECT_GT(burst / burstPhases, 5.0 * (quiet / quietPhases));
}

//
// Golden outputs: small runs of the experiment runners whose default
// constants must never drift. Each digest covers every request's
// (id, firstToken, finish, tokensGenerated, shed); the counters next
// to it pin the mechanism that produced them. A change that is meant
// to alter simulated behaviour must update these values on purpose.
//

namespace {

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
outputDigest(const std::vector<workload::RequestMetrics> &metrics)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (const workload::RequestMetrics &m : metrics) {
        h = fnv(h, m.id);
        h = fnv(h, m.firstToken);
        h = fnv(h, m.finish);
        h = fnv(h, m.tokensGenerated);
        h = fnv(h, m.shed ? 1 : 0);
    }
    return h;
}

std::uint64_t
textDigest(const std::string &text)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

} // anonymous namespace

TEST(GoldenOutputs, ChaosPlan)
{
    fault::ChaosConfig cfg;
    cfg.horizon = sim::secToTicks(10.0);
    cfg.donorGpus = {1};
    cfg.gpuFailures = 1;
    cfg.linkDegrades = 2;
    cfg.outages = 1;
    cfg.dropWindows = 1;
    cfg.delayWindows = 1;
    cfg.crashes = 1;
    cfg.crashLoseTail = 2;
    cfg.corruptWindows = 1;
    cfg.bitrotWindows = 1;
    fault::FaultPlan plan = fault::FaultPlan::random(7, cfg);
    EXPECT_EQ(plan.size(), 9u);
    EXPECT_EQ(textDigest(plan.toJson().dump()), 9796806909889821910ULL);
}

TEST(GoldenOutputs, Overload)
{
    fault::ChaosConfig chaos;
    chaos.horizon = sim::secToTicks(30.0);
    chaos.donorGpus = {1};
    chaos.linkDegrades = 2;
    chaos.delayWindows = 1;
    fault::FaultPlan plan = fault::FaultPlan::random(3, chaos);

    OverloadRunConfig cfg;
    cfg.controlled = true;
    cfg.precisionGovernor = true;
    cfg.loadMultiplier = 6.0;
    cfg.numRequests = 80;
    cfg.maxBatch = 32;
    cfg.kvPoolBytes = 2ull * 1000 * 1000 * 1000;
    cfg.faults = &plan;
    OverloadRunResult r = runOverload(cfg);
    EXPECT_EQ(r.metrics.size(), 80u);
    EXPECT_EQ(outputDigest(r.metrics), 12287360565967595782ULL);
    EXPECT_EQ(r.shed, 6u);
    EXPECT_EQ(r.fallbackSwaps, 0u);
    EXPECT_EQ(r.deadlineMet, 74u);
    EXPECT_EQ(r.brownoutTransitions, 2u);
    EXPECT_EQ(r.precisionReconfigs, 10u);
    EXPECT_EQ(r.precisionSavedBytes, 217055232u);
    EXPECT_EQ(r.unfinished, 0u);
    EXPECT_EQ(r.sigMismatches, 0u);
}

TEST(GoldenOutputs, Tiering)
{
    TieringRunConfig cfg;
    cfg.users = 6;
    cfg.turns = 2;
    TieringRunResult r = runTiering(cfg);
    EXPECT_EQ(r.metrics.size(), 12u);
    EXPECT_EQ(outputDigest(r.metrics), 8913738521875463099ULL);
    EXPECT_EQ(r.parks, 12u);
    EXPECT_EQ(r.streamResumes, 6u);
    EXPECT_EQ(r.recomputeResumes, 0u);
    EXPECT_EQ(r.bytesStreamed, 915013632u);
    EXPECT_EQ(r.bytesWasted, 0u);
    EXPECT_EQ(r.ssdBytesRead, 915013632u);
    EXPECT_EQ(r.ssdBytesWritten, 2783182848u);
    EXPECT_EQ(r.unfinished, 0u);
}

TEST(GoldenOutputs, ClusterPrefix)
{
    ClusterPrefixConfig cfg;
    cfg.consumers = 3;
    cfg.numRequests = 30;
    cfg.chaos = true;
    ClusterPrefixResult r = runClusterPrefix(cfg);
    EXPECT_EQ(r.metrics.size(), 30u);
    EXPECT_EQ(outputDigest(r.metrics), 11769646150137680505ULL);
    EXPECT_EQ(r.cachedTokens, 22272u);
    EXPECT_EQ(r.registryHits, 20u);
    EXPECT_EQ(r.borrowAdmissions, 0u);
    EXPECT_EQ(r.copyAdmissions, 20u);
    EXPECT_EQ(r.remoteCopyBytes, 3019898880u);
    EXPECT_EQ(r.regPublishes, 20u);
    EXPECT_EQ(r.regInvalidations, 1u);
    EXPECT_EQ(r.residentPrefixBytes, 150994944u);
    EXPECT_EQ(r.unfinished, 0u);
    EXPECT_EQ(r.activePins, 0u);
    EXPECT_EQ(r.sigMismatches + r.clusterSigMismatches, 0u);
}

TEST(GoldenOutputs, Federation)
{
    FederationRunConfig cfg;
    cfg.numRequests = 18;
    cfg.chaos = true;
    FederationRunResult r = runFederation(cfg);
    EXPECT_EQ(r.metrics.size(), 18u);
    EXPECT_EQ(outputDigest(r.metrics), 7243658004281800875ULL);
    EXPECT_EQ(r.outputDigest, 13611547664758535020ULL);
    EXPECT_EQ(r.cachedTokens, 13056u);
    EXPECT_EQ(r.fedHits, 2u);
    EXPECT_EQ(r.fedStreamDecisions, 2u);
    EXPECT_EQ(r.fedRecomputeDecisions, 0u);
    EXPECT_EQ(r.fedStreamBytes, 301989888u);
    EXPECT_EQ(r.dirAdvertsApplied, 8u);
    EXPECT_EQ(r.dirAntiEntropyRounds, 3000u);
    EXPECT_EQ(r.fabricBytesMoved, 301989888u);
    EXPECT_EQ(r.fabricQueueTicks, 0u);
    EXPECT_EQ(r.unfinished, 0u);
}

TEST(GoldenOutputs, PrefixAblation)
{
    PrefixAblationConfig cfg;
    cfg.numRequests = 120;
    cfg.ratePerSec = 12.0;
    cfg.maxCacheShare = 0.1;
    cfg.eviction = serve::EvictionPolicy::CostAware;
    PrefixAblationResult r = runPrefixAblation(cfg);
    EXPECT_EQ(r.metrics.size(), 120u);
    EXPECT_EQ(outputDigest(r.metrics), 14925754126232160115ULL);
    EXPECT_EQ(r.prefix.hits, 155510u);
    EXPECT_EQ(r.prefix.cachedTokens, 89088u);
    EXPECT_EQ(r.prefix.evictions, 37961u);
    EXPECT_EQ(r.peakLiveKvBytes, 4388290560u);
    EXPECT_EQ(r.offloadWriteBytes, 588484706304u);
    EXPECT_EQ(r.swapOuts, 3033u);
    EXPECT_EQ(r.prefix.sigMismatches, 0u);
}

TEST(GoldenOutputs, ClusterSim)
{
    ClusterSimConfig cfg;
    cfg.numDomains = 2;
    cfg.gpusPerDomain = 4;
    cfg.numRequests = 1500;
    cfg.arrivalRatePerDomain = 4000.0;
    cfg.prefixPool = 16;
    cfg.placementEvents = 3;
    cfg.churnIntervalSec = 0.05;
    ClusterRunResult r = runClusterSequential(cfg);
    std::uint64_t h = 14695981039346656037ULL;
    for (std::uint64_t d : r.digests)
        h = fnv(h, d);
    EXPECT_EQ(h, 4177466274098763074ULL);
    EXPECT_EQ(textDigest(json::Value(r.stats).dump()), 1957922814840636505ULL);
    EXPECT_EQ(r.eventsFired, 5014u);
    EXPECT_EQ(r.crossMessages, 2011u);
}
