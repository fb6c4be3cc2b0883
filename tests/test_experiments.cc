/**
 * @file
 * Integration tests over the experiment runners: the paper's
 * headline relationships must hold in every run (who wins, by
 * roughly what factor), independent of exact magnitudes.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <functional>
#include <map>
#include <string>

#include "bench/bench_util.hh"
#include "exp/cluster_sim.hh"
#include "exp/experiments.hh"
#include "exp/testbed.hh"
#include "fault/fault.hh"
#include "serve/uvm_backend.hh"
#include "tier/ssd_backend.hh"
#include "trace/trace.hh"
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
    EXPECT_EQ(r.brownout.transitions, 2u);
    EXPECT_EQ(r.precision.reconfigurations, 10u);
    EXPECT_EQ(r.precision.savedBytes, 217055232u);
    EXPECT_EQ(r.unfinished, 0u);
    EXPECT_EQ(r.engine.sigMismatches, 0u);
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
    EXPECT_EQ(r.prefetch.bytesStreamed, 915013632u);
    EXPECT_EQ(r.prefetch.bytesWasted, 0u);
    EXPECT_EQ(r.ssdBytesRead, 915013632u);
    EXPECT_EQ(r.ssdBytesWritten, 2783182848u);
    EXPECT_EQ(r.unfinished, 0u);
}

TEST(GoldenOutputs, OverloadPayloadCorrupt)
{
    // Half of all link payloads corrupt for most of the run: swap-ins
    // from the AQUA donor detect and re-read.
    fault::FaultPlan plan;
    fault::FaultSpec corrupt;
    corrupt.kind = fault::FaultKind::PayloadCorrupt;
    corrupt.at = sim::secToTicks(1.0);
    corrupt.duration = sim::secToTicks(60.0);
    corrupt.probability = 0.5;
    plan.add(corrupt);

    trace::TraceLog log;
    OverloadRunConfig cfg;
    cfg.controlled = true;
    cfg.precisionGovernor = true;
    cfg.loadMultiplier = 6.0;
    cfg.numRequests = 80;
    cfg.maxBatch = 32;
    cfg.kvPoolBytes = 2ull * 1000 * 1000 * 1000;
    cfg.faults = &plan;
    cfg.traceLog = &log;
    OverloadRunResult r = runOverload(cfg);
    EXPECT_EQ(r.metrics.size(), 80u);
    EXPECT_EQ(outputDigest(r.metrics), 8096667747465623983ULL);
    EXPECT_EQ(r.shed, 6u);
    EXPECT_EQ(r.fallbackSwaps, 0u);
    EXPECT_EQ(r.deadlineMet, 74u);
    EXPECT_EQ(r.brownout.transitions, 2u);
    EXPECT_EQ(r.precision.reconfigurations, 10u);
    EXPECT_EQ(r.precision.savedBytes, 217055232u);
    EXPECT_EQ(r.unfinished, 0u);
    EXPECT_EQ(r.engine.sigMismatches, 0u);
    EXPECT_EQ(log.countCategory("corruption_detected"), 126u);
    EXPECT_EQ(log.countCategory("corruption_repaired"), 126u);
    EXPECT_EQ(log.countCategory("corruption_recompute"), 0u);
}

TEST(GoldenOutputs, TieringSsdBitrot)
{
    // Half of all media reads rot. A small pool and fast aging send
    // swapped KV to the SSD as well as parked sessions; a payload that
    // fails its check on arrival is recomputed.
    fault::FaultPlan plan;
    fault::FaultSpec rot;
    rot.kind = fault::FaultKind::SsdBitrot;
    rot.at = 0;
    rot.duration = sim::secToTicks(3000.0);
    rot.probability = 0.5;
    plan.add(rot);

    trace::TraceLog log;
    TieringRunConfig cfg;
    cfg.users = 6;
    cfg.turns = 3;
    cfg.kvPoolBytes = 600ull * 1000 * 1000;
    cfg.parkAfterSec = 1.0;
    cfg.faults = &plan;
    cfg.traceLog = &log;
    TieringRunResult r = runTiering(cfg);
    EXPECT_EQ(r.metrics.size(), 18u);
    EXPECT_EQ(outputDigest(r.metrics), 8755410392262322037ULL);
    EXPECT_EQ(r.parks, 18u);
    EXPECT_EQ(r.streamResumes, 5u);
    EXPECT_EQ(r.recomputeResumes, 7u);
    EXPECT_EQ(r.tierDemotions, 13u);
    EXPECT_EQ(r.prefetch.bytesStreamed, 2783182848u);
    // The 7 resumes whose parked copy rotted streamed for nothing.
    EXPECT_EQ(r.prefetch.streamsDiscarded, 7u);
    EXPECT_EQ(r.prefetch.bytesWasted, 1526267904u);
    EXPECT_EQ(r.ssdBytesRead, 7108165632u);
    EXPECT_EQ(r.ssdBytesWritten, 9917497344u);
    EXPECT_EQ(r.unfinished, 0u);
    std::map<std::string, std::size_t> rotByPath;
    for (const trace::Event &e : log.ofCategory("corruption_recompute"))
        ++rotByPath[e.fields.find("path")->asString()];
    EXPECT_EQ(rotByPath.size(), 2u);
    EXPECT_EQ(rotByPath["ssd_resume"], 7u);
    EXPECT_EQ(rotByPath["swap_in"], 5u);
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
    EXPECT_EQ(r.engine.cachedTokens, 22272u);
    EXPECT_EQ(r.engine.registryHits, 20u);
    EXPECT_EQ(r.engine.borrowAdmissions, 0u);
    EXPECT_EQ(r.engine.copyAdmissions, 20u);
    EXPECT_EQ(r.engine.remoteCopyBytes, 3019898880u);
    EXPECT_EQ(r.registry.publishes, 20u);
    EXPECT_EQ(r.registry.invalidations, 1u);
    EXPECT_EQ(r.residentPrefixBytes, 150994944u);
    EXPECT_EQ(r.unfinished, 0u);
    EXPECT_EQ(r.activePins, 0u);
    EXPECT_EQ(r.engine.sigMismatches + r.engine.clusterSigMismatches, 0u);
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
    EXPECT_EQ(r.engine.cachedTokens, 13056u);
    EXPECT_EQ(r.engine.fedHits, 2u);
    EXPECT_EQ(r.engine.fedStreamDecisions, 2u);
    EXPECT_EQ(r.engine.fedRecomputeDecisions, 0u);
    EXPECT_EQ(r.engine.fedStreamBytes, 301989888u);
    EXPECT_EQ(r.directory.advertsApplied, 8u);
    EXPECT_EQ(r.directory.antiEntropyRounds, 3000u);
    EXPECT_EQ(r.fabric.bytesMoved, 301989888u);
    EXPECT_EQ(r.fabric.queueTicks, 0u);
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
    EXPECT_EQ(r.index.hits, 155510u);
    EXPECT_EQ(r.engine.cachedTokens, 89088u);
    EXPECT_EQ(r.index.evictions, 37961u);
    EXPECT_EQ(r.peakLiveKvBytes, 4388290560u);
    EXPECT_EQ(r.offloadWriteBytes, 588484706304u);
    EXPECT_EQ(r.swapOuts, 3033u);
    EXPECT_EQ(r.engine.sigMismatches, 0u);
}

namespace {

/** outputDigest over a chatbot run's metrics, with each turn mixed
 *  in. */
std::uint64_t
turnDigest(const std::vector<ChatbotResult::TurnMetric> &metrics)
{
    std::vector<workload::RequestMetrics> plain;
    std::uint64_t h = 14695981039346656037ULL;
    for (const ChatbotResult::TurnMetric &tm : metrics) {
        plain.push_back(tm.metrics);
        h = fnv(h, tm.turn);
    }
    return fnv(h, outputDigest(plain));
}

/** Digest of a resampled series: every bucket's time and value
 *  bits. */
std::uint64_t
seriesDigest(const std::vector<stats::Point> &series)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (const stats::Point &p : series) {
        h = fnv(h, p.when);
        h = fnv(h, std::bit_cast<std::uint64_t>(p.value));
    }
    return h;
}

} // anonymous namespace

TEST(GoldenOutputs, ChatbotVllm)
{
    ChatbotConfig cfg;
    cfg.mode = ServeMode::VllmBaseline;
    cfg.users = 6;
    cfg.turns = 3;
    ChatbotResult r = runChatbot(cfg);
    EXPECT_EQ(r.metrics.size(), 18u);
    EXPECT_EQ(turnDigest(r.metrics), 4127891253924496161ULL);
    EXPECT_EQ(r.index.hits, 0u);
    EXPECT_EQ(r.engine.cachedTokens, 0u);
    EXPECT_EQ(r.peakLiveKvBytes, 2447376384u);
    EXPECT_EQ(r.offloadWriteBytes, 0u);
    EXPECT_EQ(r.offloadReadBytes, 0u);
    EXPECT_DOUBLE_EQ(r.tokensPerSec, 87.849999999999994);
}

TEST(GoldenOutputs, ChatbotAqua)
{
    ChatbotConfig cfg;
    cfg.mode = ServeMode::CfsAqua;
    cfg.users = 6;
    cfg.turns = 3;
    cfg.prefixCache = true;
    cfg.systemPromptTokens = 256;
    ChatbotResult r = runChatbot(cfg);
    EXPECT_EQ(r.metrics.size(), 18u);
    EXPECT_EQ(turnDigest(r.metrics), 5801122746663662664ULL);
    EXPECT_EQ(r.index.hits, 1151u);
    EXPECT_EQ(r.engine.cachedTokens, 18416u);
    EXPECT_EQ(r.peakLiveKvBytes, 2481979392u);
    EXPECT_EQ(r.offloadWriteBytes, 0u);
    EXPECT_EQ(r.offloadReadBytes, 0u);
    EXPECT_DOUBLE_EQ(r.tokensPerSec, 93.706666666666663);
}

TEST(GoldenOutputs, ClusterPrefixChatbot)
{
    ClusterPrefixConfig cfg;
    cfg.consumers = 3;
    cfg.chatbot = true;
    cfg.users = 6;
    cfg.turns = 3;
    cfg.chaos = true;
    ClusterPrefixResult r = runClusterPrefix(cfg);
    EXPECT_EQ(r.metrics.size(), 18u);
    EXPECT_EQ(outputDigest(r.metrics), 10831941905637810533ULL);
    EXPECT_EQ(r.promptTokens, 34487u);
    EXPECT_EQ(r.engine.cachedTokens, 26512u);
    EXPECT_EQ(r.engine.registryHits, 14u);
    EXPECT_EQ(r.engine.copyAdmissions, 14u);
    EXPECT_EQ(r.engine.borrowAdmissions, 0u);
    EXPECT_EQ(r.registry.publishes, 29u);
    EXPECT_EQ(r.registry.invalidations, 2u);
    EXPECT_EQ(r.residentPrefixBytes, 301989888u);
    EXPECT_EQ(r.singleCopyBytes, 150994944u);
    EXPECT_EQ(r.unfinished, 0u);
    EXPECT_EQ(r.activePins, 0u);
    EXPECT_DOUBLE_EQ(r.elapsedSec, 65.0);
}

TEST(GoldenOutputs, FederationChatbot)
{
    FederationRunConfig cfg;
    cfg.chatbot = true;
    cfg.users = 6;
    cfg.turns = 3;
    cfg.chaos = true;
    FederationRunResult r = runFederation(cfg);
    EXPECT_EQ(r.metrics.size(), 18u);
    EXPECT_EQ(outputDigest(r.metrics), 17078956192188554992ULL);
    EXPECT_EQ(r.outputDigest, 11894926452956104359ULL);
    EXPECT_EQ(r.promptTokens, 34487u);
    EXPECT_EQ(r.tailTokens, 20663u);
    EXPECT_EQ(r.engine.cachedTokens, 17904u);
    EXPECT_EQ(r.engine.fedHits, 3u);
    EXPECT_EQ(r.engine.fedStreamBytes, 452984832u);
    EXPECT_EQ(r.directory.advertsApplied, 48u);
    EXPECT_EQ(r.fabric.bytesMoved, 452984832u);
    EXPECT_EQ(r.unfinished, 0u);
    EXPECT_DOUBLE_EQ(r.elapsedSec, 65.0);
}

TEST(GoldenOutputs, Cfs)
{
    const std::array<std::uint64_t, 3> digests = {
        10863228106289153478ULL, 512800985611550336ULL,
        5974522025240635486ULL};
    const std::array<std::uint64_t, 3> swapOuts = {0u, 869u, 869u};
    const std::array<std::uint64_t, 3> swapIns = {0u, 869u, 869u};
    const std::array<double, 3> producerThroughput = {
        0.62222222222222223, 0.40000000000000002, 0.42499999999999999};
    const std::array<ServeMode, 3> modes = {ServeMode::VllmBaseline,
                                            ServeMode::CfsDram,
                                            ServeMode::CfsAqua};
    for (std::size_t i = 0; i < modes.size(); ++i) {
        CfsExperimentConfig cfg;
        cfg.mode = modes[i];
        cfg.ratePerSec = 10.0;
        cfg.numRequests = 60;
        CfsExperimentResult r = runCfsExperiment(cfg);
        SCOPED_TRACE(serveModeName(modes[i]));
        EXPECT_EQ(r.metrics.size(), 60u);
        EXPECT_EQ(outputDigest(r.metrics), digests[i]);
        EXPECT_EQ(r.consumerSwapOuts, swapOuts[i]);
        EXPECT_EQ(r.consumerSwapIns, swapIns[i]);
        EXPECT_DOUBLE_EQ(r.producerThroughput, producerThroughput[i]);
    }
}

TEST(GoldenOutputs, Lora)
{
    const std::array<std::uint64_t, 2> digests = {
        2884479630292735421ULL, 2843681878837198997ULL};
    const std::array<std::uint64_t, 2> hits = {9u, 9u};
    const std::array<std::uint64_t, 2> misses = {21u, 21u};
    const std::array<OffloadMode, 2> modes = {OffloadMode::Dram,
                                              OffloadMode::Aqua};
    for (std::size_t i = 0; i < modes.size(); ++i) {
        LoraExperimentConfig cfg;
        cfg.mode = modes[i];
        cfg.numRequests = 30;
        LoraExperimentResult r = runLoraExperiment(cfg);
        SCOPED_TRACE(offloadModeName(modes[i]));
        EXPECT_EQ(r.metrics.size(), 30u);
        EXPECT_EQ(outputDigest(r.metrics), digests[i]);
        EXPECT_EQ(r.cacheHits, hits[i]);
        EXPECT_EQ(r.cacheMisses, misses[i]);
    }
}

TEST(GoldenOutputs, LongPrompt)
{
    const std::array<std::uint64_t, 3> tokens = {236u, 1371u, 1371u};
    const std::array<OffloadMode, 3> modes = {OffloadMode::Dram,
                                              OffloadMode::Aqua,
                                              OffloadMode::AquaUnstaged};
    for (std::size_t i = 0; i < modes.size(); ++i) {
        LongPromptConfig cfg;
        cfg.mode = modes[i];
        cfg.durationSec = 120.0;
        LongPromptResult r = runLongPrompt(cfg);
        SCOPED_TRACE(offloadModeName(modes[i]));
        ASSERT_EQ(r.tokensPerConsumer.size(), 1u);
        EXPECT_EQ(r.totalTokens, tokens[i]);
    }
    // Two consumers leasing from one producer on the NVSwitch server.
    LongPromptConfig cfg;
    cfg.mode = OffloadMode::Aqua;
    cfg.durationSec = 120.0;
    cfg.pairs = 2;
    cfg.sharedProducer = true;
    LongPromptResult r = runLongPrompt(cfg);
    ASSERT_EQ(r.tokensPerConsumer.size(), 2u);
    EXPECT_EQ(r.tokensPerConsumer[0], 1235u);
    EXPECT_EQ(r.tokensPerConsumer[1], 1235u);
}

TEST(GoldenOutputs, Elastic)
{
    ElasticExperimentConfig cfg;
    cfg.durationSec = 450.0;
    ElasticExperimentResult r = runElasticExperiment(cfg);
    EXPECT_EQ(outputDigest(r.producerMetrics), 8933478898381720878ULL);
    EXPECT_EQ(seriesDigest(r.producerFreeMemory), 6411520318727413159ULL);
    EXPECT_EQ(seriesDigest(r.consumerThroughput), 1568114694959780255ULL);
    EXPECT_EQ(r.consumerTokens, 2982u);
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

namespace {

/** Timing digest and wire/media byte counters after one route's
 *  calls. */
struct RouteOutcome
{
    std::uint64_t timing = 0;
    std::uint64_t hostBytes = 0;
    std::uint64_t peerBytes = 0;
    std::uint64_t ssdWritten = 0;
    std::uint64_t ssdRead = 0;
};

using Move =
    std::function<hw::TransferTiming(std::uint64_t, std::uint64_t)>;

/** Two passes of out/in moves at 64 MiB and 1 GiB (1 and 64 chunks,
 *  so per-chunk, staged and direct-ship transfers all occur); the
 *  second pass queues behind the first's ports and staging slots. */
RouteOutcome
driveRoute(Testbed &tb, const Move &out, const Move &in)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t bytes : {64 * sim::mib, sim::gib}) {
            for (std::uint64_t n : {1, 64}) {
                for (const Move *move : {&out, &in}) {
                    hw::TransferTiming t = (*move)(bytes, n);
                    h = fnv(fnv(h, t.start), t.complete);
                }
            }
        }
    }
    const hw::Topology &topo = tb.server().topology();
    return RouteOutcome{h, topo.hostBytesMoved(), topo.peerBytesMoved(),
                        tb.server().ssd().bytesWritten(),
                        tb.server().ssd().bytesRead()};
}

RouteOutcome
driveBackend(Testbed &tb, serve::OffloadBackend &backend)
{
    auto handle = backend.alloc(sim::gib);
    return driveRoute(
        tb,
        [&](std::uint64_t b, std::uint64_t n) {
            return backend.write(*handle, b, n);
        },
        [&](std::uint64_t b, std::uint64_t n) {
            return backend.read(*handle, b, n);
        });
}

/** AQUA-LIB tensor on a peer lease (@p lease) or in host DRAM. */
RouteOutcome
driveAquaLib(bool useStaging, bool lease)
{
    Testbed tb(2, hw::TopologyKind::DirectP2P);
    core::AquaLibConfig cfg;
    cfg.useStaging = useStaging;
    core::AquaLib &lib = tb.makeAquaLib(0, nullptr, cfg);
    tb.assign(0, 1);
    if (lease)
        tb.coordinator().lease(1, std::uint64_t(20) << 30);
    auto id = lib.allocateTensor(sim::gib);
    return driveRoute(
        tb,
        [&](std::uint64_t b, std::uint64_t n) {
            return lib.writeTensor(*id, b, n);
        },
        [&](std::uint64_t b, std::uint64_t n) {
            return lib.readTensor(*id, b, n);
        });
}

void
expectRoute(const RouteOutcome &r, std::uint64_t timing,
            std::uint64_t hostBytes, std::uint64_t peerBytes,
            std::uint64_t ssdWritten, std::uint64_t ssdRead)
{
    EXPECT_EQ(r.timing, timing);
    EXPECT_EQ(r.hostBytes, hostBytes);
    EXPECT_EQ(r.peerBytes, peerBytes);
    EXPECT_EQ(r.ssdWritten, ssdWritten);
    EXPECT_EQ(r.ssdRead, ssdRead);
}

} // anonymous namespace

TEST(GoldenOutputs, OffloadRoutes)
{
    // Each route moves 2 passes x 2 directions x 2 chunkings x
    // (64 MiB + 1 GiB) = 8.5 GiB.
    {
        Testbed tb(2, hw::TopologyKind::DirectP2P);
        expectRoute(driveBackend(tb, tb.makeDramBackend(0)),
                    16228452481723494361ULL, 9126805504u, 0, 0, 0);
    }
    {
        Testbed tb(2, hw::TopologyKind::DirectP2P);
        expectRoute(driveBackend(tb, tb.makeSsdBackend(0)),
                    10287273155791882255ULL, 9126805504u, 0, 4563402752u, 4563402752u);
    }
    {
        // Tier-local moves: media only, no PCIe.
        Testbed tb(2, hw::TopologyKind::DirectP2P);
        tier::SsdBackend &ssd = tb.makeSsdBackend(0);
        auto handle = ssd.alloc(sim::gib);
        RouteOutcome r = driveRoute(
            tb,
            [&](std::uint64_t b, std::uint64_t n) {
                return ssd.writeFromDram(*handle, b, n);
            },
            [&](std::uint64_t b, std::uint64_t n) {
                return ssd.readToDram(*handle, b, n);
            });
        expectRoute(r, 14547139137287390365ULL, 0, 0, 4563402752u, 4563402752u);
    }
    {
        Testbed tb(2, hw::TopologyKind::DirectP2P);
        serve::UvmBackend uvm(tb.server(), 0);
        expectRoute(driveBackend(tb, uvm),
                    2207773910573304293ULL, 9126805504u, 0, 0, 0);
    }
    // AQUA-LIB on a peer lease, staged then unstaged.
    expectRoute(driveAquaLib(true, true),
                7261930691231416193ULL, 0, 9126805504u, 0, 0);
    expectRoute(driveAquaLib(false, true),
                14551425353976656585ULL, 0, 9126805504u, 0, 0);
    // AQUA-LIB falling back to host DRAM (no lease). Unstaged, it is
    // the DRAM baseline's route exactly.
    expectRoute(driveAquaLib(true, false),
                5016590264754390015ULL, 9126805504u, 0, 0, 0);
    expectRoute(driveAquaLib(false, false),
                16228452481723494361ULL, 9126805504u, 0, 0, 0);
}

//
// Stats sums: results total PrefixCacheEngineStats over engines and
// DirectoryStats over servers with operator+=.
//

namespace {

/** Fill two S with a distinct value per field, sum them, and check
 *  every field (S is a plain struct of uint64 counters). */
template <typename S>
void
expectFieldwiseSum()
{
    using Fields = std::array<std::uint64_t,
                              sizeof(S) / sizeof(std::uint64_t)>;
    Fields a{}, b{};
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = i + 1;
        b[i] = 1000 * (i + 1);
    }
    S x = std::bit_cast<S>(a);
    x += std::bit_cast<S>(b);
    Fields sum = std::bit_cast<Fields>(x);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(sum[i], a[i] + b[i]) << "field " << i;
}

} // anonymous namespace

TEST(StatsSum, PrefixCacheEngineStatsAddsEveryField)
{
    expectFieldwiseSum<serve::PrefixCacheEngineStats>();
}

TEST(StatsSum, DirectoryStatsAddsEveryField)
{
    expectFieldwiseSum<federation::DirectoryStats>();
}
