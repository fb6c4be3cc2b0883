/**
 * @file
 * Tests for the KV precision machinery: the precision enum and byte
 * rescaling helpers, the sparse-read/dequant extensions to the perf
 * model, the pressure-driven precision governor's hysteresis, and the
 * stream-vs-recompute crossover under a dequant overhead.
 */

#include <gtest/gtest.h>

#include "exp/testbed.hh"
#include "model/kv_precision.hh"
#include "model/model_spec.hh"
#include "model/perf_model.hh"
#include "overload/kv_precision_governor.hh"
#include "tier/tier_manager.hh"
#include "trace/trace.hh"

using namespace aqua;
using namespace aqua::model;
using namespace aqua::sim;

//
// Precision helpers.
//

TEST(KvPrecision, NamesRoundTrip)
{
    for (KvPrecision p :
         {KvPrecision::Fp16, KvPrecision::Fp8, KvPrecision::Int4})
        EXPECT_EQ(kvPrecisionByName(kvPrecisionName(p)), p);
    EXPECT_DEATH(kvPrecisionByName("bf16"), "unknown");
}

TEST(KvPrecision, ScaleIsExactDivision)
{
    EXPECT_EQ(kvPrecisionDivisor(KvPrecision::Fp16), 1u);
    EXPECT_EQ(kvPrecisionDivisor(KvPrecision::Fp8), 2u);
    EXPECT_EQ(kvPrecisionDivisor(KvPrecision::Int4), 4u);
    EXPECT_EQ(scaleKvBytes(131072, KvPrecision::Fp16), 131072u);
    EXPECT_EQ(scaleKvBytes(131072, KvPrecision::Fp8), 65536u);
    EXPECT_EQ(scaleKvBytes(131072, KvPrecision::Int4), 32768u);
}

TEST(KvPrecision, RescaleIsLossless)
{
    // Every precision pair round-trips exactly (widen via fp16).
    const std::uint64_t fp16 = mistral7b().kvBytes(100);
    for (KvPrecision a :
         {KvPrecision::Fp16, KvPrecision::Fp8, KvPrecision::Int4}) {
        std::uint64_t atA = scaleKvBytes(fp16, a);
        for (KvPrecision b :
             {KvPrecision::Fp16, KvPrecision::Fp8, KvPrecision::Int4}) {
            std::uint64_t atB = rescaleKvBytes(atA, a, b);
            EXPECT_EQ(atB, scaleKvBytes(fp16, b));
            EXPECT_EQ(rescaleKvBytes(atB, b, a), atA);
        }
    }
}

TEST(KvPrecision, DequantOverheadOnlyForNarrowPrecisions)
{
    EXPECT_EQ(kvDequantOverhead(KvPrecision::Fp16), 0.0);
    EXPECT_GT(kvDequantOverhead(KvPrecision::Fp8), 0.0);
    EXPECT_GT(kvDequantOverhead(KvPrecision::Int4),
              kvDequantOverhead(KvPrecision::Fp8));
}

//
// Perf model: sparse reads and dequant compute.
//

TEST(PerfModel, SparseReadsShrinkKvTraffic)
{
    PerfModel pm(llama2_13b(), hw::a100_80g());
    std::uint64_t kv = std::uint64_t(40) << 30;
    Tick dense = pm.decodeStepTime(8, kv);
    pm.setSparseReadFraction(0.25);
    Tick sparse = pm.decodeStepTime(8, kv);
    EXPECT_LT(sparse, dense);
    // A quarter of the reads still beats reading nothing.
    EXPECT_GT(sparse, pm.decodeStepTime(8, 0));
}

TEST(PerfModel, SparseFractionValidated)
{
    PerfModel pm(llama2_13b(), hw::a100_80g());
    EXPECT_DEATH(pm.setSparseReadFraction(0.0), "outside");
    EXPECT_DEATH(pm.setSparseReadFraction(1.5), "outside");
}

TEST(PerfModel, QuantizedDecodePaysDequant)
{
    // Same geometry, narrower KV: the resident-KV stream shrinks 4x
    // but a dequant pass serializes after the roofline max, so int4
    // decode is cheaper than fp16 yet dearer than a free-lunch 4x.
    ModelSpec fp16Spec = llama2_13b();
    ModelSpec int4Spec = llama2_13b();
    int4Spec.kvPrecision = KvPrecision::Int4;
    PerfModel fp16Pm(fp16Spec, hw::a100_80g());
    PerfModel int4Pm(int4Spec, hw::a100_80g());
    std::uint64_t tokens = 200000;
    Tick dense = fp16Pm.decodeStepTime(8, fp16Spec.kvBytes(tokens));
    Tick quant = int4Pm.decodeStepTime(8, int4Spec.kvBytes(tokens));
    EXPECT_LT(quant, dense);

    // The dequant cost itself is visible and proportional to bytes.
    std::uint64_t bytes = std::uint64_t(1) << 30;
    EXPECT_EQ(fp16Pm.dequantTime(bytes), 0u);
    EXPECT_GT(int4Pm.dequantTime(bytes), 0u);
    EXPECT_GT(int4Pm.dequantTimeAt(2 * bytes, KvPrecision::Int4),
              int4Pm.dequantTimeAt(bytes, KvPrecision::Int4));
    EXPECT_EQ(int4Pm.dequantTimeAt(bytes, KvPrecision::Fp16), 0u);
    EXPECT_EQ(int4Pm.quantizeTime(bytes),
              int4Pm.dequantTimeAt(bytes, KvPrecision::Int4));
}

//
// Precision governor: thresholds, hysteresis, floor.
//

TEST(KvPrecisionGovernor, DemotesImmediatelyPromotesAfterDwell)
{
    overload::KvPrecisionGovernorConfig cfg;
    overload::KvPrecisionGovernor gov(cfg, KvPrecision::Fp16);
    EXPECT_EQ(gov.coldPrecision(), KvPrecision::Fp16);
    EXPECT_FALSE(gov.demoting());

    // Pressure at the fp8 threshold: demote at once.
    Tick now = secToTicks(1.0);
    EXPECT_EQ(gov.update(0.20, overload::BrownoutLevel::Normal, now),
              KvPrecision::Fp8);
    EXPECT_TRUE(gov.demoting());
    EXPECT_EQ(gov.stats().demotions, 1u);

    // Deeper pressure: straight to the floor, still immediate.
    EXPECT_EQ(gov.update(0.05, overload::BrownoutLevel::Normal,
                         now + 1),
              KvPrecision::Int4);
    EXPECT_EQ(gov.stats().demotions, 2u);

    // Pressure gone: no promotion inside the dwell...
    EXPECT_EQ(gov.update(0.90, overload::BrownoutLevel::Normal,
                         now + 2),
              KvPrecision::Int4);
    // ...then one step per dwell, not a jump back to fp16.
    Tick later = now + 2 + cfg.minDwell;
    EXPECT_EQ(gov.update(0.90, overload::BrownoutLevel::Normal, later),
              KvPrecision::Fp8);
    EXPECT_EQ(gov.update(0.90, overload::BrownoutLevel::Normal,
                         later + cfg.minDwell),
              KvPrecision::Fp16);
    EXPECT_FALSE(gov.demoting());
    EXPECT_EQ(gov.stats().reconfigurations, 4u);
}

TEST(KvPrecisionGovernor, BrownoutLevelDeepensDemotion)
{
    overload::KvPrecisionGovernor gov({}, KvPrecision::Fp16);
    // A healthy pool but a deep brownout still narrows cold KV.
    EXPECT_EQ(gov.update(0.90, overload::BrownoutLevel::NoCachePublish,
                         secToTicks(1.0)),
              KvPrecision::Fp8);
    EXPECT_EQ(gov.update(0.90,
                         overload::BrownoutLevel::ForceDramOffload,
                         secToTicks(1.1)),
              KvPrecision::Int4);
}

TEST(KvPrecisionGovernor, FloorAndServingClampTarget)
{
    // Floor at fp8: int4-grade pressure stops at fp8.
    overload::KvPrecisionGovernorConfig cfg;
    cfg.floor = KvPrecision::Fp8;
    overload::KvPrecisionGovernor gov(cfg, KvPrecision::Fp16);
    EXPECT_EQ(gov.update(0.01, overload::BrownoutLevel::RejectNew,
                         secToTicks(1.0)),
              KvPrecision::Fp8);

    // An engine already serving at int4 never "demotes" wider: the
    // governor is clamped to [serving, floor] and stays put.
    overload::KvPrecisionGovernor narrow({}, KvPrecision::Int4);
    EXPECT_EQ(narrow.update(0.01, overload::BrownoutLevel::RejectNew,
                            secToTicks(1.0)),
              KvPrecision::Int4);
    EXPECT_FALSE(narrow.demoting());
    EXPECT_EQ(narrow.stats().reconfigurations, 0u);
}

TEST(KvPrecisionGovernor, PayloadAccountingAndTrace)
{
    trace::TraceLog log;
    overload::KvPrecisionGovernor gov({}, KvPrecision::Fp16);
    gov.setTraceLog(&log);
    gov.update(0.05, overload::BrownoutLevel::Normal, secToTicks(1.0));
    gov.notePayload(4096, 1024);
    gov.notePayload(4096, 1024);
    // Payloads not actually shrunk don't count.
    gov.notePayload(1000, 1000);
    EXPECT_EQ(gov.stats().demotedPayloads, 2u);
    EXPECT_EQ(gov.stats().savedBytes, 2u * 3072);

    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log.events().front().category, "kv_precision");
}

//
// Tier crossover: dequant overhead counts against streaming.
//

TEST(TierManager, ResumeOverheadTipsCrossover)
{
    exp::Testbed tb(1, hw::TopologyKind::DirectP2P);
    tier::TierManager mgr(tb.server().ssd(), {});
    Tick stream = secToTicks(0.5);
    Tick prefill = secToTicks(1.0);
    // Streaming wins without overhead (default safety factor < 2x)...
    EXPECT_EQ(mgr.decideResume(stream, prefill),
              tier::ResumeDecision::Stream);
    // ...but a dequant pass big enough to erase the margin flips the
    // decision to recompute.
    EXPECT_EQ(mgr.decideResume(stream, prefill, secToTicks(0.5)),
              tier::ResumeDecision::Recompute);
}
