/**
 * @file
 * Figure 3: (a) NVLink bandwidth vs buffer size between two A100s;
 * (b) the impact on a producer's inference throughput of sharing its
 * memory (S) vs running isolated (I).
 *
 * 3a is the observation that motivates AQUA's gather/scatter staging:
 * NVLink reaches only ~100 GB/s at 2 MB transfers and needs large
 * buffers for its 250 GB/s peak. 3b shows donating memory costs the
 * compute-bound producer < 5%.
 */

#include "aqua/staging.hh"
#include "bench/bench_util.hh"
#include "exp/experiments.hh"
#include "exp/testbed.hh"
#include "serve/batch_engine.hh"
#include "serve/flexgen_engine.hh"
#include "workload/generator.hh"

using namespace aqua;

namespace {

/**
 * Move a scattered block workload GPU-to-GPU either block by block
 * (one NVLink copy per block) or through the staging engine
 * (gather into large contiguous DMAs), and report aggregate time.
 */
sim::Tick
scatteredWorkloadTime(bool staged, std::uint64_t blocks,
                      std::uint64_t blockBytes)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto descs =
        core::StagingEngine::uniformChunks(blocks * blockBytes, blocks);
    if (staged) {
        core::StagingEngine engine(tb.server(), 0);
        hw::TransferTiming t = engine.transferOut(1, descs);
        return t.complete;
    }
    hw::TransferTiming t = tb.server().topology().copyChunked(
        0, 1, blocks * blockBytes, blocks, {});
    return t.complete;
}

double
producerThroughput(bool shared, const char *producerModel)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    serve::BatchEngine producer(tb.server(), 1,
                                model::presetByName(producerModel));
    workload::TraceBuilder traces(tb.sim().makeRandom());
    // Saturating image/audio load.
    exp::driveTrace(tb.sim(), producer,
                    traces.interactive(20.0, 8000));

    std::unique_ptr<serve::FlexGenEngine> consumer;
    if (shared) {
        core::AquaLib &producerLib = tb.makeAquaLib(
            1, std::make_unique<core::BatchInformer>());
        core::AquaLib &consumerLib = tb.makeAquaLib(0);
        tb.assign(0, 1);
        producer.attachAquaLib(&producerLib);
        auto &backend = tb.makeAquaBackend(consumerLib);
        consumer = std::make_unique<serve::FlexGenEngine>(
            tb.server(), 0, model::opt30b(), backend);
        for (int i = 0; i < 40; ++i)
            consumer->submit(traces.longPrompt(8000, 2000));
    }
    // Time a fixed number of generations so batch quantization does
    // not masquerade as a throughput change.
    const std::uint64_t target = 600;
    while (producer.itemsGenerated() < target &&
           tb.sim().now() < sim::secToTicks(3600.0))
        tb.sim().runFor(sim::secToTicks(5.0));
    return static_cast<double>(producer.itemsGenerated()) /
           sim::ticksToSec(tb.sim().now());
}

} // anonymous namespace

int
main()
{
    bench::banner("Figure 3a", "NVLink effective bandwidth vs buffer "
                               "size (model calibrated to the "
                               "paper's measurement)");
    hw::GpuSpec spec = hw::a100_80g();
    hw::Link nvlink("nvlink", spec.nvlinkBandwidth,
                    spec.nvlinkRampBytes, spec.nvlinkLatency);
    hw::Link pcie("pcie", spec.pcieBandwidth, spec.pcieRampBytes,
                  spec.pcieLatency);
    stats::Table bw({"buffer", "nvlink_gb_per_s", "pcie_gb_per_s"});
    for (std::uint64_t size = 64 * sim::kib;
         size <= 1024 * sim::mib; size *= 4) {
        double n = static_cast<double>(size) /
                   sim::ticksToSec(nvlink.transferTime(size)) / 1e9;
        double p = static_cast<double>(size) /
                   sim::ticksToSec(pcie.transferTime(size)) / 1e9;
        bw.newRow()
            .cell(sim::formatBytes(size))
            .cell(n, 1)
            .cell(p, 1);
    }
    bench::show(bw);
    std::printf("paper: ~100 GB/s at 2 MB, 250 GB/s peak; small "
                "transfers are barely faster than PCIe.\n\n");

    bench::banner("Staging", "scattered KV blocks GPU-to-GPU: "
                             "per-block copies vs gather/scatter "
                             "staging (1024 blocks)");
    stats::Table st({"block", "total", "per_block_ms", "staged_ms",
                     "speedup"});
    for (std::uint64_t blockBytes :
         {256 * sim::kib, 1 * sim::mib, 2 * sim::mib}) {
        const std::uint64_t blocks = 1024;
        sim::Tick perBlock =
            scatteredWorkloadTime(false, blocks, blockBytes);
        sim::Tick staged =
            scatteredWorkloadTime(true, blocks, blockBytes);
        st.newRow()
            .cell(sim::formatBytes(blockBytes))
            .cell(sim::formatBytes(blocks * blockBytes))
            .cell(sim::ticksToSec(perBlock) * 1e3, 2)
            .cell(sim::ticksToSec(staged) * 1e3, 2)
            .cell(static_cast<double>(perBlock) /
                      static_cast<double>(staged),
                  2);
    }
    bench::show(st);
    std::printf("coalescing scattered blocks into large staged DMAs "
                "recovers the bandwidth the ramp takes from small "
                "transfers.\n\n");

    bench::banner("Figure 3b", "producer inference throughput: "
                               "shared (S) vs isolated (I)");
    stats::Table imp({"model", "isolated_items_per_s",
                      "shared_items_per_s", "impact_pct"});
    for (const char *m : {"StableDiffusion", "AudioGen"}) {
        double iso = producerThroughput(false, m);
        double sh = producerThroughput(true, m);
        imp.newRow()
            .cell(m)
            .cell(iso, 3)
            .cell(sh, 3)
            .cell(100.0 * (iso - sh) / iso, 2);
    }
    bench::show(imp);
    std::printf("paper: sharing memory has negligible impact "
                "(< 5%%) on compute-bound producers.\n");
    return 0;
}
