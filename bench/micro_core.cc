/**
 * @file
 * Micro-benchmarks (google-benchmark) of the simulation substrate:
 * event queue, allocators, the link model, and the staging math.
 * These guard against performance regressions in the hot paths that
 * every figure harness exercises millions of times.
 */

#include <benchmark/benchmark.h>

#include "aqua/staging.hh"
#include "hw/link.hh"
#include "mem/block_allocator.hh"
#include "mem/region_allocator.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

using namespace aqua;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const std::size_t batch = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue q;
        std::uint64_t sink = 0;
        for (std::size_t i = 0; i < batch; ++i) {
            q.schedule(static_cast<sim::Tick>((i * 7919) % batch),
                       [&sink] { ++sink; });
        }
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

void
BM_EventQueueScheduleFireHot(benchmark::State &state)
{
    // Tight schedule/fire ping-pong over a warm, pre-reserved queue:
    // isolates the per-event push_heap/pop_heap cost (and whether the
    // callback is moved or copied on pop) from allocation noise.
    const std::size_t depth = 64;
    sim::EventQueue q;
    q.reserve(depth + 1);
    std::uint64_t sink = 0;
    sim::Tick when = 0;
    for (std::size_t i = 0; i < depth; ++i)
        q.schedule(++when, [&sink] { ++sink; });
    for (auto _ : state) {
        q.schedule(++when, [&sink] { ++sink; });
        q.step();
    }
    q.run();
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueScheduleFireHot);

void
BM_EventQueueCancelChurn(benchmark::State &state)
{
    // Half the scheduled events are cancelled before firing: measures
    // the lazy-deletion sweep in skipCancelled().
    sim::EventQueue q;
    q.reserve(2048);
    std::uint64_t sink = 0;
    sim::Tick when = 0;
    for (auto _ : state) {
        sim::EventId keep = q.schedule(++when, [&sink] { ++sink; });
        sim::EventId drop = q.schedule(++when, [&sink] { ++sink; });
        benchmark::DoNotOptimize(keep);
        q.cancel(drop);
        q.step();
    }
    q.run();
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueCancelChurn);

void
BM_EventQueueFarFuture(benchmark::State &state)
{
    // The cluster_scale shape: about 100k events pending far ahead
    // (every queued request's completion) with 64-byte captures, and
    // each fired event scheduling one more at a random later tick.
    // Per-event cost here is heap depth and capture moves, not
    // allocation warm-up.
    const std::size_t pending = static_cast<std::size_t>(state.range(0));
    struct Payload
    {
        std::uint64_t w[7];
    };
    sim::EventQueue q;
    sim::Random rng(11);
    std::uint64_t sink = 0;
    auto push = [&] {
        Payload p{};
        p.w[0] = rng.next64();
        sim::Tick when =
            q.now() + 1 + rng.next64() % sim::secToTicks(8.0);
        q.schedule(when, [&sink, p] { sink += p.w[0]; });
    };
    for (std::size_t i = 0; i < pending; ++i)
        push();
    for (auto _ : state) {
        q.step();
        push();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueFarFuture)->Arg(100000);

void
BM_RegionAllocatorChurn(benchmark::State &state)
{
    mem::RegionAllocator alloc(std::uint64_t(80) << 30);
    sim::Random rng(7);
    std::vector<mem::Region> live;
    for (auto _ : state) {
        if (live.size() < 256 && rng.bernoulli(0.6)) {
            auto r = alloc.allocate(
                static_cast<std::uint64_t>(
                    rng.uniformInt(4096, 64 << 20)));
            if (r)
                live.push_back(*r);
        } else if (!live.empty()) {
            std::size_t idx = static_cast<std::size_t>(
                rng.uniformInt(0,
                               static_cast<std::int64_t>(
                                   live.size()) - 1));
            alloc.free(live[idx]);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    for (const mem::Region &r : live)
        alloc.free(r);
}
BENCHMARK(BM_RegionAllocatorChurn);

void
BM_BlockAllocatorSwapCycle(benchmark::State &state)
{
    mem::BlockAllocator alloc(std::uint64_t(6) << 30, 3 << 20);
    for (auto _ : state) {
        auto blocks = alloc.allocateMany(128);
        alloc.freeMany(*blocks);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_BlockAllocatorSwapCycle);

void
BM_LinkTransferTime(benchmark::State &state)
{
    hw::Link link("nvlink", 250e9, 3 << 20, sim::usToTicks(1.0));
    std::uint64_t bytes = 1;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        bytes = bytes * 2654435761u % (std::uint64_t(1) << 30) + 1;
        sink += link.transferTime(bytes);
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_LinkTransferTime);

void
BM_StagingGatherTime(benchmark::State &state)
{
    core::StagingModel staging(hw::a100_80g());
    std::uint64_t sink = 0;
    for (auto _ : state)
        sink += staging.gatherTime(384 << 20);
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_StagingGatherTime);

void
BM_Pcg32(benchmark::State &state)
{
    sim::Random rng(1);
    double sink = 0.0;
    for (auto _ : state)
        sink += rng.exponential(5.0);
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_Pcg32);

} // anonymous namespace

BENCHMARK_MAIN();
