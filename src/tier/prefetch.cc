#include "tier/prefetch.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace aqua::tier {

using namespace aqua::sim;

PrefetchPipeline::PrefetchPipeline(hw::Server &server, hw::GpuId gpu,
                                   PrefetchConfig config)
    : server(server), gpu(gpu), cfg(config)
{
    if (cfg.buffers == 0)
        panic("PrefetchPipeline: buffer count must be positive");
    bufFree.assign(cfg.buffers, 0);
}

PrefetchPipeline::StreamId
PrefetchPipeline::start(std::uint64_t bytes, Tick earliest,
                        DoneCallback onDone)
{
    if (bytes == 0)
        panic("PrefetchPipeline::start: stream size must be positive");
    StreamId id = nextStream++;
    Stream s;
    s.remaining = bytes;
    s.onDone = std::move(onDone);
    streams.emplace(id, std::move(s));
    ++counters.streamsStarted;

    Tick at = server.simulation().now();
    if (earliest > at)
        at = earliest;
    server.simulation().queue().schedule(
        at, [this, id] { issueWindow(id); });
    return id;
}

bool
PrefetchPipeline::cancel(StreamId id)
{
    auto it = streams.find(id);
    if (it == streams.end() || it->second.cancelled)
        return false;
    it->second.cancelled = true;
    return true;
}

bool
PrefetchPipeline::active(StreamId id) const
{
    return streams.count(id) != 0;
}

void
PrefetchPipeline::issueWindow(StreamId id)
{
    auto it = streams.find(id);
    if (it == streams.end())
        return;
    Stream &s = it->second;
    if (s.cancelled || server.topology().ssdFailed()) {
        // Predictor miss or the device died mid-stream: stop issuing.
        // Either way the caller's onDone sees cancelled and falls
        // back to recompute.
        finishStream(id, true);
        return;
    }

    std::uint64_t w = std::min<std::uint64_t>(prefetchWindowBytes,
                                              s.remaining);
    std::uint32_t slot = s.nextSlot++ % cfg.buffers;
    Tick base = server.simulation().now();
    if (bufFree[slot] > base)
        base = bufFree[slot];

    // Media read into the bounce buffer, then the PCIe hop to HBM.
    Tick mediaDone = server.ssd().read(w, 1, base);
    hw::TransferTiming up = server.topology().copy(
        hw::hostDramId, gpu, w, {}, mediaDone);
    bufFree[slot] = up.complete;

    ++counters.windowsIssued;
    s.mediaSum += server.ssd().readDuration(w, 1);
    s.pcieSum += server.topology().hostTransferDuration(w);
    if (!s.started) {
        s.started = true;
        s.start = base;
    }
    s.lastComplete = up.complete;
    s.delivered += w;
    s.remaining -= w;

    if (s.remaining > 0) {
        // Continue at media completion: the next media read starts
        // while this window's PCIe drain is still in flight.
        server.simulation().queue().schedule(
            mediaDone, [this, id] { issueWindow(id); });
    } else {
        server.simulation().queue().schedule(
            up.complete, [this, id] { finishStream(id, false); });
    }
}

void
PrefetchPipeline::finishStream(StreamId id, bool cancelled)
{
    auto it = streams.find(id);
    if (it == streams.end())
        return;
    Stream s = std::move(it->second);
    streams.erase(it);
    cancelled = cancelled || s.cancelled;

    Done done;
    done.start = s.started ? s.start : server.simulation().now();
    done.complete = s.lastComplete;
    if (server.simulation().now() > done.complete)
        done.complete = server.simulation().now();
    done.bytes = s.delivered;
    done.cancelled = cancelled;

    Tick makespan = done.complete > done.start
        ? done.complete - done.start : 0;
    Tick total = s.mediaSum + s.pcieSum;
    Tick shorter = std::min(s.mediaSum, s.pcieSum);
    if (shorter > 0 && total > makespan) {
        double eff =
            static_cast<double>(total - makespan) / shorter;
        done.overlapEfficiency = std::min(1.0, eff);
    }

    if (cancelled) {
        ++counters.streamsCancelled;
        counters.bytesWasted += s.delivered;
        counters.windowsCancelled +=
            (s.remaining + prefetchWindowBytes - 1) / prefetchWindowBytes;
    } else {
        ++counters.streamsCompleted;
        counters.bytesStreamed += s.delivered;
        counters.overlapEfficiency.add(done.overlapEfficiency);
    }

    if (s.onDone)
        s.onDone(done);
}

Tick
PrefetchPipeline::estimate(std::uint64_t bytes) const
{
    if (bytes == 0)
        return 0;
    std::uint64_t n = (bytes + prefetchWindowBytes - 1) / prefetchWindowBytes;
    std::uint64_t last = bytes - (n - 1) * prefetchWindowBytes;

    const hw::Ssd &ssd = server.ssd();
    Tick mFull = ssd.readDuration(prefetchWindowBytes, 1);
    Tick pFull = server.topology().hostTransferDuration(prefetchWindowBytes);
    Tick mLast = ssd.readDuration(last, 1);
    Tick pLast = server.topology().hostTransferDuration(last);
    Tick mTot = (n - 1) * mFull + mLast;
    Tick pTot = (n - 1) * pFull + pLast;

    if (cfg.buffers < 2 || n == 1)
        return mTot + pTot;
    // Two-stage pipeline: the longer stage sets the pace, plus the
    // other stage's exposed first/last window.
    if (mTot >= pTot)
        return mTot + pLast;
    return mFull + pTot;
}

} // namespace aqua::tier
