#include "tier/park_agent.hh"

#include <algorithm>

namespace aqua::tier {

using namespace aqua::sim;

ParkAgent::ParkAgent(hw::Server &server, hw::GpuId gpu,
                     ParkAgentConfig config)
    : server(server), store(server, gpu), pipe(server, gpu),
      mgr(server.ssd(), config.tier)
{
}

ParkAgent::~ParkAgent()
{
    for (auto &[key, parked] : sessions)
        store.free(parked.handle);
}

bool
ParkAgent::park(std::uint64_t sessionKey, std::uint64_t bytes,
                std::uint32_t tokens, double idleGapSec, Tick now)
{
    if (idleGapSec < mgr.config().parkAfterSec || bytes == 0)
        return false;
    // A failed drive takes no new sessions; the KV is simply dropped
    // and the session re-prefills when it comes back.
    if (server.ssd().failed())
        return false;
    // A fresher turn supersedes any earlier parked copy.
    dropParked(sessionKey);
    auto handle = store.alloc(bytes);
    if (!handle)
        return false;
    // Bulk sequential dump, window-sized accesses: parking rides the
    // fast end of the drive's sequential-vs-random ramp.
    std::uint64_t nChunks =
        std::max<std::uint64_t>(1, bytes / prefetchWindowBytes);
    store.write(*handle, bytes, nChunks, now);
    sessions[sessionKey] = Parked{*handle, tokens, 0};
    mgr.registerItem(parkKey(sessionKey), bytes, now);
    mgr.markDemoted(parkKey(sessionKey), now);
    return true;
}

std::uint32_t
ParkAgent::parkedTokens(std::uint64_t sessionKey) const
{
    auto it = sessions.find(sessionKey);
    return it == sessions.end() ? 0 : it->second.tokens;
}

bool
ParkAgent::beginResume(std::uint64_t sessionKey, Tick now,
                       Tick prefillTime, ResumeCallback done,
                       Tick streamOverhead)
{
    auto it = sessions.find(sessionKey);
    if (it == sessions.end() || it->second.stream != 0)
        return false;
    std::uint64_t bytes = it->second.handle.bytes;
    // The crossover check sees the device as it is *now*: degradation
    // inflates the estimate (and failure forces recompute), so a
    // mid-incident resume naturally falls back to re-prefilling. A
    // quantized parked copy streams fewer bytes but adds its dequant
    // pass as streamOverhead.
    Tick estimate = pipe.estimate(bytes);
    if (mgr.decideResume(estimate, prefillTime, streamOverhead) ==
        ResumeDecision::Recompute) {
        dropParked(sessionKey);
        return false;
    }
    it->second.stream = pipe.start(
        bytes, now,
        [this, sessionKey,
         done = std::move(done)](const PrefetchPipeline::Done &d) {
            bool streamed = !d.cancelled;
            auto sit = sessions.find(sessionKey);
            if (sit != sessions.end()) {
                if (streamed)
                    mgr.markPromoted(parkKey(sessionKey),
                                     d.complete);
                store.free(sit->second.handle);
                mgr.remove(parkKey(sessionKey));
                sessions.erase(sit);
            }
            // A landed copy the engine discarded (it failed its
            // check on arrival) bought nothing.
            if (done && !done(streamed) && streamed)
                pipe.discardDelivered(d.bytes);
        });
    return true;
}

void
ParkAgent::cancelResume(std::uint64_t sessionKey)
{
    auto it = sessions.find(sessionKey);
    if (it == sessions.end())
        return;
    if (it->second.stream != 0 && pipe.active(it->second.stream)) {
        // The stream's completion callback frees the entry.
        pipe.cancel(it->second.stream);
        return;
    }
    dropParked(sessionKey);
}

void
ParkAgent::noteOffloaded(std::uint64_t key, std::uint64_t bytes,
                         Tick now)
{
    if (mgr.contains(key))
        mgr.touch(key, now);
    else
        mgr.registerItem(key, bytes, now);
}

void
ParkAgent::forgetOffloaded(std::uint64_t key, bool promoted, Tick now)
{
    if (!mgr.contains(key))
        return;
    if (promoted)
        mgr.markPromoted(key, now);
    mgr.remove(key);
}

std::vector<std::uint64_t>
ParkAgent::selectDemotions(Tick now, bool pressure)
{
    return mgr.selectDemotions(now, pressure);
}

std::optional<serve::OffloadBackend::Handle>
ParkAgent::demote(std::uint64_t key, serve::OffloadBackend &from,
                  const serve::OffloadBackend::Handle &handle,
                  std::uint64_t nChunks, Tick now)
{
    if (server.ssd().failed())
        return std::nullopt;
    auto moved = store.alloc(handle.bytes);
    if (!moved)
        return std::nullopt;
    // Tier-local move: the bytes already sit in host DRAM, so the
    // drain touches only the media, not the GPU's PCIe ports.
    store.writeFromDram(*moved, handle.bytes, nChunks, now);
    from.free(handle);
    mgr.markDemoted(key, now);
    return moved;
}

std::uint64_t
ParkAgent::parkedBytes() const
{
    std::uint64_t total = 0;
    for (const auto &[key, parked] : sessions)
        total += parked.handle.bytes;
    return total;
}

void
ParkAgent::dropParked(std::uint64_t sessionKey)
{
    auto it = sessions.find(sessionKey);
    if (it == sessions.end())
        return;
    store.free(it->second.handle);
    mgr.remove(parkKey(sessionKey));
    sessions.erase(it);
}

} // namespace aqua::tier
