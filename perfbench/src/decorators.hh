/**
 * @file
 * Timing decorators for the serving layers that are reachable only
 * through an engine. Each wraps a real implementation of a public
 * serve interface, forwards every call unchanged and records one span
 * per call, so handing a decorator to the engine in place of the real
 * object leaves every simulated result bit-identical.
 */

#ifndef PERFBENCH_DECORATORS_HH
#define PERFBENCH_DECORATORS_HH

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "serve/offload_backend.hh"
#include "serve/scheduler.hh"
#include "serve/session_tier.hh"
#include "spans.hh"

namespace perfbench {

class TimedScheduler : public aqua::serve::SchedulerPolicy
{
  public:
    TimedScheduler(std::unique_ptr<aqua::serve::SchedulerPolicy> inner,
                   Spans &spans)
        : inner(std::move(inner)), spans(spans)
    {
    }

    aqua::serve::SchedulerDecision
    schedule(const aqua::serve::SchedulerInput &in) override
    {
        Scope s(&spans, "serve.scheduler");
        return inner->schedule(in);
    }
    bool isFair() const override { return inner->isFair(); }
    std::string name() const override { return inner->name(); }

  private:
    std::unique_ptr<aqua::serve::SchedulerPolicy> inner;
    Spans &spans;
};

/** Offload backend decorator. */
class TimedBackend : public aqua::serve::OffloadBackend
{
  public:
    TimedBackend(aqua::serve::OffloadBackend &inner, Spans &spans)
        : inner(inner), spans(spans)
    {
    }

    std::optional<Handle>
    alloc(std::uint64_t bytes) override
    {
        Scope s(&spans, "serve.offload");
        return inner.alloc(bytes);
    }
    void
    free(const Handle &handle) override
    {
        Scope s(&spans, "serve.offload");
        inner.free(handle);
    }
    aqua::hw::TransferTiming
    write(const Handle &handle, std::uint64_t bytes, std::uint64_t nChunks,
          aqua::sim::Tick earliest = 0) override
    {
        Scope s(&spans, "serve.offload", handle.id);
        return inner.write(handle, bytes, nChunks, earliest);
    }
    aqua::hw::TransferTiming
    read(const Handle &handle, std::uint64_t bytes, std::uint64_t nChunks,
         aqua::sim::Tick earliest = 0) override
    {
        Scope s(&spans, "serve.offload", handle.id);
        return inner.read(handle, bytes, nChunks, earliest);
    }
    aqua::sim::Tick
    respond() override
    {
        Scope s(&spans, "serve.offload");
        return inner.respond();
    }
    bool staged() const override { return inner.staged(); }
    aqua::sim::Tick
    lastEvacuationAt() const override
    {
        return inner.lastEvacuationAt();
    }
    // The engine keys behaviour on the backend name ("dram", "ssd",
    // "aqua"), so the decorator must report the inner one.
    std::string name() const override { return inner.name(); }

  private:
    aqua::serve::OffloadBackend &inner;
    Spans &spans;
};

/**
 * Session-tier decorator. demotionStore() returns one persistent
 * TimedBackend over the inner store: the engine compares store
 * addresses, so the same object must come back every call.
 */
class TimedTier : public aqua::serve::SessionTier
{
  public:
    TimedTier(aqua::serve::SessionTier &inner, Spans &spans)
        : inner(inner), spans(spans), store(inner.demotionStore(), spans)
    {
    }

    bool
    park(std::uint64_t sessionKey, std::uint64_t bytes,
         std::uint32_t tokens, double idleGapSec,
         aqua::sim::Tick now) override
    {
        Scope s(&spans, "tier", sessionKey);
        return inner.park(sessionKey, bytes, tokens, idleGapSec, now);
    }
    std::uint32_t
    parkedTokens(std::uint64_t sessionKey) const override
    {
        Scope s(&spans, "tier", sessionKey);
        return inner.parkedTokens(sessionKey);
    }
    bool
    beginResume(std::uint64_t sessionKey, aqua::sim::Tick now,
                aqua::sim::Tick prefillTime, ResumeCallback done,
                aqua::sim::Tick streamOverhead = 0) override
    {
        Scope s(&spans, "tier", sessionKey);
        return inner.beginResume(sessionKey, now, prefillTime,
                                 std::move(done), streamOverhead);
    }
    void
    cancelResume(std::uint64_t sessionKey) override
    {
        Scope s(&spans, "tier", sessionKey);
        inner.cancelResume(sessionKey);
    }
    aqua::serve::OffloadBackend &demotionStore() override { return store; }
    void
    noteOffloaded(std::uint64_t key, std::uint64_t bytes,
                  aqua::sim::Tick now) override
    {
        Scope s(&spans, "tier", key);
        inner.noteOffloaded(key, bytes, now);
    }
    void
    forgetOffloaded(std::uint64_t key, bool promoted,
                    aqua::sim::Tick now) override
    {
        Scope s(&spans, "tier", key);
        inner.forgetOffloaded(key, promoted, now);
    }
    std::vector<std::uint64_t>
    selectDemotions(aqua::sim::Tick now, bool pressure) override
    {
        Scope s(&spans, "tier");
        return inner.selectDemotions(now, pressure);
    }
    std::optional<aqua::serve::OffloadBackend::Handle>
    demote(std::uint64_t key, aqua::serve::OffloadBackend &from,
           const aqua::serve::OffloadBackend::Handle &handle,
           std::uint64_t nChunks, aqua::sim::Tick now) override
    {
        Scope s(&spans, "tier", key);
        // The inner tier frees the old handle in @p from and hands back
        // a handle of its own store, which the engine then reads
        // through demotionStore(), i.e. this decorator's store.
        return inner.demote(key, from, handle, nChunks, now);
    }

  private:
    aqua::serve::SessionTier &inner;
    Spans &spans;
    TimedBackend store;
};

} // namespace perfbench

#endif // PERFBENCH_DECORATORS_HH
