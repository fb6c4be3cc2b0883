#include "sim/sharded_sim.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace aqua::sim {

//
// DomainMailboxes
//

DomainMailboxes::DomainMailboxes(std::size_t numDomains)
    : pools(numDomains)
{
}

std::int64_t
DomainMailboxes::findOpen(const Pool &pool, Tick when)
{
    // Every open batch is for a tick <= newest.
    if (pool.batches.empty() || when > pool.newest)
        return -1;
    const Batch &last = pool.batches[pool.newestIdx];
    if (last.open && last.when == when)
        return pool.newestIdx;
    for (std::size_t i = 0; i < pool.batches.size(); ++i) {
        const Batch &b = pool.batches[i];
        if (b.open && b.when == when)
            return static_cast<std::int64_t>(i);
    }
    return -1;
}

void
DomainMailboxes::post(EventQueue &dstQueue, std::size_t dst,
                      std::size_t src, std::uint64_t srcSeq, Tick when,
                      EventQueue::Callback fn)
{
    Pool &pool = pools[dst];
    std::int64_t found = findOpen(pool, when);
    std::uint32_t idx;
    if (found >= 0) {
        idx = static_cast<std::uint32_t>(found);
    } else {
        if (pool.free.empty()) {
            idx = static_cast<std::uint32_t>(pool.batches.size());
            pool.batches.emplace_back();
        } else {
            idx = pool.free.back();
            pool.free.pop_back();
        }
        Batch &b = pool.batches[idx];
        b.when = when;
        b.open = true;
        if (when >= pool.newest) {
            pool.newest = when;
            pool.newestIdx = idx;
        }
        std::uint64_t key = static_cast<std::uint64_t>(dst) << 32 | idx;
        dstQueue.schedule(when, deliveryBand, [this, key] { drain(key); });
    }
    pool.batches[idx].msgs.push_back(Pending{src, srcSeq, std::move(fn)});
}

void
DomainMailboxes::drain(std::uint64_t key)
{
    Pool &pool = pools[key >> 32];
    auto idx = static_cast<std::uint32_t>(key);
    Batch &batch = pool.batches[idx];
    if (!batch.open || batch.msgs.empty())
        panic("mailbox drain with no pending messages");
    // Close the batch before running: a delivered callback may post
    // again (to a strictly later tick), which must open a new batch.
    // This one returns to the pool only after its last message ran.
    batch.open = false;
    // Canonical same-tick order. Arrival order depends on executor
    // interleaving; (src, srcSeq) is derivable from per-domain state
    // alone, hence identical across executors. The keys are unique,
    // so an unstable sort yields that one order.
    std::sort(batch.msgs.begin(), batch.msgs.end(),
              [](const Pending &a, const Pending &b) {
                  if (a.src != b.src)
                      return a.src < b.src;
                  return a.srcSeq < b.srcSeq;
              });
    for (Pending &p : batch.msgs)
        p.fn();
    batch.msgs.clear();
    pool.free.push_back(idx);
}

//
// SequentialDomainNet
//

SequentialDomainNet::SequentialDomainNet(EventQueue &queue,
                                         std::size_t domains,
                                         std::uint64_t rootSeed,
                                         Tick minLatency)
    : q(queue), _domains(domains), rootSeed(rootSeed),
      minLatency(minLatency), mail(domains), sendSeq(domains, 0)
{
    if (domains == 0)
        panic("SequentialDomainNet: need at least one domain");
    if (minLatency == 0)
        panic("SequentialDomainNet: lookahead must be >= 1 tick");
}

void
SequentialDomainNet::send(std::size_t src, std::size_t dst,
                          Tick deliverAt, EventQueue::Callback fn)
{
    if (src >= _domains || dst >= _domains)
        panic("send: bad domain %zu -> %zu", src, dst);
    if (deliverAt < q.now() + minLatency) {
        panic("send violates lookahead: deliver=%llu now=%llu "
              "lookahead=%llu",
              static_cast<unsigned long long>(deliverAt),
              static_cast<unsigned long long>(q.now()),
              static_cast<unsigned long long>(minLatency));
    }
    mail.post(q, dst, src, sendSeq[src]++, deliverAt, std::move(fn));
    ++sent;
}

//
// ShardedSimulation
//

namespace {

/** Final worker count: explicit or hardware, capped by shard count. */
unsigned
resolveWorkers(const ShardedSimulation::Config &cfg)
{
    unsigned want = cfg.threads != 0
                        ? cfg.threads
                        : std::max(1u,
                                   std::thread::hardware_concurrency());
    return static_cast<unsigned>(std::min<std::size_t>(
        want, std::max<std::size_t>(cfg.numDomains, 1)));
}

} // anonymous namespace

ShardedSimulation::ShardedSimulation(const Config &config)
    : cfg(config), mail(config.numDomains),
      numWorkers(resolveWorkers(config)),
      startBarrier(static_cast<std::ptrdiff_t>(numWorkers) + 1),
      endBarrier(static_cast<std::ptrdiff_t>(numWorkers) + 1)
{
    if (cfg.numDomains == 0)
        panic("ShardedSimulation: need at least one domain");
    if (cfg.lookahead == 0)
        panic("ShardedSimulation: lookahead must be >= 1 tick");
    shards.reserve(cfg.numDomains);
    for (std::size_t d = 0; d < cfg.numDomains; ++d)
        shards.push_back(std::make_unique<Shard>());
    workers.reserve(numWorkers);
    for (unsigned w = 0; w < numWorkers; ++w)
        workers.emplace_back([this, w] { workerLoop(w); });
}

ShardedSimulation::~ShardedSimulation()
{
    stopping = true;
    startBarrier.arrive_and_wait();
    for (std::thread &t : workers)
        t.join();
}

EventQueue &
ShardedSimulation::queueOf(std::size_t domain)
{
    if (domain >= shards.size())
        panic("queueOf: bad domain %zu", domain);
    return shards[domain]->queue;
}

void
ShardedSimulation::send(std::size_t src, std::size_t dst, Tick deliverAt,
                        EventQueue::Callback fn)
{
    if (src >= shards.size() || dst >= shards.size())
        panic("send: bad domain %zu -> %zu", src, dst);
    Shard &s = *shards[src];
    if (deliverAt < s.queue.now() + cfg.lookahead) {
        panic("send violates lookahead: deliver=%llu now=%llu "
              "lookahead=%llu",
              static_cast<unsigned long long>(deliverAt),
              static_cast<unsigned long long>(s.queue.now()),
              static_cast<unsigned long long>(cfg.lookahead));
    }
    // Only src's worker thread (or the coordinator between windows)
    // executes src's callbacks, so the outbox needs no lock.
    s.outbox.push_back(
        OutMsg{dst, s.sendSeq++, deliverAt, std::move(fn)});
}

void
ShardedSimulation::workerLoop(unsigned worker)
{
    for (;;) {
        startBarrier.arrive_and_wait();
        if (stopping)
            return;
        // Static round-robin shard partition. Any partition yields
        // the same results — shards are independent within a window —
        // so this only has to balance load, not order.
        for (std::size_t d = worker; d < shards.size();
             d += numWorkers) {
            shards[d]->queue.runUntil(windowEnd - 1);
        }
        endBarrier.arrive_and_wait();
    }
}

void
ShardedSimulation::mergeOutboxes()
{
    // Iterating sources in index order and each outbox in send order
    // happens to append each batch already sorted by (src, srcSeq);
    // the drain's sort yields that canonical order either way.
    for (std::size_t src = 0; src < shards.size(); ++src) {
        Shard &s = *shards[src];
        for (OutMsg &m : s.outbox) {
            mail.post(shards[m.dst]->queue, m.dst, src, m.srcSeq,
                      m.when, std::move(m.fn));
            ++sent;
        }
        s.outbox.clear();
    }
}

std::size_t
ShardedSimulation::runUntil(Tick limit)
{
    std::uint64_t firedBefore = 0;
    for (const auto &s : shards)
        firedBefore += s->queue.fired();

    for (;;) {
        // Conservative horizon: with every queue quiesced below m and
        // no undelivered messages, nothing can ever fire before m, so
        // [m, m + lookahead) is safe to run in parallel. Jumping to m
        // (not creeping by lookahead) is what keeps idle gaps free.
        Tick m = maxTick;
        for (const auto &s : shards)
            m = std::min(m, s->queue.nextEventTick());
        if (m == maxTick || m > limit)
            break;
        Tick cap = limit == maxTick ? maxTick : limit + 1;
        windowEnd = m >= maxTick - cfg.lookahead ? maxTick
                                                 : m + cfg.lookahead;
        windowEnd = std::min(windowEnd, cap);
        ++numWindows;

        startBarrier.arrive_and_wait();
        // Workers advance their shards to windowEnd - 1.
        endBarrier.arrive_and_wait();

        mergeOutboxes();
    }

    // Mirror EventQueue::runUntil: leave every clock at the limit so
    // follow-on scheduling against any shard is sane.
    if (limit != maxTick) {
        for (auto &s : shards)
            s->queue.runUntil(limit);
    }

    std::uint64_t firedAfter = 0;
    for (const auto &s : shards)
        firedAfter += s->queue.fired();
    return static_cast<std::size_t>(firedAfter - firedBefore);
}

} // namespace aqua::sim
