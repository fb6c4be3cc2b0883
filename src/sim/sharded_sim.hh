/**
 * @file
 * Sharded discrete-event simulation with conservative-lookahead
 * synchronization, plus its sequential twin.
 *
 * Aqua's cluster experiments shard naturally by NVLink domain: almost
 * all events are domain-local (that is the paper's point), and the
 * rare inter-server interactions ride links whose latency floor L is
 * orders of magnitude above a tick. The executor exploits exactly
 * that: each domain owns a private EventQueue advanced by a worker
 * thread, and domains synchronize through a windowed conservative
 * protocol — if every domain has processed all events before tick T,
 * then no message can arrive before T + L, so every shard may safely
 * fire its events in [T, T + L) in parallel.
 *
 * Cross-domain interaction is a *timestamped send*: the sender names
 * a delivery tick at least lookahead() in its future, and the message
 * lands in the destination domain's queue. Delivery is canonical so
 * the parallel run is bit-equal to the sequential one:
 *
 *  - all deliveries for one tick fire in a reserved band *before*
 *    any same-tick local events of the destination (EventQueue band
 *    deliveryBand), so delivery order cannot depend on when the
 *    message was enqueued relative to local scheduling; and
 *  - same-tick deliveries fire ordered by (source domain, per-source
 *    send sequence) — a key both executors can compute, unlike
 *    arrival order, which depends on thread interleaving.
 *
 * SequentialDomainNet implements the same contract on one shared
 * EventQueue. Model code written against DomainNet runs unmodified on
 * either executor; the differential equivalence harness
 * (tests/test_sharded_sim.cc, bench/abl_sharded_sim.cc) runs both and
 * asserts identical per-domain event sequences and end-state stats.
 */

#ifndef AQUA_SIM_SHARDED_SIM_HH
#define AQUA_SIM_SHARDED_SIM_HH

#include <barrier>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/ticks.hh"

namespace aqua::sim {

/** Band cross-domain deliveries fire in: before same-tick locals. */
constexpr int deliveryBand = -1;

/**
 * The surface a multi-domain model runs against: per-domain queues,
 * structurally-keyed randomness, and timestamped cross-domain sends.
 */
class DomainNet
{
  public:
    virtual ~DomainNet() = default;

    /** Number of NVLink domains (shards). */
    virtual std::size_t numDomains() const = 0;

    /**
     * The event queue domain @p domain schedules its local events on.
     * In the sharded executor every domain has its own queue; in the
     * sequential twin all domains share one.
     */
    virtual EventQueue &queueOf(std::size_t domain) = 0;

    /**
     * Deliver @p fn into domain @p dst at tick @p deliverAt.
     *
     * Must be called from @p src's execution context (a callback
     * running on src's queue), and @p deliverAt must be at least
     * lookahead() after src's current time — the conservative
     * contract that lets shards run a full window unsynchronized.
     * Violations panic.
     */
    virtual void send(std::size_t src, std::size_t dst, Tick deliverAt,
                      EventQueue::Callback fn) = 0;

    /** Minimum cross-domain latency (the inter-server link floor). */
    virtual Tick lookahead() const = 0;

    /** Root seed of this simulated world. */
    virtual std::uint64_t seed() const = 0;

    /**
     * Deterministic per-domain random stream: identical for both
     * executors, independent of construction order elsewhere.
     */
    Random
    domainRandom(std::size_t domain, std::uint32_t stream) const
    {
        return domainStream(seed(),
                            static_cast<std::uint32_t>(domain),
                            stream);
    }
};

/**
 * Canonically-ordered cross-domain mailboxes, shared by both
 * executors so delivery semantics cannot drift apart.
 *
 * Messages accumulate per (destination, delivery tick) in a batch; the
 * first message for a tick schedules one deliveryBand drain event,
 * which sorts the batch by (source domain, source sequence) and runs
 * it. Batches come from a per-destination pool and go back to it
 * (storage and all) once drained, so steady-state traffic allocates
 * nothing. Each destination's pool is touched only by that
 * destination's drains and by post(), which the sharded executor
 * calls between windows only; so different destinations may drain on
 * different threads.
 */
class DomainMailboxes
{
  public:
    explicit DomainMailboxes(std::size_t numDomains);

    /**
     * Enqueue a message and make sure a drain is scheduled on
     * @p dstQueue at @p when. Caller guarantees when > dstQueue.now().
     */
    void post(EventQueue &dstQueue, std::size_t dst, std::size_t src,
              std::uint64_t srcSeq, Tick when,
              EventQueue::Callback fn);

  private:
    struct Pending
    {
        std::size_t src;
        std::uint64_t srcSeq;
        EventQueue::Callback fn;
    };

    struct Batch
    {
        Tick when = 0;
        /** Whether the batch still takes posts; its drain closes it. */
        bool open = false;
        std::vector<Pending> msgs;
    };

    /** One destination's batches. */
    struct Pool
    {
        /** Every batch ever opened; a deque so a batch being drained
         *  stays put while its callbacks open new ones. */
        std::deque<Batch> batches;
        /** Indices of drained batches, ready for reuse. */
        std::vector<std::uint32_t> free;
        /** Latest tick any batch was opened for, and that batch. */
        Tick newest = 0;
        std::uint32_t newestIdx = 0;
    };

    /**
     * The open batch of @p pool for @p when, or -1. O(1) when ticks
     * are posted in order, as a shared queue posts them; otherwise a
     * scan of the destination's pool.
     */
    static std::int64_t findOpen(const Pool &pool, Tick when);

    /** @p key is dst << 32 | batch index. */
    void drain(std::uint64_t key);

    std::vector<Pool> pools;
};

/**
 * The sequential twin: every domain shares one EventQueue, and sends
 * go through the same canonical mailbox discipline the sharded
 * executor uses. This is the reference side of the differential
 * harness — and what legacy single-queue experiments already are.
 */
class SequentialDomainNet : public DomainNet
{
  public:
    /**
     * @param queue The one shared queue (externally owned).
     * @param domains Domain count.
     * @param rootSeed World seed (for domainRandom()).
     * @param minLatency Cross-domain latency floor in ticks (>= 1).
     */
    SequentialDomainNet(EventQueue &queue, std::size_t domains,
                        std::uint64_t rootSeed, Tick minLatency);

    std::size_t numDomains() const override { return _domains; }
    EventQueue &queueOf(std::size_t) override { return q; }
    void send(std::size_t src, std::size_t dst, Tick deliverAt,
              EventQueue::Callback fn) override;
    Tick lookahead() const override { return minLatency; }
    std::uint64_t seed() const override { return rootSeed; }

    /** Total cross-domain messages sent. */
    std::uint64_t crossMessages() const { return sent; }

  private:
    EventQueue &q;
    std::size_t _domains;
    std::uint64_t rootSeed;
    Tick minLatency;
    DomainMailboxes mail;
    /** Per-source send sequence: the canonical same-tick tiebreak. */
    std::vector<std::uint64_t> sendSeq;
    std::uint64_t sent = 0;
};

/**
 * The sharded executor: one EventQueue per domain, advanced by a pool
 * of worker threads in conservative windows of lookahead() ticks.
 *
 * Results are bit-identical to SequentialDomainNet for any model that
 * (a) keeps domain state private to its domain's events, (b) draws
 * randomness only through domainRandom(), and (c) interacts across
 * domains only through send(). Identical for any worker count too —
 * shards are data-independent within a window, so the thread
 * partition cannot affect outcomes, only wall time.
 */
class ShardedSimulation : public DomainNet
{
  public:
    struct Config
    {
        std::size_t numDomains = 1;
        std::uint64_t seed = 1;
        /** Conservative window; the inter-server latency floor. */
        Tick lookahead = usToTicks(1.0);
        /** Worker threads; 0 = min(domains, hardware). */
        unsigned threads = 0;
    };

    explicit ShardedSimulation(const Config &config);
    ~ShardedSimulation() override;

    ShardedSimulation(const ShardedSimulation &) = delete;
    ShardedSimulation &operator=(const ShardedSimulation &) = delete;

    std::size_t numDomains() const override { return shards.size(); }
    EventQueue &queueOf(std::size_t domain) override;
    void send(std::size_t src, std::size_t dst, Tick deliverAt,
              EventQueue::Callback fn) override;
    Tick lookahead() const override { return cfg.lookahead; }
    std::uint64_t seed() const override { return cfg.seed; }

    /**
     * Run all shards until every queue drains (or past @p limit).
     * Must be called from the owning (coordinator) thread.
     *
     * @return Events fired across all shards by this call.
     */
    std::size_t run() { return runUntil(maxTick); }
    std::size_t runUntil(Tick limit);

    /** Synchronization windows executed so far. */
    std::uint64_t windows() const { return numWindows; }

    /** Cross-domain messages merged so far. */
    std::uint64_t crossMessages() const { return sent; }

    /** Worker threads actually used. */
    unsigned threadsUsed() const { return numWorkers; }

  private:
    struct OutMsg
    {
        std::size_t dst;
        std::uint64_t srcSeq;
        Tick when;
        EventQueue::Callback fn;
    };

    /**
     * One domain's private world. Only its worker thread touches the
     * queue and outbox during a window; the coordinator touches them
     * only between windows.
     */
    struct Shard
    {
        EventQueue queue;
        std::vector<OutMsg> outbox;
        std::uint64_t sendSeq = 0;
    };

    void workerLoop(unsigned worker);
    /** Merge every shard's outbox into the mailboxes, in canonical
     *  (src, srcSeq) order. Coordinator only, between windows. */
    void mergeOutboxes();

    Config cfg;
    std::vector<std::unique_ptr<Shard>> shards;
    DomainMailboxes mail;

    unsigned numWorkers = 0;
    std::vector<std::thread> workers;
    /** Two phases per window: start (coordinator -> workers, window
     *  bounds published) and end (workers -> coordinator, all shards
     *  quiesced). */
    std::barrier<> startBarrier;
    std::barrier<> endBarrier;
    /** Exclusive upper bound of the current window; set by the
     *  coordinator before the start barrier. */
    Tick windowEnd = 0;
    bool stopping = false;

    std::uint64_t numWindows = 0;
    std::uint64_t sent = 0;
};

} // namespace aqua::sim

#endif // AQUA_SIM_SHARDED_SIM_HH
