/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events are callbacks scheduled at absolute ticks. Events scheduled for
 * the same tick fire in schedule order (FIFO), which makes simulations
 * reproducible regardless of heap internals. Scheduled events can be
 * cancelled through the EventId token returned at schedule time.
 *
 * Same-tick ordering can additionally be controlled through a small
 * signed *band*: at one tick, lower bands fire before higher bands,
 * and within a band schedule order still applies. Bands exist for the
 * sharded simulation's cross-domain deliveries, which must fire ahead
 * of same-tick local events in an order that does not depend on when
 * the delivery was enqueued (see sharded_sim.hh).
 *
 * Layout: the heap holds 24-byte keys (when, band and sequence, slab
 * slot); the callbacks live in a paged slab with a free list, so heap
 * sifts never touch them and a callback fires in place, from its slot.
 * A callback is an EventCallback, a move-only callable that stores
 * captures of up to 72 bytes inline. Cost per event therefore does not
 * grow with capture size, only (logarithmically) with pending events.
 */

#ifndef AQUA_SIM_EVENT_QUEUE_HH
#define AQUA_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_callback.hh"
#include "sim/ticks.hh"

namespace aqua::sim {

/** Opaque handle identifying a scheduled event, usable for cancellation. */
using EventId = std::uint64_t;

/** Sentinel EventId meaning "no event". */
constexpr EventId invalidEventId = 0;

/**
 * Priority queue of timed callbacks with a simulated clock.
 *
 * The queue owns the notion of "now": the timestamp of the event that is
 * currently firing (or the last one that fired). Scheduling in the past
 * is a programming error and panics.
 */
class EventQueue
{
  public:
    using Callback = EventCallback;

    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Pre-size the heap, slab and cancellation table for @p events. */
    void reserve(std::size_t events);

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when Absolute simulated time; must be >= now().
     * @param cb Callback to fire.
     * @return Token that can be passed to cancel().
     */
    EventId schedule(Tick when, Callback cb);

    /**
     * Schedule into an explicit same-tick band.
     *
     * At equal ticks, all band-b events fire before any band-(b+1)
     * events regardless of schedule order; FIFO applies within a
     * band. Plain schedule() uses band 0. Bands span [-128, 127].
     */
    EventId schedule(Tick when, int band, Callback cb);

    /** Schedule a callback @p delay ticks after now(). */
    EventId scheduleAfter(Tick delay, Callback cb);

    /**
     * Cancel a previously scheduled event.
     *
     * @retval true The event was pending and has been cancelled.
     * @retval false The event already fired or was already cancelled.
     */
    bool cancel(EventId id);

    /** Whether any events remain pending. */
    bool empty() const { return numPending == 0; }

    /** Number of pending (not cancelled) events. */
    std::size_t pending() const { return numPending; }

    /**
     * Timestamp of the earliest pending event, or maxTick when the
     * queue is empty. Used by the sharded executor to size its
     * synchronization windows without firing anything.
     */
    Tick nextEventTick();

    /**
     * Run events until the queue drains.
     *
     * @return Number of events fired.
     */
    std::size_t run();

    /**
     * Run events with timestamps <= @p limit; afterwards now() == limit
     * (unless the queue drained at an earlier time, in which case now()
     * is still advanced to @p limit so follow-on scheduling is sane).
     *
     * @return Number of events fired.
     */
    std::size_t runUntil(Tick limit);

    /** Fire exactly one event if one is pending. @return true if fired. */
    bool step();

    /** Total events fired over the queue's lifetime. */
    std::uint64_t fired() const { return numFired; }

  private:
    /**
     * One heap entry: 24 bytes, so sifts move no callback.
     * order = (band + 128) << bandShift | seq compares as (band, seq),
     * and the EventId is seq + 1.
     */
    struct Key
    {
        Tick when;
        std::uint64_t order;
        std::uint32_t slot;
    };

    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.order > b.order;
        }
    };

    static constexpr unsigned bandShift = 56;
    static constexpr std::uint64_t seqMask =
        (std::uint64_t(1) << bandShift) - 1;
    /** Slots per slab page (20 KB pages of 80-byte callbacks). */
    static constexpr std::size_t pageSlots = 256;

    static EventId idOf(const Key &k) { return (k.order & seqMask) + 1; }

    EventCallback &
    slotRef(std::uint32_t slot)
    {
        return pages[slot / pageSlots][slot % pageSlots];
    }

    /** A free slab slot, growing the slab by a page when none is. */
    std::uint32_t acquireSlot();

    /** Destroy a slot's callback and return the slot to the free list. */
    void
    releaseSlot(std::uint32_t slot)
    {
        slotRef(slot).reset();
        freeSlots.push_back(slot);
    }

    /** Drop cancelled entries off the heap top. */
    void skipCancelled();

    /** Remove and return the earliest key (heap must be non-empty). */
    Key popTop();

    Tick _now = 0;
    std::uint64_t nextSeq = 0;
    std::size_t numPending = 0;
    std::uint64_t numFired = 0;
    /**
     * Binary min-heap of keys, kept by std::push_heap / std::pop_heap
     * over a plain vector so it can be reserved up front.
     */
    std::vector<Key> heap;
    /**
     * Callback slab. Pages never move, so growth copies no live
     * callback and a firing callback may schedule (and so grow the
     * slab) while it runs in place. Free slots hold empty callbacks.
     */
    std::vector<std::unique_ptr<EventCallback[]>> pages;
    std::uint32_t slotsUsed = 0;
    std::vector<std::uint32_t> freeSlots;
    /** Ids cancelled while still on the heap, or already fired. */
    std::vector<bool> cancelled;
};

} // namespace aqua::sim

#endif // AQUA_SIM_EVENT_QUEUE_HH
