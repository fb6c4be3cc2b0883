#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace aqua::sim {

namespace {

/** Amortizes early growth; simulations schedule far more than this. */
constexpr std::size_t kInitialReserve = 1024;

} // anonymous namespace

EventQueue::EventQueue()
{
    heap.reserve(kInitialReserve);
    cancelled.reserve(kInitialReserve);
}

void
EventQueue::reserve(std::size_t events)
{
    heap.reserve(events);
    freeSlots.reserve(events);
    cancelled.reserve(events);
    pages.reserve((events + pageSlots - 1) / pageSlots);
}

EventId
EventQueue::schedule(Tick when, Callback cb)
{
    return schedule(when, 0, std::move(cb));
}

EventId
EventQueue::schedule(Tick when, int band, Callback cb)
{
    if (when < _now) {
        panic("scheduling event in the past: when=%llu now=%llu",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_now));
    }
    if (band < -128 || band > 127)
        panic("event band %d outside [-128, 127]", band);
    if (!cb)
        panic("scheduling an empty callback");
    std::uint64_t seq = nextSeq++;
    if (seq > seqMask)
        panic("event sequence space exhausted");
    EventId id = seq + 1;
    if (cancelled.size() <= id) {
        // Grow geometrically: ids are dense, so a one-past resize per
        // schedule would reallocate the table on every call.
        cancelled.resize(std::max<std::size_t>(id + 1,
                                               cancelled.size() * 2),
                         false);
    }
    std::uint32_t slot = acquireSlot();
    slotRef(slot) = std::move(cb);
    std::uint64_t order =
        static_cast<std::uint64_t>(band + 128) << bandShift | seq;
    heap.push_back(Key{when, order, slot});
    std::push_heap(heap.begin(), heap.end(), Later{});
    ++numPending;
    return id;
}

EventId
EventQueue::scheduleAfter(Tick delay, Callback cb)
{
    return schedule(_now + delay, std::move(cb));
}

bool
EventQueue::cancel(EventId id)
{
    if (id == invalidEventId || id >= cancelled.size() || cancelled[id])
        return false;
    // We cannot remove from the middle of a binary heap; mark the id and
    // drop the entry (and its callback) lazily when it reaches the top.
    cancelled[id] = true;
    if (numPending == 0)
        return false;
    --numPending;
    return true;
}

std::uint32_t
EventQueue::acquireSlot()
{
    if (!freeSlots.empty()) {
        std::uint32_t slot = freeSlots.back();
        freeSlots.pop_back();
        return slot;
    }
    if (slotsUsed % pageSlots == 0)
        pages.push_back(std::make_unique<EventCallback[]>(pageSlots));
    return slotsUsed++;
}

EventQueue::Key
EventQueue::popTop()
{
    std::pop_heap(heap.begin(), heap.end(), Later{});
    Key top = heap.back();
    heap.pop_back();
    return top;
}

void
EventQueue::skipCancelled()
{
    while (!heap.empty() && cancelled[idOf(heap.front())])
        releaseSlot(popTop().slot);
}

Tick
EventQueue::nextEventTick()
{
    skipCancelled();
    return heap.empty() ? maxTick : heap.front().when;
}

bool
EventQueue::step()
{
    skipCancelled();
    if (heap.empty())
        return false;
    Key top = popTop();
    _now = top.when;
    --numPending;
    ++numFired;
    // Mark fired so a late cancel() of this id is a no-op.
    cancelled[idOf(top)] = true;
    // Fire in place. The slot stays taken while the callback runs, so
    // whatever it schedules lands elsewhere; it is freed afterwards,
    // also if the callback throws.
    struct Release
    {
        EventQueue &q;
        std::uint32_t slot;
        ~Release() { q.releaseSlot(slot); }
    } release{*this, top.slot};
    slotRef(top.slot)();
    return true;
}

std::size_t
EventQueue::run()
{
    std::size_t count = 0;
    while (step())
        ++count;
    return count;
}

std::size_t
EventQueue::runUntil(Tick limit)
{
    std::size_t count = 0;
    for (;;) {
        skipCancelled();
        if (heap.empty() || heap.front().when > limit)
            break;
        step();
        ++count;
    }
    if (_now < limit)
        _now = limit;
    return count;
}

} // namespace aqua::sim
