/**
 * @file
 * Tests of the event queue's key heap and callback slab: a randomized
 * differential test against a reference that sorts by (when, band,
 * seq), and lifetime tests of EventCallback captures.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"

using namespace aqua::sim;

namespace {

/**
 * The reference: a std::map keyed by (when, band, seq), which is the
 * queue's documented firing order, holding std::function callbacks.
 * It has the subset of EventQueue's interface the driver uses.
 */
class SortedReference
{
  public:
    EventId
    schedule(Tick when, int band, std::function<void()> cb)
    {
        std::uint64_t seq = nextSeq++;
        entries.emplace(Key{when, band, seq}, std::move(cb));
        return seq + 1;
    }

    bool
    cancel(EventId id)
    {
        for (auto it = entries.begin(); it != entries.end(); ++it) {
            if (std::get<2>(it->first) + 1 == id) {
                entries.erase(it);
                return true;
            }
        }
        return false;
    }

    bool
    step()
    {
        if (entries.empty())
            return false;
        auto it = entries.begin();
        _now = std::get<0>(it->first);
        std::function<void()> cb = std::move(it->second);
        entries.erase(it);
        cb();
        return true;
    }

    std::size_t
    runUntil(Tick limit)
    {
        std::size_t n = 0;
        while (!entries.empty() &&
               std::get<0>(entries.begin()->first) <= limit) {
            step();
            ++n;
        }
        if (_now < limit)
            _now = limit;
        return n;
    }

    Tick now() const { return _now; }
    std::size_t pending() const { return entries.size(); }

  private:
    using Key = std::tuple<Tick, int, std::uint64_t>;
    std::map<Key, std::function<void()>> entries;
    std::uint64_t nextSeq = 0;
    Tick _now = 0;
};

/**
 * One randomized program run against queue type Q. Both worlds draw
 * from the same seed, so they make the same calls for as long as they
 * fire the same events in the same order; the log records every
 * observable so the first divergence shows.
 */
template <typename Q>
class Driver
{
  public:
    explicit Driver(std::uint64_t seed) : rng(seed) {}

    std::vector<std::string>
    run()
    {
        for (int op = 0; op < 4000; ++op) {
            double roll = rng.uniform();
            if (roll < 0.5 || ids.empty()) {
                scheduleOne(0);
            } else if (roll < 0.65) {
                cancelOne();
            } else if (roll < 0.85) {
                Tick limit =
                    q.now() + static_cast<Tick>(rng.uniformInt(0, 40));
                std::size_t n = q.runUntil(limit);
                log.push_back("run " + std::to_string(n) + " now " +
                              std::to_string(q.now()));
            } else {
                bool fired = q.step();
                log.push_back(std::string("step ") +
                              (fired ? "1" : "0"));
            }
            log.push_back("pending " + std::to_string(q.pending()));
        }
        while (q.step()) {
        }
        log.push_back("end now " + std::to_string(q.now()));
        return log;
    }

  private:
    /** Schedule one event; @p depth > 0 means from inside a callback. */
    void
    scheduleOne(int depth)
    {
        // Small deltas and a few bands make same-tick ties common.
        Tick when = q.now() + static_cast<Tick>(rng.uniformInt(0, 8));
        int band = rng.bernoulli(0.2)
                       ? static_cast<int>(rng.uniformInt(-128, 127))
                       : static_cast<int>(rng.uniformInt(-1, 1));
        int label = nextLabel++;
        EventId id = q.schedule(when, band, [this, label, depth] {
            log.push_back("fire " + std::to_string(label) + " at " +
                          std::to_string(q.now()));
            // Callbacks that schedule and cancel from inside.
            if (depth < 3 && rng.bernoulli(0.3))
                scheduleOne(depth + 1);
            if (rng.bernoulli(0.1))
                cancelOne();
        });
        ids.push_back(id);
    }

    /**
     * Cancel an id ever issued: pending, fired or cancelled. Half the
     * picks come from the latest few ids, which are mostly pending.
     */
    void
    cancelOne()
    {
        if (ids.empty())
            return;
        auto n = static_cast<std::int64_t>(ids.size());
        std::int64_t lo = rng.bernoulli(0.5) ? std::max<std::int64_t>(
                                                   0, n - 8)
                                             : 0;
        EventId id =
            ids[static_cast<std::size_t>(rng.uniformInt(lo, n - 1))];
        log.push_back("cancel " + std::to_string(id) + " " +
                      (q.cancel(id) ? "1" : "0"));
    }

    Q q;
    Random rng;
    std::vector<EventId> ids;
    std::vector<std::string> log;
    int nextLabel = 0;
};

/** Capture whose owning instance counts its own destruction. */
struct Token
{
    int *destroyed;
    bool owner = true;

    explicit Token(int *d) : destroyed(d) {}
    Token(Token &&o) noexcept : destroyed(o.destroyed), owner(o.owner)
    {
        o.owner = false;
    }
    Token(const Token &) = delete;
    ~Token()
    {
        if (owner)
            ++*destroyed;
    }
};

/** A capture over the inline limit, forcing the heap fallback. */
struct BigCapture
{
    Token token;
    unsigned char pad[EventCallback::inlineBytes] = {};
};

/** unique_ptr deleter that counts deletions. */
struct CountingDelete
{
    int *deleted;
    void
    operator()(int *p) const
    {
        ++*deleted;
        delete p;
    }
};

/** What happens to a scheduled callback before its queue dies. */
enum class Fate { Fire, Cancel, LeftPending };

/**
 * Schedule @p makeCallback(&destroyed) on a fresh queue, let it meet
 * @p fate, and return how many times its capture was destroyed by the
 * time the queue is gone.
 */
template <typename MakeCallback>
int
destructionsFor(Fate fate, MakeCallback makeCallback)
{
    int destroyed = 0;
    {
        EventQueue q;
        EventId id = q.schedule(10, makeCallback(&destroyed));
        // A neighbour keeps the slab and heap busy around the slot.
        q.schedule(10, [] {});
        if (fate == Fate::Fire) {
            q.run();
            EXPECT_EQ(destroyed, 1) << "destroyed right after firing";
        } else if (fate == Fate::Cancel) {
            EXPECT_TRUE(q.cancel(id));
            q.run();
            EXPECT_EQ(destroyed, 1) << "destroyed once dropped";
        }
    }
    return destroyed;
}

} // anonymous namespace

class EventQueueSlab : public ::testing::TestWithParam<int>
{
};

TEST_P(EventQueueSlab, MatchesSortedReference)
{
    auto seed = static_cast<std::uint64_t>(GetParam());
    std::vector<std::string> expected = Driver<SortedReference>(seed).run();
    std::vector<std::string> actual = Driver<EventQueue>(seed).run();
    // The program must reach every case it is meant to mix.
    auto count = [&](const std::string &prefix, const std::string &end) {
        return std::count_if(expected.begin(), expected.end(),
                             [&](const std::string &line) {
                                 return line.rfind(prefix, 0) == 0 &&
                                        line.size() >= end.size() &&
                                        line.compare(line.size() -
                                                         end.size(),
                                                     end.size(), end) == 0;
                             });
    };
    EXPECT_GT(count("fire ", ""), 1000);
    EXPECT_GT(count("cancel ", " 1"), 50);
    EXPECT_GT(count("cancel ", " 0"), 50);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i)
        ASSERT_EQ(actual[i], expected[i]) << "diverged at log line " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueSlab,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(EventCallback, HotCapturesStayInline)
{
    struct Request
    {
        std::uint64_t a, b, c, d, e;
    };
    struct Capture72
    {
        void *self;
        std::size_t d, origin;
        Request req;
        Tick finish;
        void operator()() const {}
    };
    static_assert(sizeof(Capture72) == EventCallback::inlineBytes);
    static_assert(EventCallback::storedInline<Capture72>);
    static_assert(!EventCallback::storedInline<BigCapture>);
    static_assert(sizeof(EventCallback) == EventCallback::inlineBytes + 8);
}

TEST(EventCallback, MoveTransfersOwnership)
{
    int destroyed = 0;
    int calls = 0;
    {
        EventCallback a([t = Token(&destroyed), &calls] { ++calls; });
        EventCallback b(std::move(a));
        EXPECT_FALSE(a);
        EXPECT_TRUE(b);
        EventCallback c;
        c = std::move(b);
        c();
        EXPECT_EQ(calls, 1);
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 1);
}

TEST(EventCallback, CaptureDestroyedOnceWhateverItsFate)
{
    for (Fate fate : {Fate::Fire, Fate::Cancel, Fate::LeftPending}) {
        SCOPED_TRACE(static_cast<int>(fate));
        int fires = 0;
        // Inline capture.
        EXPECT_EQ(destructionsFor(
                      fate,
                      [&fires](int *d) {
                          return [t = Token(d), &fires] { ++fires; };
                      }),
                  1);
        // Heap fallback.
        EXPECT_EQ(destructionsFor(
                      fate,
                      [&fires](int *d) {
                          return [big = BigCapture{Token(d)}, &fires] {
                              ++fires;
                          };
                      }),
                  1);
        // Move-only capture: a unique_ptr, deleted exactly once.
        EXPECT_EQ(destructionsFor(
                      fate,
                      [&fires](int *d) {
                          std::unique_ptr<int, CountingDelete> p(
                              new int(7), CountingDelete{d});
                          return [p = std::move(p), &fires] {
                              fires += *p == 7 ? 1 : 100;
                          };
                      }),
                  1);
        EXPECT_EQ(fires, fate == Fate::Fire ? 3 : 0);
    }
}

TEST(EventCallback, SlotsAreReusedAndCallbacksFireInPlace)
{
    // A callback that schedules far more events than the slab holds
    // grows it while running from its own slot; the rest must still
    // fire, in order, each exactly once.
    EventQueue q;
    std::vector<int> order;
    q.schedule(1, [&] {
        for (int i = 0; i < 2000; ++i)
            q.schedule(2 + static_cast<Tick>(i / 3),
                       [&order, i] { order.push_back(i); });
        order.push_back(-1);
    });
    EXPECT_EQ(q.run(), 2001u);
    ASSERT_EQ(order.size(), 2001u);
    EXPECT_EQ(order.front(), -1);
    for (int i = 0; i < 2000; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i) + 1], i);
}
