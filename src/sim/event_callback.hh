/**
 * @file
 * Move-only callable with inline storage: the EventQueue callback.
 *
 * std::function must be copyable, and it heap-allocates any capture
 * larger than two pointers. Event callbacks are scheduled once, fired
 * once and never copied, and the simulator's hot captures (a model
 * pointer, a few indices and a request record) fit in inlineBytes. So
 * the capture is constructed straight into an inline buffer; only
 * captures that are larger, over-aligned or may throw on move fall
 * back to the heap.
 */

#ifndef AQUA_SIM_EVENT_CALLBACK_HH
#define AQUA_SIM_EVENT_CALLBACK_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace aqua::sim {

/** A move-only void() callable, stored inline when it fits. */
class EventCallback
{
  public:
    /**
     * Largest capture stored inline. Sized for the largest hot capture,
     * ClusterSim's completion and remote-lookup reply lambdas (72 B).
     */
    static constexpr std::size_t inlineBytes = 72;

    /** Whether a callable of type @p F is stored inline. */
    template <typename F>
    static constexpr bool storedInline =
        sizeof(F) <= inlineBytes && alignof(F) <= alignof(void *) &&
        std::is_nothrow_move_constructible_v<F>;

    EventCallback() noexcept = default;

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, EventCallback> &&
                  std::is_invocable_r_v<void, D &>>>
    EventCallback(F &&f) // NOLINT: implicit, like std::function
    {
        if constexpr (storedInline<D>) {
            ::new (static_cast<void *>(buf)) D(std::forward<F>(f));
            ops = &inlineOps<D>;
        } else {
            D *p = new D(std::forward<F>(f));
            std::memcpy(buf, &p, sizeof p);
            ops = &heapOps<D>;
        }
    }

    EventCallback(EventCallback &&other) noexcept { take(other); }

    EventCallback &
    operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    /** Destroy the held callable, leaving this empty. */
    void
    reset() noexcept
    {
        if (ops && ops->destroy)
            ops->destroy(buf);
        ops = nullptr;
    }

    explicit operator bool() const noexcept { return ops != nullptr; }

    /** Invoke the held callable; must not be empty. */
    void operator()() { ops->invoke(buf); }

  private:
    /**
     * Per-type operations. Null relocate/destroy mean the inline
     * object is trivially copyable and destructible: a move is a
     * memcpy of the buffer and destruction is a no-op.
     */
    struct Ops
    {
        void (*invoke)(void *);
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename D>
    static constexpr bool trivialInline =
        std::is_trivially_copyable_v<D> &&
        std::is_trivially_destructible_v<D>;

    template <typename D>
    static constexpr Ops inlineOps{
        [](void *p) { (*static_cast<D *>(p))(); },
        trivialInline<D>
            ? nullptr
            : +[](void *dst, void *src) noexcept {
                  D *s = static_cast<D *>(src);
                  ::new (dst) D(std::move(*s));
                  s->~D();
              },
        trivialInline<D>
            ? nullptr
            : +[](void *p) noexcept { static_cast<D *>(p)->~D(); },
    };

    template <typename D>
    static D *
    heapObject(void *p)
    {
        D *obj;
        std::memcpy(&obj, p, sizeof obj);
        return obj;
    }

    /** Heap fallback: the buffer holds a D*, which moves as bytes. */
    template <typename D>
    static constexpr Ops heapOps{
        [](void *p) { (*heapObject<D>(p))(); },
        nullptr,
        [](void *p) noexcept { delete heapObject<D>(p); },
    };

    void
    take(EventCallback &other) noexcept
    {
        ops = other.ops;
        if (!ops)
            return;
        if (ops->relocate)
            ops->relocate(buf, other.buf);
        else
            std::memcpy(buf, other.buf, inlineBytes);
        other.ops = nullptr;
    }

    alignas(void *) unsigned char buf[inlineBytes];
    const Ops *ops = nullptr;
};

} // namespace aqua::sim

#endif // AQUA_SIM_EVENT_CALLBACK_HH
