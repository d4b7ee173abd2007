/**
 * @file
 * Move-only callable storage for the event slab.
 *
 * std::function is the natural type for event callbacks, but it pays an
 * indirect "manager" call on every move and destruction — and the event
 * kernel moves each callback at least twice (into the slab, back out at
 * dispatch). Most hot callbacks in the simulator are small trivially
 * copyable lambdas ([this] plus a few scalars), for which EventFn stores
 * the closure inline and moves it with a plain memcpy: no manager, no
 * allocation, one indirect call at invocation only.
 *
 * Small move-only closures — a network hop capturing [this, MessagePtr] —
 * are stored inline too, with a manager that relocates and destroys them.
 * That is how an event owns what it captures: destroying an EventFn
 * (queue teardown, cancel, a dropped cross-shard channel) destroys the
 * closure and frees, say, the in-flight message it holds.
 *
 * Callables that are too big or cannot be moved without throwing (e.g. a
 * std::function passed through from a miss path) fall back to a heap box.
 */

#ifndef SBULK_SIM_EVENT_FN_HH
#define SBULK_SIM_EVENT_FN_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace sbulk
{

/** See file comment: a lean move-only stand-in for std::function<void()>. */
class EventFn
{
  public:
    /** Covers [this + three scalars] and [this, MessagePtr] captures
     *  inline. */
    static constexpr std::size_t kInlineBytes = 24;

    EventFn() = default;
    EventFn(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                  std::is_invocable_r_v<void, std::decay_t<F>&>>>
    EventFn(F&& f)
    {
        construct(std::forward<F>(f));
    }

    EventFn(EventFn&& other) noexcept { moveFrom(other); }

    EventFn&
    operator=(EventFn&& other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventFn&
    operator=(std::nullptr_t)
    {
        reset();
        return *this;
    }

    EventFn(const EventFn&) = delete;
    EventFn& operator=(const EventFn&) = delete;

    ~EventFn() { reset(); }

    explicit operator bool() const { return _invoke != nullptr; }

    void operator()() { _invoke(_store); }

  private:
    using Invoke = void (*)(void*);
    /** Relocate the closure at @p from into @p to (move-construct, then
     *  destroy the source), or destroy it in place when @p to is null. */
    using Manage = void (*)(void* from, void* to);

    template <typename F>
    void
    construct(F&& f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void*>(_store)) Fn(std::forward<F>(f));
            _invoke = [](void* p) { (*static_cast<Fn*>(p))(); };
            if constexpr (std::is_trivially_copyable_v<Fn> &&
                          std::is_trivially_destructible_v<Fn>) {
                // moveFrom copies the whole buffer; defined-initialize
                // the tail so that copy never reads indeterminate bytes.
                if constexpr (sizeof(Fn) < kInlineBytes)
                    std::memset(_store + sizeof(Fn), 0,
                                kInlineBytes - sizeof(Fn));
                _manage = nullptr;
            } else {
                _manage = [](void* from, void* to) {
                    Fn* src = static_cast<Fn*>(from);
                    if (to)
                        ::new (to) Fn(std::move(*src));
                    src->~Fn();
                };
            }
        } else {
            // The one owning raw new in the tree: the pointer is erased
            // into the inline buffer, so no smart pointer can hold it.
            // _manage is its deleter; ASan guards the pairing.
            // NOLINTNEXTLINE(cppcoreguidelines-owning-memory)
            Fn* heap = new Fn(std::forward<F>(f));
            std::memcpy(_store, &heap, sizeof(heap));
            _invoke = [](void* p) {
                Fn* fn;
                std::memcpy(&fn, p, sizeof(fn));
                (*fn)();
            };
            _manage = [](void* from, void* to) {
                if (to) {
                    std::memcpy(to, from, sizeof(Fn*));
                    return;
                }
                Fn* fn;
                std::memcpy(&fn, from, sizeof(fn));
                // NOLINTNEXTLINE(cppcoreguidelines-owning-memory)
                delete fn;
            };
        }
    }

    void
    moveFrom(EventFn& other)
    {
        _invoke = other._invoke;
        _manage = other._manage;
        // Trivially copyable closures (and the empty state) move as bytes.
        if (_manage)
            _manage(other._store, _store);
        else
            std::memcpy(_store, other._store, kInlineBytes);
        other._invoke = nullptr;
        other._manage = nullptr;
    }

    void
    reset()
    {
        if (_manage)
            _manage(_store, nullptr);
        _invoke = nullptr;
        _manage = nullptr;
    }

    Invoke _invoke = nullptr;
    Manage _manage = nullptr;
    alignas(std::max_align_t) unsigned char _store[kInlineBytes];
};

} // namespace sbulk

#endif // SBULK_SIM_EVENT_FN_HH
