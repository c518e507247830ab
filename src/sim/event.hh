/**
 * @file
 * Minimal discrete-event simulation kernel. Components schedule callbacks
 * at absolute ticks; the queue dispatches them in (tick, insertion-order)
 * order, which makes simulations deterministic for a given seed.
 */

#ifndef VMP_SIM_EVENT_HH
#define VMP_SIM_EVENT_HH

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace vmp
{

/** Handle identifying a scheduled event so it can be descheduled. */
struct EventId
{
    Tick when = maxTick;
    std::uint64_t seq = 0;
    /** Callback slot the event occupied when it was scheduled. */
    std::uint32_t slot = 0;

    bool valid() const { return when != maxTick; }
    void invalidate() { when = maxTick; }
};

/**
 * Pass a continuation through unchanged, checking at compile time that
 * std::function stores it in place instead of on the heap: libstdc++
 * keeps a callable inline when it is trivially copyable and at most 16
 * bytes, i.e. `this` plus one small value. Wrap every continuation of
 * an allocation-free path in it where it is scheduled or handed on.
 */
template <class F>
constexpr F &&
smallCapture(F &&fn)
{
    using Fn = std::decay_t<F>;
    static_assert(std::is_trivially_copyable_v<Fn> && sizeof(Fn) <= 16,
                  "continuation must capture at most `this` plus one "
                  "small trivially copyable value");
    return std::forward<F>(fn);
}

/**
 * Discrete-event queue. Not thread-safe: the whole simulator is single
 * threaded by design (the modelled concurrency lives in simulated time).
 *
 * Pending events live in a binary min-heap of (tick, seq, slot) keys
 * ordered by (tick, seq); their callbacks live in a slab of reusable
 * slots. Neither structure allocates once it has grown to the
 * simulation's peak number of pending events. Cancelling an event frees
 * its slot at once and leaves its heap key behind; dispatch skips keys
 * whose slot no longer carries the same seq.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Number of pending (scheduled, not yet run or cancelled) events. */
    std::size_t pending() const { return slots_.size() - free_.size(); }

    /** Total number of events dispatched so far. */
    std::uint64_t dispatched() const { return dispatched_; }

    /**
     * Schedule @p cb at absolute time @p when (>= now). Returns a handle
     * usable with deschedule(). @p name only labels panic messages.
     */
    EventId schedule(Tick when, Callback cb, const char *name = "");

    /** Schedule @p cb @p delta ticks from now. */
    EventId
    scheduleIn(Tick delta, Callback cb, const char *name = "")
    {
        return schedule(now_ + delta, std::move(cb), name);
    }

    /**
     * Remove a previously scheduled event. Returns true if the event was
     * still pending (and is now cancelled), false if it already ran, was
     * already cancelled or the id is invalid. Always invalidates @p id.
     */
    bool deschedule(EventId &id);

    /**
     * Run events until the queue is empty or @p limit is reached.
     * @return the tick at which the run stopped.
     */
    Tick run(Tick limit = maxTick);

    /** Dispatch exactly one event if any is pending. */
    bool step();

    /** Drop all pending events and reset time to zero. */
    void reset();

  private:
    /** Heap key of one scheduled event. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    struct Slot
    {
        Callback cb;
        /** Seq of the event holding the slot; freeSeq when free. */
        std::uint64_t seq;
    };

    static constexpr std::uint64_t freeSeq = ~std::uint64_t{0};

    /** std's max-heap over "later" keeps the earliest key on top. */
    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    /** False once the key's event ran or was cancelled. */
    bool live(const Key &key) const { return slots_[key.slot].seq == key.seq; }
    /** Live event at the top of the heap (stale keys dropped), or null. */
    const Key *head();
    void popHeap();
    void release(std::uint32_t slot);

    Tick now_ = 0;
    /**
     * Never reset, so a handle from before reset() cannot match an
     * event scheduled after it.
     */
    std::uint64_t nextSeq_ = 0;
    std::uint64_t dispatched_ = 0;
    std::vector<Key> heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_;
};

} // namespace vmp

#endif // VMP_SIM_EVENT_HH
