/**
 * @file
 * Minimal discrete-event simulation kernel. Components schedule callbacks
 * at absolute ticks; the queue dispatches them in (tick, insertion-order)
 * order, which makes simulations deterministic for a given seed.
 */

#ifndef VMP_SIM_EVENT_HH
#define VMP_SIM_EVENT_HH

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inline_fn.hh"
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
 * InlineFn stores it in place instead of boxing it on the heap: it must
 * be trivially copyable and at most inlineFnCapacity bytes, i.e. `this`
 * plus a small value or two. Wrap every continuation of an
 * allocation-free path in it where it is scheduled or handed on. The
 * event queue's Callback, proto::CacheController::AccessDone,
 * mem::VmeBus::Completion and mem::BlockCopier::Done are InlineFns. A
 * few miss-path sites still hand a continuation to a std::function
 * (the controller's Done, proto::TranslateDone); those capture `this`
 * plus one 32-bit index, which libstdc++ also keeps in place.
 */
template <class F>
constexpr F &&
smallCapture(F &&fn)
{
    static_assert(fitsInline<std::decay_t<F>>,
                  "continuation must capture at most `this` plus small "
                  "trivially copyable values");
    return std::forward<F>(fn);
}

/**
 * Discrete-event queue. Not thread-safe: the whole simulator is single
 * threaded by design (the modelled concurrency lives in simulated time).
 *
 * Pending events live in a binary min-heap of 16-byte (tick, order)
 * keys, where order packs the event's insertion seq above its callback
 * slot (`seq << 24 | slot`), so keys sort by (tick, seq). Callbacks are
 * InlineFns in a slab of reusable slots. Neither structure allocates
 * once it has grown to the simulation's peak number of pending events.
 * Cancelling an event frees its slot at once and leaves its heap key
 * behind; dispatch skips keys whose slot no longer carries the same
 * order. The packing bounds a queue to 2^24 pending events and 2^40
 * schedules over its lifetime; schedule() panics rather than wrap.
 */
class EventQueue
{
  public:
    using Callback = InlineFn<void()>;

    /** Bits of a key's order that hold the callback slot. */
    static constexpr unsigned slotBits = 24;
    /** Most events that may be pending at once. */
    static constexpr std::uint64_t maxSlots = std::uint64_t{1} << slotBits;
    /** Most events a queue may schedule over its lifetime. */
    static constexpr std::uint64_t maxSeqs = std::uint64_t{1}
                                             << (64 - slotBits);

    /**
     * Heap-key order of event @p seq in callback slot @p slot:
     * `seq << slotBits | slot`. Panics if either is past its bound.
     */
    static std::uint64_t
    packOrder(std::uint64_t seq, std::uint64_t slot)
    {
        if (seq >= maxSeqs || slot >= maxSlots)
            packingExhausted(seq, slot);
        return seq << slotBits | slot;
    }

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
    EventId
    schedule(Tick when, Callback cb, const char *name = "")
    {
        if (when < now_ || !cb)
            badSchedule(when, static_cast<bool>(cb), name);
        std::uint32_t slot;
        if (free_.empty()) {
            slot = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
        } else {
            slot = free_.back();
            free_.pop_back();
        }
        const std::uint64_t seq = nextSeq_++;
        const std::uint64_t order = packOrder(seq, slot);
        Slot &s = slots_[slot];
        s.cb = std::move(cb);
        s.order = order;
        push(Key{when, order});
        return EventId{when, seq, slot};
    }

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
    Tick
    run(Tick limit = maxTick)
    {
        for (const Key *top = head(); top != nullptr && top->when <= limit;
             top = head())
            dispatchHead();
        if (now_ < limit && limit != maxTick)
            now_ = limit;
        return now_;
    }

    /** Dispatch exactly one event if any is pending. */
    bool
    step()
    {
        if (head() == nullptr)
            return false;
        dispatchHead();
        return true;
    }

    /** Drop all pending events and reset time to zero. */
    void reset();

  private:
    /** Heap key of one scheduled event: `order` is `seq << 24 | slot`. */
    struct Key
    {
        Tick when;
        std::uint64_t order;

        std::uint32_t
        slot() const
        {
            return static_cast<std::uint32_t>(order & (maxSlots - 1));
        }
    };

    struct Slot
    {
        Callback cb;
        /** Order of the event holding the slot; freeOrder when free. */
        std::uint64_t order = freeOrder;
    };

    static constexpr std::uint64_t freeOrder = ~std::uint64_t{0};

    static bool
    earlier(const Key &a, const Key &b)
    {
        return a.when != b.when ? a.when < b.when : a.order < b.order;
    }

    /** False once the key's event ran or was cancelled. */
    bool live(const Key &key) const
    {
        return slots_[key.slot()].order == key.order;
    }

    /** Live event at the top of the heap (stale keys dropped), or null. */
    const Key *
    head()
    {
        while (!heap_.empty() && !live(heap_.front()))
            pop();
        return heap_.empty() ? nullptr : &heap_.front();
    }

    /** Run the event at the top of the heap, which must be live. */
    void
    dispatchHead()
    {
        const Key key = heap_.front();
        pop();
        now_ = key.when;
        // Move the callback out and free the slot before running it so
        // the callback may freely schedule or deschedule other events
        // (including itself), which can reuse or grow the slab. The
        // move leaves the slot's callback empty.
        const std::uint32_t slot = key.slot();
        const Callback cb = std::move(slots_[slot].cb);
        slots_[slot].order = freeOrder;
        free_.push_back(slot);
        ++dispatched_;
        cb();
    }

    /** Add @p key, moving the hole up from the new leaf. */
    void
    push(const Key &key)
    {
        std::size_t hole = heap_.size();
        heap_.push_back(key);
        while (hole > 0) {
            const std::size_t parent = (hole - 1) / 2;
            if (!earlier(key, heap_[parent]))
                break;
            heap_[hole] = heap_[parent];
            hole = parent;
        }
        heap_[hole] = key;
    }

    /** Remove the top key, moving the hole down from the root. */
    void
    pop()
    {
        const Key last = heap_.back();
        heap_.pop_back();
        const std::size_t size = heap_.size();
        if (size == 0)
            return;
        std::size_t hole = 0;
        for (std::size_t child = 1; child < size; child = 2 * hole + 1) {
            if (child + 1 < size && earlier(heap_[child + 1], heap_[child]))
                ++child;
            if (!earlier(heap_[child], last))
                break;
            heap_[hole] = heap_[child];
            hole = child;
        }
        heap_[hole] = last;
    }

    [[noreturn]] void badSchedule(Tick when, bool has_cb,
                                  const char *name) const;
    [[noreturn]] static void packingExhausted(std::uint64_t seq,
                                              std::uint64_t slot);

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
