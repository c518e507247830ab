#include "sim/event.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vmp
{

void
EventQueue::badSchedule(Tick when, bool has_cb, const char *name) const
{
    if (!has_cb)
        panic("scheduling empty callback '", name, "'");
    panic("scheduling event '", name, "' at ", when,
          " in the past (now ", now_, ")");
}

void
EventQueue::packingExhausted(std::uint64_t seq, std::uint64_t slot)
{
    if (slot >= maxSlots)
        panic("event queue: more than ", maxSlots, " pending events");
    panic("event queue: event seq ", seq, " past the ", maxSeqs,
          " a queue may schedule");
}

bool
EventQueue::deschedule(EventId &id)
{
    if (!id.valid())
        return false;
    id.invalidate();
    // A handle whose slot was freed (the event ran or was cancelled)
    // and possibly reused by a newer event no longer matches its order.
    if (id.slot >= slots_.size() ||
        slots_[id.slot].order != (id.seq << slotBits | id.slot))
        return false;
    Slot &s = slots_[id.slot];
    s.cb = nullptr;
    s.order = freeOrder;
    free_.push_back(id.slot);
    // Keep the cancelled keys still in the heap bounded by the live
    // ones, so cancelling far-future events cannot grow it without
    // limit. Keys are unique, so rebuilding leaves the order unchanged.
    if (heap_.size() > 2 * pending() + 64) {
        heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                                   [this](const Key &key) {
                                       return !live(key);
                                   }),
                    heap_.end());
        // std's max-heap over "later" keeps the earliest key on top.
        std::make_heap(heap_.begin(), heap_.end(),
                       [](const Key &a, const Key &b) {
                           return earlier(b, a);
                       });
    }
    return true;
}

void
EventQueue::reset()
{
    heap_.clear();
    slots_.clear();
    free_.clear();
    now_ = 0;
    dispatched_ = 0;
}

} // namespace vmp
