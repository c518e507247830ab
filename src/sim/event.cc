#include "sim/event.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vmp
{

EventId
EventQueue::schedule(Tick when, Callback cb, const char *name)
{
    if (when < now_)
        panic("scheduling event '", name, "' at ", when,
              " in the past (now ", now_, ")");
    if (!cb)
        panic("scheduling empty callback '", name, "'");
    std::uint32_t slot;
    if (free_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(Slot{nullptr, freeSeq});
    } else {
        slot = free_.back();
        free_.pop_back();
    }
    const std::uint64_t seq = nextSeq_++;
    slots_[slot].cb = std::move(cb);
    slots_[slot].seq = seq;
    heap_.push_back(Key{when, seq, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return EventId{when, seq, slot};
}

bool
EventQueue::deschedule(EventId &id)
{
    if (!id.valid())
        return false;
    id.invalidate();
    // A handle whose slot was freed (the event ran or was cancelled)
    // and possibly reused by a newer event no longer matches its seq.
    if (id.slot >= slots_.size() || slots_[id.slot].seq != id.seq)
        return false;
    release(id.slot);
    // Keep the cancelled keys still in the heap bounded by the live
    // ones, so cancelling far-future events cannot grow it without
    // limit. Keys are unique, so rebuilding leaves the order unchanged.
    if (heap_.size() > 2 * pending() + 64) {
        heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                                   [this](const Key &key) {
                                       return !live(key);
                                   }),
                    heap_.end());
        std::make_heap(heap_.begin(), heap_.end(), Later{});
    }
    return true;
}

void
EventQueue::popHeap()
{
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
}

void
EventQueue::release(std::uint32_t slot)
{
    slots_[slot].cb = nullptr;
    slots_[slot].seq = freeSeq;
    free_.push_back(slot);
}

const EventQueue::Key *
EventQueue::head()
{
    while (!heap_.empty() && !live(heap_.front()))
        popHeap();
    return heap_.empty() ? nullptr : &heap_.front();
}

bool
EventQueue::step()
{
    const Key *top = head();
    if (top == nullptr)
        return false;
    const Key key = *top;
    popHeap();
    now_ = key.when;
    // Move the callback out and free the slot before running it so the
    // callback may freely schedule or deschedule other events
    // (including itself), which can reuse or grow the slab.
    Callback cb = std::move(slots_[key.slot].cb);
    release(key.slot);
    ++dispatched_;
    cb();
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    for (const Key *top = head(); top != nullptr && top->when <= limit;
         top = head())
        step();
    if (now_ < limit && limit != maxTick)
        now_ = limit;
    return now_;
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
