/**
 * @file
 * The cache controller's frame and slot bookkeeping, kept in the
 * board's local memory: which frame each cache slot holds, the chain
 * of slots caching each frame (virtual-address aliases of one frame),
 * and each frame's ownership state. Per-slot arrays sized by the cache
 * plus an open-addressing frame table sized from it, so the miss path
 * binds, looks up and retires frames without allocating, and dropping
 * a frame's aliases walks its chain instead of every slot. The frame
 * table grows only if more frames are tracked at once than the cache
 * has slots (ownership held without a cached copy).
 */

#ifndef VMP_PROTO_FRAME_BOOK_HH
#define VMP_PROTO_FRAME_BOOK_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/cache.hh"

namespace vmp::proto
{

/** Per-frame ownership state kept in local memory. */
enum class FrameState : std::uint8_t
{
    Shared,
    Private,
};

/** Sentinel slot index: no slot (end of chain, slot-less ownership). */
constexpr cache::SlotIndex noSlot = 0xffffffff;

/** Software ownership bookkeeping for one physical frame. */
struct FrameInfo
{
    FrameState state = FrameState::Shared;
    /** The slot that acquired ownership, when state == Private. */
    cache::SlotIndex owningSlot = 0;
};

/** One tracked frame: ownership state plus its slot chain. */
struct FrameEntry
{
    std::uint64_t frame = 0;
    FrameInfo info;
    /** First slot of the frame's alias chain (noSlot when empty). */
    cache::SlotIndex head = noSlot;
    /** Slots on the chain. */
    std::uint32_t slots = 0;
    /** True when info is meaningful (the frame has bookkeeping). */
    bool hasInfo = false;
};

/** Open-addressing (linear probing) frame -> FrameEntry table. */
class FrameTable
{
  public:
    /** Size for about @p expected frames tracked at once. */
    explicit FrameTable(std::size_t expected)
    {
        std::size_t capacity = 16;
        while (capacity < 2 * expected)
            capacity *= 2;
        entries_.assign(capacity, vacant());
    }

    /** Number of frames in the table. */
    std::size_t size() const { return size_; }

    FrameEntry *
    find(std::uint64_t frame)
    {
        for (std::size_t i = home(frame);; i = next(i)) {
            FrameEntry &e = entries_[i];
            if (e.frame == frame)
                return &e;
            if (e.frame == empty)
                return nullptr;
        }
    }

    const FrameEntry *
    find(std::uint64_t frame) const
    {
        return const_cast<FrameTable *>(this)->find(frame);
    }

    /** The entry of @p frame, inserted empty when absent. Invalidates
     *  pointers to other entries. */
    FrameEntry &
    insert(std::uint64_t frame)
    {
        if (FrameEntry *e = find(frame))
            return *e;
        if (4 * (size_ + 1) > 3 * entries_.size())
            grow();
        ++size_;
        return place(frame);
    }

    /** Remove @p frame's entry, if any. Invalidates entry pointers. */
    void
    erase(std::uint64_t frame)
    {
        std::size_t hole = home(frame);
        while (entries_[hole].frame != frame) {
            if (entries_[hole].frame == empty)
                return;
            hole = next(hole);
        }
        --size_;
        // Backward-shift deletion: move later members of the probe
        // run into the hole so no tombstones are needed.
        for (std::size_t i = next(hole);; i = next(i)) {
            FrameEntry &e = entries_[i];
            if (e.frame == empty)
                break;
            const std::size_t want = home(e.frame);
            // Move e iff its home lies cyclically outside (hole, i].
            const bool stays = hole < i ? (want > hole && want <= i)
                                        : (want > hole || want <= i);
            if (!stays) {
                entries_[hole] = e;
                hole = i;
            }
        }
        entries_[hole] = vacant();
    }

    void
    clear()
    {
        entries_.assign(entries_.size(), vacant());
        size_ = 0;
    }

    /** Call @p fn(entry) for every entry, in table order. */
    template <class F>
    void
    forEach(F &&fn) const
    {
        for (const FrameEntry &e : entries_) {
            if (e.frame != empty)
                fn(e);
        }
    }

  private:
    static constexpr std::uint64_t empty = ~std::uint64_t{0};

    static FrameEntry
    vacant()
    {
        FrameEntry e;
        e.frame = empty;
        return e;
    }

    std::size_t
    home(std::uint64_t frame) const
    {
        return static_cast<std::size_t>(
                   (frame * 0x9E3779B97F4A7C15ull) >> 32) &
            (entries_.size() - 1);
    }
    std::size_t next(std::size_t i) const
    {
        return (i + 1) & (entries_.size() - 1);
    }

    FrameEntry &
    place(std::uint64_t frame)
    {
        std::size_t i = home(frame);
        while (entries_[i].frame != empty)
            i = next(i);
        entries_[i] = FrameEntry{};
        entries_[i].frame = frame;
        return entries_[i];
    }

    void
    grow()
    {
        std::vector<FrameEntry> old(entries_.size() * 2, vacant());
        old.swap(entries_);
        for (const FrameEntry &e : old) {
            if (e.frame != empty)
                place(e.frame) = e;
        }
    }

    std::vector<FrameEntry> entries_;
    std::size_t size_ = 0;
};

/** Slot -> frame map, per-frame alias chains and ownership state. */
class FrameBook
{
  public:
    /** Frame of an untracked slot. */
    static constexpr std::uint64_t noFrame = ~std::uint64_t{0};

    explicit FrameBook(std::size_t slots)
        : frames_(slots), slotFrame_(slots, noFrame),
          nextAlias_(slots, noSlot)
    {}

    /** Frame cached in @p slot, or noFrame. */
    std::uint64_t frameOf(cache::SlotIndex slot) const
    {
        return slotFrame_[slot];
    }
    /** Number of slots caching @p frame. */
    std::uint32_t
    slotsOf(std::uint64_t frame) const
    {
        const FrameEntry *e = frames_.find(frame);
        return e != nullptr ? e->slots : 0;
    }
    /** First slot caching @p frame other than @p skip, or noSlot. */
    cache::SlotIndex
    firstSlot(std::uint64_t frame, cache::SlotIndex skip = noSlot) const
    {
        const FrameEntry *e = frames_.find(frame);
        cache::SlotIndex slot = e != nullptr ? e->head : noSlot;
        while (slot != noSlot && slot == skip)
            slot = nextAlias_[slot];
        return slot;
    }
    /** The slot after @p slot on its frame's chain, or noSlot. */
    cache::SlotIndex nextSlot(cache::SlotIndex slot) const
    {
        return nextAlias_[slot];
    }

    /** Record that @p slot now caches @p frame. */
    void
    bind(cache::SlotIndex slot, std::uint64_t frame)
    {
        const std::uint64_t current = slotFrame_[slot];
        if (current == frame)
            return;
        if (current != noFrame) {
            // Rebound without being forgotten: the old frame loses a
            // slot; its ownership state is dropped only through forget.
            FrameEntry &old = *frames_.find(current);
            unlink(slot, old);
            if (old.slots == 0 && !old.hasInfo)
                frames_.erase(current);
        }
        FrameEntry &e = frames_.insert(frame);
        slotFrame_[slot] = frame;
        nextAlias_[slot] = e.head;
        e.head = slot;
        ++e.slots;
    }

    /** Untrack @p slot; its frame's bookkeeping goes with its last
     *  slot. */
    void
    forget(cache::SlotIndex slot)
    {
        const std::uint64_t frame = slotFrame_[slot];
        if (frame == noFrame)
            return;
        slotFrame_[slot] = noFrame;
        FrameEntry &e = *frames_.find(frame);
        unlink(slot, e);
        if (e.slots == 0) {
            if (e.hasInfo)
                --infoCount_;
            frames_.erase(frame);
        }
    }

    /** The frame's ownership state, or null. */
    FrameInfo *
    info(std::uint64_t frame)
    {
        FrameEntry *e = frames_.find(frame);
        return e != nullptr && e->hasInfo ? &e->info : nullptr;
    }
    const FrameInfo *
    info(std::uint64_t frame) const
    {
        return const_cast<FrameBook *>(this)->info(frame);
    }

    /** The frame's ownership state, created (Shared) when absent. */
    FrameInfo &
    ensureInfo(std::uint64_t frame)
    {
        FrameEntry &e = frames_.insert(frame);
        if (!e.hasInfo) {
            e.hasInfo = true;
            e.info = FrameInfo{};
            ++infoCount_;
        }
        return e.info;
    }

    /** Drop the frame's ownership state (its slots stay tracked). */
    void
    dropInfo(std::uint64_t frame)
    {
        FrameEntry *e = frames_.find(frame);
        if (e == nullptr || !e->hasInfo)
            return;
        e->hasInfo = false;
        --infoCount_;
        if (e->slots == 0)
            frames_.erase(frame);
    }

    /** Frames with ownership state. */
    std::size_t framesTracked() const { return infoCount_; }

    /** Call @p fn(frame, info) for every frame with ownership state. */
    template <class F>
    void
    forEachFrame(F &&fn) const
    {
        frames_.forEach([&fn](const FrameEntry &e) {
            if (e.hasInfo)
                fn(e.frame, e.info);
        });
    }

    /** Call @p fn(slot, frame) for every tracked slot. */
    template <class F>
    void
    forEachSlot(F &&fn) const
    {
        for (cache::SlotIndex s = 0; s < slotFrame_.size(); ++s) {
            if (slotFrame_[s] != noFrame)
                fn(s, slotFrame_[s]);
        }
    }

    void
    clear()
    {
        frames_.clear();
        infoCount_ = 0;
        std::fill(slotFrame_.begin(), slotFrame_.end(), noFrame);
        std::fill(nextAlias_.begin(), nextAlias_.end(), noSlot);
    }

  private:
    void
    unlink(cache::SlotIndex slot, FrameEntry &entry)
    {
        if (entry.head == slot) {
            entry.head = nextAlias_[slot];
        } else {
            cache::SlotIndex prev = entry.head;
            while (nextAlias_[prev] != slot)
                prev = nextAlias_[prev];
            nextAlias_[prev] = nextAlias_[slot];
        }
        nextAlias_[slot] = noSlot;
        --entry.slots;
    }

    FrameTable frames_;
    /** Entries of frames_ with ownership state. */
    std::size_t infoCount_ = 0;
    /** slot -> frame cached there (noFrame when untracked). */
    std::vector<std::uint64_t> slotFrame_;
    /** slot -> next slot on its frame's alias chain. */
    std::vector<cache::SlotIndex> nextAlias_;
};

} // namespace vmp::proto

#endif // VMP_PROTO_FRAME_BOOK_HH
