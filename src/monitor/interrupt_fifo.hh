/**
 * @file
 * The bus monitor's interrupt FIFO (Section 3.2): up to 128 queued
 * interrupt words, each recording the type and physical address of a
 * bus transaction the processor must act on, plus a sticky flag set
 * when a word is dropped because the FIFO was full — the trigger for
 * the software's consistency recovery sweep.
 */

#ifndef VMP_MONITOR_INTERRUPT_FIFO_HH
#define VMP_MONITOR_INTERRUPT_FIFO_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mem/bus_types.hh"
#include "mem/fault_hooks.hh"
#include "obs/event_tracer.hh"
#include "sim/event.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vmp::monitor
{

/** One queued interrupt word. */
struct InterruptWord
{
    mem::TxType type = mem::TxType::ReadShared;
    Addr paddr = 0;
    /** Master that issued the transaction. */
    std::uint32_t requester = 0;
    /** True if this monitor aborted the transaction. */
    bool aborted = false;
};

/**
 * Bounded interrupt word queue with overflow flag. The words live in a
 * fixed ring of capacity() entries allocated once, like the hardware
 * FIFO's fixed storage.
 */
class InterruptFifo
{
  public:
    /** FIFO-order view of the queued words (oldest first). */
    class Words
    {
      public:
        class Iterator
        {
          public:
            Iterator(const InterruptFifo &fifo, std::size_t index)
                : fifo_(&fifo), index_(index)
            {}
            const InterruptWord &operator*() const
            {
                return fifo_->at(index_);
            }
            Iterator &
            operator++()
            {
                ++index_;
                return *this;
            }
            bool
            operator!=(const Iterator &other) const
            {
                return index_ != other.index_;
            }

          private:
            const InterruptFifo *fifo_;
            std::size_t index_;
        };

        explicit Words(const InterruptFifo &fifo) : fifo_(fifo) {}
        Iterator begin() const { return Iterator(fifo_, 0); }
        Iterator end() const { return Iterator(fifo_, fifo_.size()); }
        std::size_t size() const { return fifo_.size(); }
        bool empty() const { return fifo_.empty(); }

      private:
        const InterruptFifo &fifo_;
    };

    /** Hardware capacity; the prototype provides 128 entries. */
    explicit InterruptFifo(std::size_t capacity = 128);

    /** Queue a word; sets the overflow flag instead when full. */
    void push(const InterruptWord &word);

    /** Pop the oldest word, if any. */
    std::optional<InterruptWord> pop();

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }

    /** Queued words, oldest first (live-inspection snapshots). */
    Words words() const { return Words(*this); }
    /** The @p index-th queued word, 0 = oldest (requires index < size). */
    const InterruptWord &
    at(std::size_t index) const
    {
        std::size_t slot = head_ + index;
        if (slot >= capacity_)
            slot -= capacity_;
        return ring_[slot];
    }

    /** True once any word has been dropped; cleared by software. */
    bool overflowed() const { return overflowed_; }
    void clearOverflow() { overflowed_ = false; }

    /**
     * Attach (or detach, with nullptr) a fault-injection hook; when
     * set, injectFifoDrop() may force-drop an incoming word as if the
     * FIFO were full (sticky overflow flag and all).
     */
    void setFaultHooks(mem::FaultHooks *hooks) { hooks_ = hooks; }

    /**
     * Attach (or detach, with nullptr) an event tracer; every push
     * (including drops) and every successful pop records a FifoDepth
     * counter sample on @p track, timestamped from @p events.
     * Observation only — the FIFO's behavior is unchanged.
     */
    void
    setTracer(obs::EventTracer *tracer, std::uint16_t track,
              const EventQueue *events)
    {
        tracer_ = tracer;
        traceTrack_ = track;
        obsEvents_ = events;
    }

    const Counter &pushed() const { return pushed_; }
    const Counter &dropped() const { return dropped_; }

  private:
    void traceDepth(bool drop) const;

    std::size_t capacity_;
    mem::FaultHooks *hooks_ = nullptr;
    obs::EventTracer *tracer_ = nullptr;
    std::uint16_t traceTrack_ = 0;
    const EventQueue *obsEvents_ = nullptr;
    /** capacity_ word slots; the queue is [head_, head_ + size_). */
    std::vector<InterruptWord> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    bool overflowed_ = false;
    Counter pushed_;
    Counter dropped_;
};

} // namespace vmp::monitor

#endif // VMP_MONITOR_INTERRUPT_FIFO_HH
