#include "monitor/interrupt_fifo.hh"

#include "sim/logging.hh"

namespace vmp::monitor
{

InterruptFifo::InterruptFifo(std::size_t capacity) : capacity_(capacity)
{
    if (capacity == 0)
        fatal("interrupt FIFO capacity must be positive");
    ring_.resize(capacity);
}

void
InterruptFifo::push(const InterruptWord &word)
{
    // A forced drop is indistinguishable from a genuine overflow:
    // the word is lost and the sticky flag trips the software
    // recovery sweep.
    if (size_ >= capacity_ ||
        (hooks_ != nullptr && hooks_->injectFifoDrop())) {
        overflowed_ = true;
        ++dropped_;
        if (tracer_ != nullptr)
            traceDepth(/*drop=*/true);
        return;
    }
    std::size_t tail = head_ + size_;
    if (tail >= capacity_)
        tail -= capacity_;
    ring_[tail] = word;
    ++size_;
    ++pushed_;
    if (tracer_ != nullptr)
        traceDepth(/*drop=*/false);
}

void
InterruptFifo::traceDepth(bool drop) const
{
    obs::TraceEvent event;
    event.kind = obs::EventKind::FifoDepth;
    event.at = obsEvents_ != nullptr ? obsEvents_->now() : 0;
    event.arg0 = size_;
    event.track = traceTrack_;
    event.aux = drop ? 1 : 0;
    tracer_->record(event);
}

std::optional<InterruptWord>
InterruptFifo::pop()
{
    if (size_ == 0)
        return std::nullopt;
    const InterruptWord word = ring_[head_];
    if (++head_ == capacity_)
        head_ = 0;
    --size_;
    if (tracer_ != nullptr)
        traceDepth(/*drop=*/false);
    return word;
}

} // namespace vmp::monitor
