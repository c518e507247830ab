#include "mem/block_copier.hh"

#include "sim/logging.hh"

namespace vmp::mem
{

BlockCopier::BlockCopier(std::uint32_t master_id, VmeBus &bus)
    : masterId_(master_id), bus_(bus)
{
}

std::uint8_t *
BlockCopier::buffer(std::uint32_t bytes)
{
    if (buffer_.size() < bytes)
        buffer_.resize(bytes);
    return buffer_.data();
}

void
BlockCopier::start(const BusTransaction &tx, Done done)
{
    if (busy_)
        panic("block copier of master ", masterId_,
              " started while busy");
    busy_ = true;
    ++copies_;
    startedAt_ = bus_.eventQueue().now();
    tx_ = tx;
    tx_.data = buffer(tx.bytes);
    done_ = std::move(done);
    // Fault injection: stall the engine before the request hits the
    // bus. busy_ is already set, so the CPU blocks exactly as it would
    // on a slow copier.
    if (hooks_ != nullptr) {
        const Tick stall = hooks_->injectCopierStall(tx_);
        if (stall > 0) {
            ++stalled_;
            bus_.eventQueue().scheduleIn(
                stall, smallCapture([this] { issue(); }),
                "copier-stall");
            return;
        }
    }
    issue();
}

void
BlockCopier::issue()
{
    bus_.request(tx_, smallCapture([this](const TxResult &res) {
                     finish(res);
                 }));
}

void
BlockCopier::finish(const TxResult &res)
{
    busy_ = false;
    if (res.aborted)
        ++aborted_;
    if (tracer_ != nullptr) {
        const Tick now = bus_.eventQueue().now();
        obs::TraceEvent event;
        event.kind = obs::EventKind::Copy;
        event.at = startedAt_;
        event.addr = tx_.paddr;
        event.arg0 = now - startedAt_;
        event.arg1 = res.busTime;
        event.master = masterId_;
        event.track = traceTrack_;
        event.aux = static_cast<std::uint8_t>(tx_.type) |
                    (res.aborted ? 0x80u : 0u);
        tracer_->record(event);
    }
    // The completion may start the next transfer, which replaces
    // done_: run it from a local.
    const Done done = std::move(done_);
    if (done)
        done(res);
}

void
BlockCopier::readPage(Addr paddr, std::uint32_t bytes, bool exclusive,
                      Done done)
{
    BusTransaction tx;
    tx.type = exclusive ? TxType::ReadPrivate : TxType::ReadShared;
    tx.requester = masterId_;
    tx.paddr = paddr;
    tx.bytes = bytes;
    tx.newEntry = exclusive ? ActionEntry::Protect : ActionEntry::Shared;
    tx.updatesTable = true;
    start(tx, std::move(done));
}

void
BlockCopier::writeBackPage(Addr paddr, std::uint32_t bytes,
                           ActionEntry after, Done done)
{
    BusTransaction tx;
    tx.type = TxType::WriteBack;
    tx.requester = masterId_;
    tx.paddr = paddr;
    tx.bytes = bytes;
    tx.newEntry = after;
    tx.updatesTable = true;
    start(tx, std::move(done));
}

} // namespace vmp::mem
