#include "proto/translator.hh"

#include "sim/logging.hh"

namespace vmp::proto
{

DemandTranslator::DemandTranslator(std::uint64_t mem_bytes,
                                   std::uint32_t page_bytes,
                                   Addr kernel_base, Addr kernel_limit,
                                   std::uint64_t reserved_frames)
    : kernelBase_(kernel_base), kernelLimit_(kernel_limit)
{
    if (!isPowerOf2(page_bytes))
        fatal("demand translator: page size must be a power of two");
    if (mem_bytes % page_bytes != 0)
        fatal("demand translator: memory not a multiple of page size");
    pageShift_ = log2i(page_bytes);
    frames_ = mem_bytes >> pageShift_;
    if (reserved_frames >= frames_)
        fatal("demand translator: reservation exceeds memory");
    nextFrame_ = reserved_frames;
    table_.resize(initialTableSize);
    tableShift_ = 64 - log2i(initialTableSize);
}

std::size_t
DemandTranslator::home(Asid asid, std::uint64_t vpn) const
{
    // Fibonacci hashing; the key comparison below is exact, so the
    // hash only has to spread keys, not keep them apart.
    const std::uint64_t h =
        (vpn ^ std::uint64_t{asid} * 0xff51afd7ed558ccdULL) *
        0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> tableShift_);
}

std::size_t
DemandTranslator::freeEntry(Asid asid, std::uint64_t vpn) const
{
    const std::size_t mask = table_.size() - 1;
    std::size_t i = home(asid, vpn);
    while (table_[i].used)
        i = (i + 1) & mask;
    return i;
}

void
DemandTranslator::grow()
{
    std::vector<Entry> old(table_.size() * 2);
    old.swap(table_);
    --tableShift_;
    for (const Entry &e : old) {
        if (e.used)
            table_[freeEntry(e.asid, e.vpn)] = e;
    }
}

std::uint64_t
DemandTranslator::frameFor(Asid asid, std::uint64_t vpn)
{
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = home(asid, vpn); table_[i].used;
         i = (i + 1) & mask) {
        if (table_[i].vpn == vpn && table_[i].asid == asid)
            return table_[i].frame;
    }
    if (nextFrame_ >= frames_)
        fatal("demand translator: out of physical frames (", frames_,
              ")");
    if (2 * (mapped_ + 1) > table_.size())
        grow();
    table_[freeEntry(asid, vpn)] = Entry{vpn, nextFrame_, asid, true};
    ++mapped_;
    return nextFrame_++;
}

TranslateResult
DemandTranslator::translateNow(const TranslateRequest &req)
{
    const bool kernel =
        req.vaddr >= kernelBase_ && req.vaddr < kernelLimit_;
    // Kernel pages are shared across address spaces; user pages are
    // private per ASID.
    const Asid key_asid = kernel ? 0 : req.asid;
    const std::uint64_t frame =
        frameFor(key_asid, req.vaddr >> pageShift_);

    TranslateResult res;
    res.ok = true;
    res.paddr = frame << pageShift_ |
                (req.vaddr & ((Addr{1} << pageShift_) - 1));
    res.prot = static_cast<cache::SlotFlags>(
        cache::FlagSupWritable | cache::FlagUserReadable |
        cache::FlagUserWritable);
    res.privateHint = userPrivateHint_ && !kernel;
    return res;
}

void
DemandTranslator::translate(const TranslateRequest &req,
                            CacheController &, TranslateDone done)
{
    done(translateNow(req));
}

void
FixedTranslator::map(Asid asid, Addr vaddr, Addr paddr,
                     cache::SlotFlags prot, bool private_hint)
{
    map_[{asid, vaddr / pageBytes_}] =
        Entry{alignDown(paddr, pageBytes_), prot, private_hint};
}

void
FixedTranslator::unmap(Asid asid, Addr vaddr)
{
    map_.erase({asid, vaddr / pageBytes_});
}

void
FixedTranslator::translate(const TranslateRequest &req,
                           CacheController &, TranslateDone done)
{
    TranslateResult res;
    const auto it = map_.find({req.asid, req.vaddr / pageBytes_});
    if (it == map_.end()) {
        done(res); // ok == false: page fault
        return;
    }
    res.ok = true;
    res.paddr = it->second.frameBase + req.vaddr % pageBytes_;
    res.prot = it->second.prot;
    res.privateHint = it->second.privateHint;
    done(res);
}

} // namespace vmp::proto
