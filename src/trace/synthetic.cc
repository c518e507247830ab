#include "trace/synthetic.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vmp::trace
{

namespace
{

/**
 * Per-process segment base addresses inside user space. The low bits
 * are deliberately irregular: if every segment started on a large
 * power-of-two boundary, all of them (across all address spaces) would
 * collide onto the same cache sets, producing pathological conflict
 * misses no real program mix exhibits.
 */
constexpr Addr codeOffset = 0x0000'0000;
constexpr Addr dataOffset = 0x0112'3400;
constexpr Addr stackOffset = 0x0234'5680;
/** Kernel segment offsets inside the kernel region. */
constexpr Addr osCodeOffset = 0x0001'9E40;
constexpr Addr osDataOffset = 0x0043'7280;
/** Per-process stagger so same-numbered segments differ in set. */
constexpr Addr processStride = 0x0003'7740;

/** @p config after validation, so members built from it see sane values. */
const SyntheticConfig &
checked(const SyntheticConfig &config)
{
    config.check();
    return config;
}

} // namespace

void
SyntheticConfig::check() const
{
    if (totalRefs == 0)
        fatal("synthetic trace: totalRefs must be positive");
    if (processes == 0 || processes > 200)
        fatal("synthetic trace: processes must be in [1, 200]");
    if (quantumRefs == 0)
        fatal("synthetic trace: quantumRefs must be positive");
    if (dataRefProb < 0 || dataRefProb > 1 || stackRefProb < 0 ||
        stackRefProb > 1 || writeFrac < 0 || writeFrac > 1)
        fatal("synthetic trace: probabilities must be in [0, 1]");
    if (osRefFrac < 0 || osRefFrac >= 1)
        fatal("synthetic trace: osRefFrac must be in [0, 1)");
    if (osBurstInstrs < 1)
        fatal("synthetic trace: osBurstInstrs must be >= 1");
    for (const auto *code : {&userCode, &osCode}) {
        if (code->bytes < 4096 || code->functions == 0)
            fatal("synthetic trace: code segment too small");
        if (code->meanRunInstrs < 1)
            fatal("synthetic trace: meanRunInstrs must be >= 1");
    }
    for (const auto *data : {&userData, &osData}) {
        if (data->objects == 0 || data->objectBytes < 4)
            fatal("synthetic trace: data segment too small");
        if (data->meanRunWords < 1)
            fatal("synthetic trace: meanRunWords must be >= 1");
    }
    if (stackBytes < 256)
        fatal("synthetic trace: stack too small");
    if (kernelOffset >= (userBase - kernelBase) / 2)
        fatal("synthetic trace: kernelOffset outside kernel region");
}

/** Generation state for one address space (plus its kernel activity). */
struct SyntheticGen::ProcState
{
    Asid asid = 0;
    Addr base = 0;

    // Code state, separately for user and supervisor mode.
    Addr pc = 0;
    std::uint64_t runLeft = 0;
    Addr osPc = 0;
    std::uint64_t osRunLeft = 0;

    // Data state.
    Addr dataAddr = 0;
    std::uint64_t dataRunLeft = 0;
    Addr osDataAddr = 0;
    std::uint64_t osDataRunLeft = 0;

    // Stack state: byte offset of the top within the stack span.
    Addr stackTop = 0;
};

SyntheticGen::ModeDraws::ModeDraws(const CodeSegmentConfig &code,
                                   const DataSegmentConfig &data)
    : functions(code.functions, code.theta),
      objects(data.objects, data.theta),
      localBranch(code.localBranchProb),
      codeRun(1.0 / code.meanRunInstrs),
      dataRun(1.0 / data.meanRunWords)
{
}

SyntheticGen::SyntheticGen(const SyntheticConfig &config)
    : cfg_(checked(config)), rng_(cfg_.seed),
      user_(cfg_.userCode, cfg_.userData), os_(cfg_.osCode, cfg_.osData),
      dataRef_(cfg_.dataRefProb), stackRef_(cfg_.stackRefProb),
      write_(cfg_.writeFrac), osBurst_(1.0 / cfg_.osBurstInstrs)
{
    for (std::uint32_t p = 0; p < cfg_.processes; ++p) {
        auto proc = std::make_unique<ProcState>();
        proc->asid = static_cast<Asid>(cfg_.asidBase + p);
        proc->base = userBase + p * processStride;
        proc->pc = proc->base + codeOffset;
        proc->osPc = kernelBase + cfg_.kernelOffset + osCodeOffset;
        proc->stackTop = cfg_.stackBytes / 2;
        procs_.push_back(std::move(proc));
    }
    quantumLeft_ = cfg_.quantumRefs;
}

SyntheticGen::~SyntheticGen() = default;

SyntheticGen::ProcState &
SyntheticGen::current()
{
    return *procs_[activeProc_];
}

void
SyntheticGen::push(const ProcState &proc, Addr vaddr, RefType type,
                   bool supervisor)
{
    MemRef &ref = queue_[queueLen_++];
    ref.vaddr = vaddr;
    ref.asid = proc.asid;
    ref.type = type;
    ref.size = 4;
    ref.supervisor = supervisor;
}

void
SyntheticGen::stepCode(ProcState &proc, const CodeSegmentConfig &cfg,
                       const ModeDraws &draws, bool supervisor)
{
    Addr &pc = supervisor ? proc.osPc : proc.pc;
    std::uint64_t &run = supervisor ? proc.osRunLeft : proc.runLeft;
    const Addr seg_base = supervisor
        ? kernelBase + cfg_.kernelOffset + osCodeOffset
        : proc.base + codeOffset;
    const Addr seg_end = seg_base + cfg.bytes;

    if (run == 0) {
        // Take a branch.
        if (draws.localBranch.sample(rng_)) {
            const std::int64_t disp =
                static_cast<std::int64_t>(rng_.below(2 * cfg.localRange)) -
                static_cast<std::int64_t>(cfg.localRange);
            std::int64_t target = static_cast<std::int64_t>(pc) + disp;
            target = std::clamp(
                target, static_cast<std::int64_t>(seg_base),
                static_cast<std::int64_t>(seg_end - 4));
            pc = alignDown(static_cast<Addr>(target), 4);
        } else {
            const std::uint64_t func = draws.functions.sample(rng_);
            const Addr stride = cfg.bytes / cfg.functions;
            pc = seg_base + alignDown(func * stride, 4);
        }
        run = draws.codeRun.sample(rng_);
    }

    push(proc, pc, RefType::InstrFetch, supervisor);
    pc += 4;
    if (pc >= seg_end)
        pc = seg_base;
    --run;
}

void
SyntheticGen::stepData(ProcState &proc, const DataSegmentConfig &cfg,
                       const ModeDraws &draws, bool supervisor)
{
    Addr &addr = supervisor ? proc.osDataAddr : proc.dataAddr;
    std::uint64_t &run = supervisor ? proc.osDataRunLeft
                                    : proc.dataRunLeft;
    const Addr seg_base = supervisor
        ? kernelBase + cfg_.kernelOffset + osDataOffset
        : proc.base + dataOffset;
    const Addr seg_bytes =
        static_cast<Addr>(cfg.objects) * cfg.objectBytes;

    if (run == 0) {
        const std::uint64_t obj = draws.objects.sample(rng_);
        const Addr off = alignDown(rng_.below(cfg.objectBytes), 4);
        addr = seg_base + obj * cfg.objectBytes + off;
        run = draws.dataRun.sample(rng_);
    }

    const RefType type = write_.sample(rng_) ? RefType::DataWrite
                                             : RefType::DataRead;
    push(proc, addr, type, supervisor);
    addr += 4;
    if (addr >= seg_base + seg_bytes)
        addr = seg_base;
    --run;
}

void
SyntheticGen::stepStack(ProcState &proc)
{
    // The stack top drifts up and down; references cluster at the top.
    const std::int64_t drift =
        static_cast<std::int64_t>(rng_.below(9)) - 4;
    std::int64_t top = static_cast<std::int64_t>(proc.stackTop) +
        drift * 4;
    top = std::clamp(top, std::int64_t{64},
                     static_cast<std::int64_t>(cfg_.stackBytes) - 64);
    proc.stackTop = static_cast<Addr>(top);

    const Addr off = alignDown(proc.stackTop + rng_.below(48), 4);
    const RefType type = stackWrite_.sample(rng_) ? RefType::DataWrite
                                                  : RefType::DataRead;
    push(proc, proc.base + stackOffset + off, type, false);
}

void
SyntheticGen::stepInstruction()
{
    // Mode feedback: enter a supervisor burst whenever the running
    // supervisor fraction has fallen below target.
    if (osBurstLeft_ == 0 && cfg_.osRefFrac > 0.0) {
        const double frac = produced_ == 0
            ? 0.0
            : static_cast<double>(supRefs_) /
                static_cast<double>(produced_);
        if (frac < cfg_.osRefFrac)
            osBurstLeft_ = osBurst_.sample(rng_);
    }

    ProcState &proc = current();
    const bool supervisor = osBurstLeft_ > 0;
    if (supervisor)
        --osBurstLeft_;

    const auto &code = supervisor ? cfg_.osCode : cfg_.userCode;
    const auto &data = supervisor ? cfg_.osData : cfg_.userData;
    const ModeDraws &draws = supervisor ? os_ : user_;

    stepCode(proc, code, draws, supervisor);
    if (dataRef_.sample(rng_))
        stepData(proc, data, draws, supervisor);
    if (!supervisor && stackRef_.sample(rng_))
        stepStack(proc);
}

bool
SyntheticGen::next(MemRef &ref)
{
    if (produced_ >= cfg_.totalRefs)
        return false;

    if (queuePos_ == queueLen_) {
        queueLen_ = 0;
        queuePos_ = 0;
        stepInstruction();
    }

    ref = queue_[queuePos_++];
    ++produced_;
    if (ref.supervisor)
        ++supRefs_;

    if (--quantumLeft_ == 0) {
        quantumLeft_ = cfg_.quantumRefs;
        activeProc_ = (activeProc_ + 1) % cfg_.processes;
    }
    return true;
}

} // namespace vmp::trace
