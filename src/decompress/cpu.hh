/**
 * @file
 * Reference processor: executes an uncompressed Program directly.
 */

#ifndef CODECOMP_DECOMPRESS_CPU_HH
#define CODECOMP_DECOMPRESS_CPU_HH

#include <concepts>
#include <memory>

#include "decompress/fetch.hh"
#include "decompress/machine.hh"
#include "program/program.hh"

namespace codecomp {

/**
 * Interpreter for uncompressed ppclite programs. Code pointers (PC, LR,
 * CTR, jump-table entries) are plain byte addresses.
 */
class Cpu
{
  public:
    static constexpr uint64_t defaultMaxSteps = 1ull << 28;

    /** Load .text and .data images and point the PC at the entry. */
    explicit Cpu(const Program &program);

    /**
     * Run until exit, handing every fetch event (fetch.hh) to
     * @p on_fetch; fatal if @p max_steps elapse first. The observer is
     * a template parameter, so it compiles into the step loop. Every
     * event has bytes == 4 and retired == 1 here.
     */
    template <typename OnFetch>
        requires std::invocable<OnFetch &, const FetchEvent &>
    ExecResult run(OnFetch &&on_fetch, uint64_t max_steps = defaultMaxSteps);

    /** Run until exit, observing nothing; fatal if @p max_steps
     *  elapse first. */
    ExecResult
    run(uint64_t max_steps = defaultMaxSteps)
    {
        return run(noFetch, max_steps);
    }

    /** Execute a single instruction, handing its fetch event to
     *  @p on_fetch; returns false once halted. */
    template <typename OnFetch>
        requires std::invocable<OnFetch &, const FetchEvent &>
    bool
    step(OnFetch &&on_fetch)
    {
        return stepWith(on_fetch);
    }

    /** Execute a single instruction, observing nothing. */
    bool step() { return step(noFetch); }

    const Machine &machine() const { return machine_; }
    /** Mutable access for harnesses that install Machine hooks. */
    Machine &machine() { return machine_; }
    uint32_t pc() const { return pc_; }
    uint64_t instCount() const { return inst_count_; }

  private:
    /** The one step body behind every run() and step(). */
    template <typename OnFetch>
    bool stepWith(OnFetch &on_fetch);

    /** Machine-check the PC that failed the fetch-stage range or
     *  alignment check (range first, then alignment). */
    [[noreturn]] void fetchFault() const;

    /** Resolve the branch @p inst at the PC: set LR for a link branch,
     *  move the PC, and return whether the branch was taken. */
    bool execBranch(const isa::Inst &inst);

    /** Machine-check a taken indirect branch target (@p reg names the
     *  source register for the fault message). */
    void checkIndirectTarget(uint32_t target, const char *reg) const;

    /** Catchable fatal: the run's step budget is spent. */
    [[noreturn]] static void stepLimitExceeded(uint64_t max_steps);

    const Program &program_;
    Machine machine_;
    uint32_t pc_;
    uint64_t inst_count_ = 0;
};

template <typename OnFetch>
    requires std::invocable<OnFetch &, const FetchEvent &>
ExecResult
Cpu::run(OnFetch &&on_fetch, uint64_t max_steps)
{
    while (!machine_.halted()) {
        if (inst_count_ >= max_steps)
            stepLimitExceeded(max_steps);
        stepWith(on_fetch);
    }
    return {machine_.output(), machine_.exitCode(), inst_count_};
}

template <typename OnFetch>
bool
Cpu::stepWith(OnFetch &on_fetch)
{
    if (machine_.halted())
        return false;

    // Fetch-stage machine checks: a corrupt code pointer (jump table,
    // LR, CTR) must trap precisely, never index .text out of bounds.
    uint32_t offset = pc_ - Program::textBase;
    if (pc_ < Program::textBase || offset >= program_.textBytes() ||
        offset % isa::instBytes != 0)
        fetchFault();
    isa::Inst inst = isa::decode(program_.text[offset / isa::instBytes]);
    ++inst_count_;

    // The fetch event fires after the instruction's effects land so the
    // taken flag is final (fetch.hh); the halting Sc still counts.
    FetchEvent event{pc_, isa::instBytes, 1, false, false};
    if (inst.isBranch()) {
        event.taken = execBranch(inst);
        on_fetch(event);
        return true;
    }
    machine_.execute(inst);
    on_fetch(event);
    pc_ += isa::instBytes;
    return !machine_.halted();
}

/** Convenience wrapper: construct, run, return the result. */
ExecResult runProgram(const Program &program,
                      uint64_t max_steps = Cpu::defaultMaxSteps);

} // namespace codecomp

#endif // CODECOMP_DECOMPRESS_CPU_HH
