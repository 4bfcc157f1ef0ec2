/**
 * @file
 * The compressed-program processor (paper Figure 3): a ppclite core
 * whose fetch stage runs the DecompressionEngine. The program counter
 * and all code pointers (LR, CTR, jump-table entries) are absolute
 * nibble addresses in the compressed space.
 */

#ifndef CODECOMP_DECOMPRESS_COMPRESSED_CPU_HH
#define CODECOMP_DECOMPRESS_COMPRESSED_CPU_HH

#include <concepts>

#include "decompress/engine.hh"
#include "decompress/fetch.hh"
#include "decompress/machine.hh"

namespace codecomp {

/** The retire observer that observes nothing: what step() and every
 *  run() pass. */
inline constexpr auto noRetire = [](const isa::Inst &, uint32_t,
                                    unsigned) {};

class CompressedCpu
{
  public:
    static constexpr uint64_t defaultMaxSteps = 1ull << 28;

    explicit CompressedCpu(const compress::CompressedImage &image);

    /**
     * Run until exit, handing every fetch event (fetch.hh) to
     * @p on_fetch; fatal if more than @p max_steps architectural
     * instructions would retire. The observer is a template parameter,
     * so it compiles into the step loop.
     */
    template <typename OnFetch>
        requires std::invocable<OnFetch &, const FetchEvent &>
    ExecResult run(OnFetch &&on_fetch, uint64_t max_steps = defaultMaxSteps);

    /** Run until exit, observing nothing. */
    ExecResult
    run(uint64_t max_steps = defaultMaxSteps)
    {
        return run(noFetch, max_steps);
    }

    /**
     * Execute one fetch slot (a whole codeword expansion counts as one
     * slot); returns false once halted. The slot's fetch event goes to
     * @p on_fetch, and every architectural instruction it retires to
     * @p on_retire as (decoded instruction, absolute nibble PC of the
     * item, slot within the item: 0 for an uncompressed instruction,
     * 0..n-1 through a dictionary-entry expansion), after the
     * instruction's effects land, including the halting Sc.
     */
    template <typename OnFetch, typename OnRetire>
        requires std::invocable<OnFetch &, const FetchEvent &> &&
                 std::invocable<OnRetire &, const isa::Inst &, uint32_t,
                                unsigned>
    bool
    step(OnFetch &&on_fetch, OnRetire &&on_retire)
    {
        return stepWith(on_fetch, on_retire);
    }

    /** Execute one fetch slot, observing nothing. */
    bool step() { return step(noFetch, noRetire); }

    const Machine &machine() const { return machine_; }
    /** Mutable access for harnesses that install Machine hooks. */
    Machine &machine() { return machine_; }
    uint32_t pc() const { return pc_; }

    const DecompressionEngine &engine() const { return engine_; }
    uint64_t instCount() const { return inst_count_; }

  private:
    /** The one step body behind every run() and step(). */
    template <typename OnFetch, typename OnRetire>
    bool stepWith(OnFetch &on_fetch, OnRetire &on_retire);

    /** Machine-check a PC below the compressed text. */
    [[noreturn]] void belowTextFault() const;

    /** Machine-check a relative branch inside the expansion of the
     *  codeword at @p self_pc (dictionary rank @p rank). */
    [[noreturn]] static void relativeBranchInEntry(uint32_t self_pc,
                                                   uint32_t rank);

    /** Catchable fatal: the run's step budget is spent. */
    [[noreturn]] void stepLimitExceeded() const;

    /** Shared branch handling; @p next_pc is the fall-through pointer. */
    void execBranch(const isa::Inst &inst, uint32_t next_pc,
                    uint32_t self_pc);

    /** Machine-check a taken indirect branch target (@p reg names the
     *  source register for the fault message). */
    void checkIndirectTarget(uint32_t target, const char *reg) const;

    const compress::CompressedImage &image_;
    DecompressionEngine engine_;
    Machine machine_;
    unsigned unitNibbles_;
    uint32_t pc_;
    bool redirected_ = false;
    uint64_t inst_count_ = 0;
    uint64_t step_limit_ = UINT64_MAX; //!< budget per expanded inst
};

template <typename OnFetch>
    requires std::invocable<OnFetch &, const FetchEvent &>
ExecResult
CompressedCpu::run(OnFetch &&on_fetch, uint64_t max_steps)
{
    // The limit is enforced inside stepWith() before every expanded
    // instruction; checking between items here would let a
    // multi-instruction dictionary entry overshoot the budget. The
    // guard restores the unbudgeted default even when a machine check
    // or fatal escapes mid-run, so a caught fault does not leave a
    // stale budget behind for later step()/run() calls.
    struct BudgetGuard
    {
        uint64_t &limit;
        ~BudgetGuard() { limit = UINT64_MAX; }
    } guard{step_limit_};
    step_limit_ = max_steps;
    while (!machine_.halted())
        stepWith(on_fetch, noRetire);
    return {machine_.output(), machine_.exitCode(), inst_count_};
}

template <typename OnFetch, typename OnRetire>
bool
CompressedCpu::stepWith(OnFetch &on_fetch, OnRetire &on_retire)
{
    if (machine_.halted())
        return false;

    uint32_t base = compress::CompressedImage::nibbleBase;
    if (pc_ < base)
        belowTextFault();
    const DecodedItem &item = engine_.itemAt(pc_ - base);
    uint32_t first_byte = pc_ / 2;
    uint32_t last_byte = (pc_ + item.nibbles - 1) / 2;
    // One event per item, fired after its effects land so the retired
    // count and redirect flag are final (fetch.hh) -- a redirect can cut
    // a dictionary expansion short, and the halting Sc still counts.
    FetchEvent event{first_byte, last_byte - first_byte + 1, 0,
                     item.isCodeword, false};
    uint32_t next_pc = pc_ + item.nibbles;
    uint32_t self_pc = pc_;
    redirected_ = false;
    bool halted = false;

    if (item.isCodeword) {
        // Expansion walks the engine's pre-decoded entry cache: the
        // entry's words went through isa::decode once at engine
        // construction, so the hot loop is a walk over the cache's
        // contiguous arena.
        DecodedEntry entry = engine_.decodedEntry(item.rank);
        event.rank = item.rank;
        for (unsigned slot = 0; slot < entry.size(); ++slot) {
            // The budget is per expanded architectural instruction, not
            // per fetch slot: a multi-instruction dictionary entry must
            // not overshoot a limit that falls mid-expansion.
            if (inst_count_ >= step_limit_)
                stepLimitExceeded();
            const isa::Inst &inst = entry[slot];
            ++inst_count_;
            ++event.retired;
            // The loader's validator rejects such dictionaries on disk;
            // in-memory corruption still must trap, not misexecute.
            if (inst.isRelativeBranch())
                relativeBranchInEntry(self_pc, item.rank);
            if (inst.isBranch()) {
                execBranch(inst, next_pc, self_pc);
                on_retire(inst, self_pc, slot);
                if (redirected_)
                    break;
            } else {
                machine_.execute(inst);
                on_retire(inst, self_pc, slot);
                if (machine_.halted()) {
                    halted = true;
                    break;
                }
            }
        }
    } else {
        if (inst_count_ >= step_limit_)
            stepLimitExceeded();
        isa::Inst inst = isa::decode(item.word);
        ++inst_count_;
        ++event.retired;
        if (inst.isBranch()) {
            execBranch(inst, next_pc, self_pc);
        } else {
            machine_.execute(inst);
            halted = machine_.halted();
        }
        on_retire(inst, self_pc, 0u);
    }
    event.taken = redirected_;
    on_fetch(event);
    if (halted)
        return false;
    if (!redirected_)
        pc_ = next_pc;
    return true;
}

/** Convenience: run a compressed image to completion. */
ExecResult runCompressed(const compress::CompressedImage &image,
                         uint64_t max_steps =
                             CompressedCpu::defaultMaxSteps);

} // namespace codecomp

#endif // CODECOMP_DECOMPRESS_COMPRESSED_CPU_HH
