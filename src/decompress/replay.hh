/**
 * @file
 * Trace-driven pricing of compressed images: the fetch stream that a
 * CompressedCpu run of an image would produce, rebuilt from one
 * recorded native run of the program instead of by executing the image
 * (DESIGN.md section 14.7).
 *
 * A compressed image runs the program's own instructions in the
 * program's own order; only where they sit and how many fetch slots
 * they take changes. So once the native run's control flow is known --
 * where each run of sequential instructions starts and that it ends in
 * a taken branch -- every compressed fetch follows from a table that
 * maps each native instruction index to what the image fetches there:
 * one plain instruction, one codeword covering several instructions,
 * or a far-branch stub whose fetches depend only on whether the
 * branch it replaces was taken.
 *
 * An image carries no map from instructions to items, so the table is
 * built the way control reaches code: from the entry point and the
 * jump tables, along every fall-through and every relative branch.
 * Executing an image also checked it, and the build keeps that check:
 * every item reached must reproduce the instructions it stands for,
 * and no instruction may be reached at two different items. A replay
 * rejects a run that starts anywhere but at an item's first
 * instruction and a run that retires more instructions than its step
 * budget. Failures raise the exceptions a CompressedCpu run raises:
 * MachineCheckError for the image and the trace, the catchable fatal
 * for the step budget.
 */

#ifndef CODECOMP_DECOMPRESS_REPLAY_HH
#define CODECOMP_DECOMPRESS_REPLAY_HH

#include <concepts>
#include <cstdint>
#include <vector>

#include "compress/image.hh"
#include "decompress/fetch.hh"
#include "program/program.hh"

namespace codecomp {

/**
 * The control flow of one native run, split at its taken branches.
 * Record it as the fetch observer of a Cpu run:
 * `cpu.run([&trace](const FetchEvent &e) { trace.record(e); })`.
 */
struct NativeTrace
{
    /** Sequential instructions [start, start + length) (instruction
     *  indices) ending in a taken branch -- or, for the last run of a
     *  trace with lastRunOpen, in the halt. */
    struct Run
    {
        uint32_t start;
        uint32_t length;
    };

    std::vector<Run> runs;

    /** The last run ended without a taken branch (the halting sc). */
    bool lastRunOpen = false;

    /** Append one native fetch event. */
    void
    record(const FetchEvent &event)
    {
        if (lastRunOpen)
            ++runs.back().length;
        else
            runs.push_back(
                {(event.addr - Program::textBase) / isa::instBytes, 1});
        lastRunOpen = !event.taken;
    }

    /** Per-instruction execution counts over a text of @p textSize
     *  instructions: the traffic profile of the run (as
     *  timing::profileExecutionCounts). */
    std::vector<uint64_t> executionCounts(size_t textSize) const;
};

/**
 * The fetch table of one compressed image of one program. Construction
 * checks the image against the program and raises MachineCheckError on
 * any mismatch; replay() then turns native traces of the program into
 * the image's fetch stream.
 */
class TraceReplayer
{
  public:
    TraceReplayer(const compress::CompressedImage &image,
                  const Program &program);

    /**
     * Hand @p on_fetch exactly the FetchEvents that running the image
     * on a CompressedCpu would (address, bytes, retired, codeword,
     * taken, rank), for the control flow in @p trace. Returns the
     * instructions retired. MachineCheckError if a run starts anywhere
     * but at an item's first instruction; catchable fatal if more than
     * @p max_steps instructions would retire.
     */
    template <typename OnFetch>
        requires std::invocable<OnFetch &, const FetchEvent &>
    uint64_t replay(const NativeTrace &trace, OnFetch &&on_fetch,
                    uint64_t max_steps) const;

  private:
    /** What the image fetches at one native instruction index. For an
     *  item's first instruction, event is the item's fetch with
     *  retired = the instructions it covers; retired == 0 marks an
     *  index no item begins at (inside a codeword, or never reached). */
    struct Slot
    {
        FetchEvent event{0, 0, 0, false, false};
        uint32_t stub = noStub; //!< index into stubs_, or noStub
    };

    /** The fetches of a far-branch stub group, by branch outcome. */
    struct Stub
    {
        std::vector<FetchEvent> taken;
        std::vector<FetchEvent> notTaken;
    };

    static constexpr uint32_t noStub = UINT32_MAX;

    /** Machine-check a trace that reaches instruction @p index other
     *  than at the first instruction of an item. */
    [[noreturn]] static void notAnItemStart(uint32_t index);

    /** Machine-check a trace run from @p start that leaves the text. */
    [[noreturn]] static void runPastText(uint32_t start);

    /** Catchable fatal: the replay's step budget is spent. */
    [[noreturn]] static void stepLimitExceeded(uint64_t max_steps);

    std::vector<Slot> slots_; //!< one per native instruction
    std::vector<Stub> stubs_;
};

template <typename OnFetch>
    requires std::invocable<OnFetch &, const FetchEvent &>
uint64_t
TraceReplayer::replay(const NativeTrace &trace, OnFetch &&on_fetch,
                      uint64_t max_steps) const
{
    uint64_t retired = 0;
    // The budget is checked before an event is handed on, as the
    // processor checks it before an instruction retires.
    auto emit = [&](const FetchEvent &event) {
        retired += event.retired;
        if (retired > max_steps)
            stepLimitExceeded(max_steps);
        on_fetch(event);
    };
    for (size_t r = 0; r < trace.runs.size(); ++r) {
        const NativeTrace::Run &run = trace.runs[r];
        uint64_t end = static_cast<uint64_t>(run.start) + run.length;
        if (end > slots_.size())
            runPastText(run.start);
        bool run_taken = r + 1 < trace.runs.size() || !trace.lastRunOpen;
        for (uint32_t index = run.start; index < end;) {
            const Slot &slot = slots_[index];
            if (slot.event.retired == 0)
                notAnItemStart(index);
            if (slot.stub != noStub) {
                const Stub &stub = stubs_[slot.stub];
                bool taken = run_taken && index + 1 == end;
                for (const FetchEvent &event :
                     taken ? stub.taken : stub.notTaken)
                    emit(event);
                ++index;
                continue;
            }
            FetchEvent event = slot.event;
            uint32_t left = static_cast<uint32_t>(end - index);
            if (left <= event.retired) {
                // The run ends in this item: its last instruction is
                // the taken branch (or the halt), which cuts a
                // dictionary expansion short where it falls.
                event.retired = left;
                event.taken = run_taken;
            }
            emit(event);
            index += event.retired;
        }
    }
    return retired;
}

} // namespace codecomp

#endif // CODECOMP_DECOMPRESS_REPLAY_HH
