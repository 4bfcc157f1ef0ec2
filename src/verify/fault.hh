/**
 * @file
 * Seeded mutation campaigns, the self-tests that prove the lockstep
 * harness and the hardened loader catch what they claim to. A plan
 * names kinds, a seed and a step budget; the runner makes one pristine
 * run of the image, derives every mutant from it, and judges each by
 * its kind's oracle:
 *
 *  - a lockstep fault mutates an executed item (dictionary word,
 *    codeword rank, taken branch displacement), keeping every size so
 *    the address map stays valid; runLockstep must report it;
 *  - a byte mutation of the .cci file, or a structural mutation of the
 *    in-memory image, must be load-rejected, machine-check trapped, or
 *    run identically. An abort or a silent divergence is a hardening
 *    failure.
 */

#ifndef CODECOMP_VERIFY_FAULT_HH
#define CODECOMP_VERIFY_FAULT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "compress/image.hh"
#include "decompress/machine.hh"
#include "program/program.hh"
#include "verify/lockstep.hh"

namespace codecomp::verify {

enum class MutationKind : uint8_t {
    // Lockstep faults: the harness must detect them.
    DictEntryWord, //!< corrupt one word of an executed dictionary entry
    CodewordRank,  //!< swap an executed codeword to a same-width rank
    BranchDisp,    //!< retarget an executed, taken relative branch
    // Byte mutations of the serialized image: contained or identical.
    BitFlip,   //!< flip one bit anywhere in the file
    Truncate,  //!< cut the file short at an arbitrary byte
    Splice,    //!< copy one span of the file over another
    LengthLie, //!< overwrite 4 bytes with an arbitrary value
    // The fixed set of in-memory structural mutants.
    Structural,
};

/** Stable name of @p kind ("dict-entry-word", "bit-flip", ...). */
const char *kindName(MutationKind kind);

inline bool
isLockstepKind(MutationKind kind)
{
    return kind <= MutationKind::BranchDisp;
}

inline bool
isByteKind(MutationKind kind)
{
    return kind >= MutationKind::BitFlip && kind <= MutationKind::LengthLie;
}

struct Mutant
{
    MutationKind kind;
    bool hasSite = true;             //!< if not, description says why
    std::string description;         //!< what was mutated, and where
    compress::CompressedImage image; //!< lockstep and structural kinds
    std::vector<uint8_t> bytes;      //!< byte kinds: the mutated file
};

/** How one mutant fared against its kind's oracle. */
enum class MutantOutcome : uint8_t {
    Detected,         //!< lockstep reported the fault
    LoadRejected,     //!< typed LoadError before any execution
    Trapped,          //!< machine check or watchdog during execution
    RanIdentical,     //!< executed; result matched the pristine run
    NoSite,           //!< nothing to mutate; reported, not a finding
    Undetected,       //!< lockstep verified the fault -- finding
    SilentDivergence, //!< executed; result differed -- finding
    Panicked,         //!< internal invariant tripped -- finding
};

const char *outcomeName(MutantOutcome outcome);

struct MutantReport
{
    MutationKind kind;
    MutantOutcome outcome;
    std::string description; //!< what was mutated, and where
    /** Lockstep kinds: the divergence report, or how far the faulty
     *  run verified; otherwise the load error, fault or divergence. */
    std::string detail;

    /** Not a finding. */
    bool
    acceptable() const
    {
        return outcome < MutantOutcome::Undetected;
    }
};

/**
 * What to mutate, in this order: one mutant per lockstep kind, each
 * from its own Rng(seed); @p count byte mutants from one shared
 * Rng(seed), the plan's byte kinds taking turns; then the structural
 * set if planned.
 */
struct MutationPlan
{
    std::vector<MutationKind> kinds;
    uint64_t count = 0;
    uint64_t seed = 1;
    LockstepConfig lockstep; //!< maxSteps budgets every run
};

/** The unmutated image's run: its result and, per item (engine
 *  index), whether it ran and whether control left it other than by
 *  falling through. */
struct PristineRun
{
    ExecResult result;
    std::vector<bool> executed, redirected;
};

/** Run @p image; not halting within @p max_steps is CC_FATAL. */
PristineRun runPristine(const compress::CompressedImage &image,
                        uint64_t max_steps);

/** Hand every mutant of @p plan, in plan order, to @p visit. */
void forEachMutant(const Program &program,
                   const compress::CompressedImage &image,
                   const PristineRun &pristine, const MutationPlan &plan,
                   const std::function<void(const Mutant &)> &visit);

/** Every mutant's report, in plan order. */
struct CampaignReport
{
    std::vector<MutantReport> mutants;

    size_t count(MutantOutcome outcome) const;
    bool ok() const; //!< no findings
};

/** Pristine run, then make every mutant of @p plan and judge it by its
 *  kind's oracle (containment runs trap panics). */
CampaignReport runCampaign(const Program &program,
                           const compress::CompressedImage &image,
                           const MutationPlan &plan);

} // namespace codecomp::verify

#endif // CODECOMP_VERIFY_FAULT_HH
