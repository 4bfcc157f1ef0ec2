/**
 * @file
 * Seeded fault injection for the lockstep harness: mutate one aspect of
 * a compressed image -- a dictionary entry word, a codeword's rank, or
 * a branch displacement -- in a way that provably fires during
 * execution, then let runLockstep demonstrate that the divergence is
 * caught and reported.
 *
 * Mutations are chosen from a profiling run of the pristine image so
 * that the corrupted item is actually executed (and, for branches,
 * actually taken); sizes are preserved so the surrounding stream and
 * the address map stay valid.
 */

#ifndef CODECOMP_VERIFY_FAULT_HH
#define CODECOMP_VERIFY_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "compress/image.hh"
#include "decompress/machine.hh"
#include "program/program.hh"
#include "support/rng.hh"

namespace codecomp::verify {

enum class FaultKind {
    DictEntryWord, //!< corrupt one word of an executed dictionary entry
    CodewordRank,  //!< swap an executed codeword to a same-width rank
    BranchDisp,    //!< retarget an executed, taken relative branch
};

const char *faultKindName(FaultKind kind);

struct FaultInjection
{
    FaultKind kind;
    compress::CompressedImage image; //!< the mutated image
    std::string description;        //!< what was mutated, and where
};

/**
 * Produce a mutated copy of @p image. The mutation site is chosen from
 * a profiling run of the pristine image. Deterministic in @p seed.
 */
FaultInjection injectFault(const compress::CompressedImage &image,
                           FaultKind kind, uint64_t seed);

// ---------------------------------------------------------------------
// Corruption campaign: adversarial mutations of *serialized* images and
// of in-memory structures, each of which must be rejected by the loader,
// trapped by a machine check, or be provably behavior-preserving. An
// abort or a silent divergence is a hardening failure.
// ---------------------------------------------------------------------

/** Byte-level mutation applied to a serialized .cci file. */
enum class CorruptionKind : uint8_t {
    BitFlip,   //!< flip one bit anywhere in the file
    Truncate,  //!< cut the file short at an arbitrary byte
    Splice,    //!< copy one span of the file over another
    LengthLie, //!< overwrite 4 bytes with an arbitrary value
};

const char *corruptionKindName(CorruptionKind kind);

/** How one mutant fared against the hardened load/execute pipeline. */
enum class MutantOutcome : uint8_t {
    LoadRejected,     //!< typed LoadError before any execution
    Trapped,          //!< machine check or watchdog during execution
    RanIdentical,     //!< executed; result matched the pristine run
    SilentDivergence, //!< executed; result differed -- hardening failure
    Panicked,         //!< internal invariant tripped -- hardening failure
};

const char *mutantOutcomeName(MutantOutcome outcome);

struct MutantReport
{
    MutantOutcome outcome;
    std::string description; //!< what was mutated, and where
    std::string detail;      //!< load error / fault / divergence text

    /** Reject, trap, and provably-identical runs are all safe. */
    bool
    acceptable() const
    {
        return outcome == MutantOutcome::LoadRejected ||
               outcome == MutantOutcome::Trapped ||
               outcome == MutantOutcome::RanIdentical;
    }
};

/**
 * Apply @p kind to a copy of @p bytes, drawing positions from @p rng;
 * @p description is set to a human-readable account of the mutation.
 */
std::vector<uint8_t> corruptBytes(const std::vector<uint8_t> &bytes,
                                  CorruptionKind kind, Rng &rng,
                                  std::string &description);

/**
 * Load @p mutant through tryLoadImage and, if it loads, execute it
 * (panics trapped) and compare against @p expected -- the ExecResult of
 * the pristine image.
 */
MutantReport classifyMutantBytes(const std::vector<uint8_t> &mutant,
                                 const ExecResult &expected,
                                 uint64_t max_steps,
                                 std::string description);

/** An in-memory mutated image (bypasses the file checksum). */
struct StructuralMutant
{
    compress::CompressedImage image;
    std::string description;
};

/**
 * Deterministic set of in-memory structural mutations of @p image:
 * validator bait (illegal dictionary words, out-of-range ranks, lying
 * nibble counts, out-of-range entry points, truncated streams) plus
 * jump-table code pointers redirected out of the compressed text, which
 * load-validate cleanly but must machine-check when consumed.
 */
std::vector<StructuralMutant>
structuralMutants(const Program &program,
                  const compress::CompressedImage &image);

/** Validate and, if valid, execute one structural mutant. */
MutantReport classifyMutantImage(const compress::CompressedImage &mutant,
                                 const ExecResult &expected,
                                 uint64_t max_steps,
                                 std::string description);

/** Tally of a whole campaign; ok() means no hardening failures. */
struct CorruptionCampaign
{
    uint64_t total = 0;
    uint64_t loadRejected = 0;
    uint64_t trapped = 0;
    uint64_t ranIdentical = 0;
    std::vector<MutantReport> failures;

    bool ok() const { return failures.empty(); }
};

/**
 * Run @p count seeded byte-level mutants of the serialized form of
 * @p image (kinds round-robin), then the structural mutant set, and
 * tally the outcomes. Deterministic in @p seed.
 */
CorruptionCampaign
runCorruptionCampaign(const Program &program,
                      const compress::CompressedImage &image,
                      uint64_t count, uint64_t seed, uint64_t max_steps);

} // namespace codecomp::verify

#endif // CODECOMP_VERIFY_FAULT_HH
