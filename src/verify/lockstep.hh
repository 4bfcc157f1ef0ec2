/**
 * @file
 * Lockstep differential execution of a Program on the native Cpu and its
 * CompressedImage on the CompressedCpu.
 *
 * The two processors implement the same architecture over different code
 * address spaces (byte PCs vs nibble PCs, paper section 3.2). The
 * verifier drives them instruction-for-instruction over the same source
 * program and checks after every retired architectural instruction that
 * GPRs, CR, LR/CTR (modulo the documented byte-vs-nibble code-pointer
 * mapping), the store streams, and the output agree. Far-branch stubs --
 * synthetic instruction sequences the compressor inserts for branches
 * whose displacement no longer fits (section 3.2.2) -- retire several
 * compressed instructions for one native branch; the verifier recognises
 * stub groups and compares state at their boundaries.
 *
 * On divergence the verifier emits a bounded report: the last N retired
 * instructions of both sides, disassembled, with the native byte PC and
 * the compressed nibble PC plus the owning decoded item.
 */

#ifndef CODECOMP_VERIFY_LOCKSTEP_HH
#define CODECOMP_VERIFY_LOCKSTEP_HH

#include <string>
#include <vector>

#include "compress/image.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "program/program.hh"

namespace codecomp::verify {

struct LockstepConfig
{
    /** Abort with a max-steps divergence past this many retired
     *  instructions on the compressed side. */
    uint64_t maxSteps = CompressedCpu::defaultMaxSteps;

    /** Retired instructions of history per side in a divergence report. */
    unsigned window = 8;

    /** Stop after this many divergences (>= 1). */
    unsigned maxDivergences = 1;

    /** Run a full joint state check every N verified instructions
     *  (0 = only at entry and exit). */
    uint64_t fullCheckInterval = 0;
};

/** One retired instruction, as remembered by the history windows. */
struct RetiredInst
{
    uint64_t seq = 0;     //!< retire sequence number on its side
    uint32_t pc = 0;      //!< native byte PC / compressed nibble item PC
    isa::Inst inst;       //!< the decoded instruction
    unsigned slot = 0;    //!< slot within the compressed item
    bool synthetic = false; //!< far-branch stub instruction
    bool isCodeword = false;
    uint32_t rank = 0;    //!< dictionary rank when isCodeword
};

struct Divergence
{
    std::string kind;   //!< "gpr", "cr", "lr", "ctr", "pc-map",
                        //!< "inst-word", "store", "output", "halt",
                        //!< "memory", "native-panic", "compressed-panic",
                        //!< "max-steps"
    std::string detail; //!< human-readable specifics
    uint64_t atInst = 0; //!< verified-instruction count when detected
    std::vector<std::string> nativeWindow;     //!< disassembled history
    std::vector<std::string> compressedWindow; //!< disassembled history
};

struct LockstepResult
{
    uint64_t verifiedInsts = 0;   //!< paired native/compressed retires
    uint64_t syntheticInsts = 0;  //!< compressed-only stub retires
    uint64_t stubTraversals = 0;  //!< stub groups crossed; each pairs one
                                  //!< native branch with no compressed
                                  //!< retire of its own
    uint64_t fullStateChecks = 0; //!< joint memory walks performed
    bool nativeHalted = false;
    bool compressedHalted = false;
    ExecResult native;
    ExecResult compressed;
    std::vector<Divergence> divergences;

    bool ok() const { return divergences.empty(); }
};

/** Run @p program and @p image in lockstep until exit or divergence. */
LockstepResult runLockstep(const Program &program,
                           const compress::CompressedImage &image,
                           const LockstepConfig &config = {});

/** Render one divergence, including both history windows. */
std::string formatDivergence(const Divergence &divergence);

/** Render a whole result: verdict line plus every divergence. */
std::string formatReport(const LockstepResult &result);

/** @p v as "0x" and eight hex digits, as every report prints it. */
std::string hex32(uint32_t v);

} // namespace codecomp::verify

#endif // CODECOMP_VERIFY_LOCKSTEP_HH
