/**
 * @file
 * The compressor entry points: selection + codeword assignment +
 * layout with branch patching (paper section 3), run as the fixed pass
 * sequence of pipeline.hh.
 *
 * Branch handling follows section 3.2: relative branches are never
 * compressed; after layout their offset fields are reinterpreted at
 * codeword granularity (the scheme's unit) and re-patched. Branches
 * whose target no longer fits the offset field are rewritten through an
 * absolute-target stub (lis/ori/mtctr/bctr on the reserved register r2),
 * the moral equivalent of the paper's jump-table fallback; conditional
 * branches get a short skip/trampoline pair so no condition needs
 * inverting. Jump tables in .data are re-patched with compressed-space
 * code pointers.
 */

#ifndef CODECOMP_COMPRESS_COMPRESSOR_HH
#define CODECOMP_COMPRESS_COMPRESSOR_HH

#include <optional>
#include <string_view>
#include <vector>

#include "compress/image.hh"
#include "compress/strategy.hh"

namespace codecomp::compress {

class PipelineCache;
struct PipelineStats;

/**
 * Code-placement policy applied by the Layout pass.
 *
 * Linear keeps the original instruction order. HotCold reorders
 * fall-through chains (maximal item runs that can only be entered at
 * the top and left by a branch at the bottom) by descending traffic
 * density, so the hottest code packs into the fewest cache lines;
 * cold chains keep their original relative order. Requires a traffic
 * profile (CompressorConfig::trafficProfile) and is semantics-
 * preserving: chains are broken only after instructions that cannot
 * fall through, and branch patching is address-map driven, so the
 * reordered image executes identically.
 */
enum class LayoutMode : uint8_t {
    Linear,
    HotCold,
};

/** CLI name of @p mode: "linear" or "hotcold". */
const char *layoutModeName(LayoutMode mode);

/** Inverse of layoutModeName; nullopt for unknown names. */
std::optional<LayoutMode> parseLayoutModeName(std::string_view name);

struct CompressorConfig
{
    Scheme scheme = Scheme::Baseline;

    /** Codeword budget; clipped to the scheme's maximum. */
    uint32_t maxEntries = 8192;

    /** Dictionary entry length limit in instructions (paper Fig 4). */
    uint32_t maxEntryLen = 4;

    /** Codeword cost assumed during greedy selection, in nibbles;
     *  0 means the scheme default (true cost for fixed-length schemes,
     *  2 nibbles for the nibble scheme). */
    uint32_t assumedCodewordNibbles = 0;

    /** Dictionary selection policy (strategy.hh). */
    StrategyKind strategy = StrategyKind::Greedy;

    /** Refit iteration bound when strategy == IterativeRefit. */
    uint32_t refitMaxRounds = 6;

    /** Code-placement policy for the Layout pass. */
    LayoutMode layout = LayoutMode::Linear;

    /** Per-instruction execution counts (index = original instruction
     *  index), e.g. from timing::profileExecutionCounts. Required to
     *  cover the whole program when layout == HotCold (catchable fatal
     *  otherwise); ignored under Linear. Part of the image cache key
     *  only (cache.hh): layout runs after Select, so profile-guided
     *  sweeps still share cached enumeration/selection work. */
    std::vector<uint64_t> trafficProfile;
};

/**
 * Compress @p program; the result is executable on CompressedCpu.
 * Reports per-pass timing and counters into @p stats when non-null.
 * With a @p cache, Enumerate and Select products are looked up in and
 * stored into it under @p programHash, which must hold
 * PipelineCache::programHash(program); the image is the same either
 * way.
 */
CompressedImage compressProgram(const Program &program,
                                const CompressorConfig &config,
                                PipelineStats *stats = nullptr,
                                PipelineCache *cache = nullptr,
                                uint64_t programHash = 0);

/** Compress with a pre-computed selection (used by ablation benches);
 *  runs the passes from RankAssign on. */
CompressedImage compressWithSelection(const Program &program,
                                      const CompressorConfig &config,
                                      SelectionResult selection);

} // namespace codecomp::compress

#endif // CODECOMP_COMPRESS_COMPRESSOR_HH
