#include "compress/compressor.hh"

#include <chrono>
#include <iterator>

#include "compress/pipeline.hh"

namespace codecomp::compress {

const char *
layoutModeName(LayoutMode mode)
{
    switch (mode) {
    case LayoutMode::Linear: return "linear";
    case LayoutMode::HotCold: return "hotcold";
    }
    return "?";
}

std::optional<LayoutMode>
parseLayoutModeName(std::string_view name)
{
    if (name == "linear")
        return LayoutMode::Linear;
    if (name == "hotcold")
        return LayoutMode::HotCold;
    return std::nullopt;
}

namespace {

/** The passes in order; compressWithSelection starts at RankAssign. */
constexpr struct
{
    const char *name;
    void (*run)(PipelineContext &);
} kPasses[] = {
    {"Enumerate", passEnumerate},
    {"Select", passSelect},
    {"RankAssign", passRankAssign},
    {"Layout", passLayout},
    {"BranchPatch", passBranchPatch},
    {"Emit", passEmit},
};
constexpr size_t kFirstPassAfterSelect = 2;

/** Run kPasses from @p first on, timing each into the returned stats. */
PipelineStats
runPasses(PipelineContext &ctx, size_t first)
{
    PipelineStats stats;
    stats.strategy = strategyName(ctx.config.strategy);
    stats.scheme = schemeName(ctx.config.scheme);
    stats.passes.reserve(std::size(kPasses) - first);
    for (size_t i = first; i < std::size(kPasses); ++i) {
        PassStats &record = stats.passes.emplace_back();
        record.name = kPasses[i].name;
        ctx.activePass = &record;
        auto start = std::chrono::steady_clock::now();
        kPasses[i].run(ctx);
        auto end = std::chrono::steady_clock::now();
        ctx.activePass = nullptr;
        record.millis =
            std::chrono::duration<double, std::milli>(end - start).count();
    }
    stats.selectionRounds = ctx.selection.rounds;
    return stats;
}

} // namespace

CompressedImage
compressProgram(const Program &program, const CompressorConfig &config,
                PipelineStats *stats, PipelineCache *cache,
                uint64_t programHash)
{
    PipelineContext ctx(program, config);
    ctx.cache = cache;
    ctx.programHash = programHash;
    PipelineStats run = runPasses(ctx, 0);
    if (stats)
        *stats = std::move(run);
    return std::move(ctx.image);
}

CompressedImage
compressWithSelection(const Program &program, const CompressorConfig &config,
                      SelectionResult selection)
{
    PipelineContext ctx(program, config);
    ctx.selection.selection = std::move(selection);
    runPasses(ctx, kFirstPassAfterSelect);
    return std::move(ctx.image);
}

} // namespace codecomp::compress
