/**
 * @file
 * ccompress -- compress linked .ccp programs into .cci images.
 *
 *   ccompress prog.ccp -o prog.cci [--scheme <name>]
 *             [--strategy greedy|refit] [--max-entries N]
 *             [--max-len N] [--jobs N] [--stats] [--stats-json file]
 *   ccompress a.ccp b.ccp ... -o outdir/ [options]
 *   ccompress --list-schemes
 *   ccompress --list-strategies
 *
 * The scheme names come from the codec registry (compress/codec.hh);
 * --list-schemes prints the registered codecs with their parameters
 * (this output is the source of README.md's scheme table), and
 * --list-strategies does the same for the selection strategies
 * (compress/strategy.hh).
 *
 * With several inputs the output names an existing directory (or a
 * path ending in '/'), each program is written there as <stem>.cci,
 * and the compressions run concurrently, one parallel stage over the
 * inputs. --jobs N (default: hardware_concurrency) caps its width;
 * the compressed bytes are identical for every job count and every
 * strategy is deterministic.
 *
 * --stats-json writes a JSON array with one record per input: sizes,
 * ratio, and the pipeline's per-pass wall time and counters.
 */

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/analysis.hh"
#include "compress/compressor.hh"
#include "compress/objfile.hh"
#include "compress/pipeline.hh"
#include "support/json.hh"
#include "support/serialize.hh"
#include "support/thread_pool.hh"
#include "tool_common.hh"

using namespace codecomp;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: ccompress <in.ccp>... -o <out.cci | outdir/> "
                 "[--scheme %s] "
                 "[--strategy greedy|refit] [--max-entries N] "
                 "[--max-len N] [--jobs N] [--stats] "
                 "[--stats-json <file>]\n"
                 "       ccompress --list-schemes | --list-strategies\n",
                 compress::schemeCliNames().c_str());
    return tools::exitUserError;
}

/** Print the registered codecs as a markdown table (README source). */
int
listSchemes()
{
    std::printf("| scheme | codewords | unit | summary |\n");
    std::printf("|--------|-----------|------|---------|\n");
    for (const compress::SchemeCodec *codec : compress::allCodecs()) {
        const compress::SchemeParams &params = codec->params();
        std::printf("| `%s` | %u | %u nibble%s | %s |\n",
                    std::string(codec->cliName()).c_str(),
                    params.maxCodewords, params.unitNibbles,
                    params.unitNibbles == 1 ? "" : "s",
                    std::string(codec->summary()).c_str());
    }
    return tools::exitOk;
}

/** Same shape for the selection strategies (README source). */
int
listStrategies()
{
    std::printf("| strategy | summary |\n");
    std::printf("|----------|---------|\n");
    for (compress::StrategyKind kind : compress::allStrategyKinds())
        std::printf("| `%s` | %s |\n", compress::strategyName(kind),
                    compress::strategySummary(kind));
    return tools::exitOk;
}

int
badArg(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::fputs("ccompress: ", stderr);
    std::vfprintf(stderr, fmt, args);
    std::fputc('\n', stderr);
    va_end(args);
    return tools::exitUserError;
}

/** "dir/prog.ccp" -> "prog". */
std::string
stemOf(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    std::string name =
        slash == std::string::npos ? path : path.substr(slash + 1);
    size_t dot = name.find_last_of('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
}

/** Report for one input, assembled off-thread, printed in order. */
struct CompressReport
{
    std::string text;
    std::string json; //!< one --stats-json record, "" on failure
    bool failed = false;
};

void
appendSummary(CompressReport &report, const std::string &input,
              const std::string &output,
              const compress::CompressedImage &image, bool stats)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s: %u -> %zu bytes (text %zu + dict %zu), ratio "
                  "%.1f%%, %zu codewords, %u far-branch stubs -> %s\n",
                  input.c_str(), image.originalTextBytes,
                  image.totalBytes(), image.compressedTextBytes(),
                  image.dictionaryBytes(), image.compressionRatio() * 100,
                  image.entriesByRank.size(), image.farBranchExpansions,
                  output.c_str());
    report.text += buf;
    if (!stats)
        return;
    const compress::Composition &comp = image.composition;
    double total = static_cast<double>(comp.totalNibbles());
    std::snprintf(buf, sizeof(buf),
                  "composition: insns %.1f%%, codewords %.1f%%, "
                  "escapes %.1f%%, dictionary %.1f%%\n",
                  100 * comp.insnNibbles / total,
                  100 * comp.codewordNibbles / total,
                  100 * comp.escapeNibbles / total,
                  100 * comp.dictNibbles / total);
    report.text += buf;
    analysis::DictionaryUsage usage =
        analysis::analyzeDictionaryUsage(image);
    for (const auto &[len, count] : usage.entriesByLength) {
        std::snprintf(
            buf, sizeof(buf),
            "  %u-instruction entries: %u (%.1f%% of savings)\n", len,
            count,
            100.0 *
                static_cast<double>(usage.bytesSavedByLength.at(len)) /
                static_cast<double>(usage.totalBytesSaved));
        report.text += buf;
    }
}

/** One --stats-json record; the pipeline stats are already JSON. */
std::string
jsonRecord(const std::string &input, const std::string &output,
           const compress::CompressedImage &image,
           const compress::PipelineStats &stats)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"total_bytes\":%zu,\"text_bytes\":%zu,"
                  "\"dict_bytes\":%zu,\"ratio\":%.6f,"
                  "\"far_branch_expansions\":%u,",
                  image.totalBytes(), image.compressedTextBytes(),
                  image.dictionaryBytes(), image.compressionRatio(),
                  image.farBranchExpansions);
    return "{\"input\":\"" + jsonEscape(input) + "\",\"output\":\"" +
           jsonEscape(output) + "\"," + buf +
           "\"pipeline\":" + stats.toJson() + "}";
}

int
run(int argc, char **argv)
{
    std::vector<std::string> inputs;
    std::string output;
    std::string statsJsonPath;
    bool stats = false;
    uint32_t maxEntriesArg = 0; // unset; validated against the scheme below
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;
    config.maxEntries = 4680;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "-o" && i + 1 < argc) {
            output = argv[++i];
        } else if (arg == "--scheme" && i + 1 < argc) {
            std::string scheme = argv[++i];
            auto kind = compress::parseSchemeName(scheme);
            if (!kind)
                return badArg("unknown scheme '%s' (expected %s)",
                              scheme.c_str(),
                              compress::schemeCliNames(", ").c_str());
            config.scheme = *kind;
        } else if (arg == "--list-schemes") {
            return listSchemes();
        } else if (arg == "--list-strategies") {
            return listStrategies();
        } else if (arg == "--strategy" && i + 1 < argc) {
            // The shared parser's catchable fatal names the registry's
            // strategies; runTool turns it into a usage-error exit.
            config.strategy =
                compress::parseStrategyNameOrFatal(argv[++i]);
        } else if (arg == "--max-entries" && i + 1 < argc) {
            maxEntriesArg =
                tools::flagValue<uint32_t>("--max-entries", argv[++i], 1);
        } else if (arg == "--max-len" && i + 1 < argc) {
            config.maxEntryLen =
                tools::flagValue<uint32_t>("--max-len", argv[++i], 1);
        } else if (arg == "--jobs" && i + 1 < argc) {
            setGlobalJobs(tools::flagValue<unsigned>("--jobs", argv[++i], 1));
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--stats-json" && i + 1 < argc) {
            statsJsonPath = argv[++i];
        } else if (!arg.empty() && arg[0] != '-') {
            inputs.push_back(arg);
        } else {
            return usage();
        }
    }
    if (inputs.empty() || output.empty())
        return usage();
    // --max-entries is validated against the final scheme (the flags
    // may come in any order) rather than silently clipped.
    if (maxEntriesArg != 0) {
        unsigned max = compress::schemeParams(config.scheme).maxCodewords;
        if (maxEntriesArg > max)
            return badArg("--max-entries %u out of range for scheme "
                          "%s (1..%u)",
                          maxEntriesArg,
                          compress::schemeName(config.scheme), max);
        config.maxEntries = maxEntriesArg;
    }
    bool outdir = output.back() == '/';
    if (inputs.size() > 1 && !outdir) {
        std::fprintf(stderr,
                     "ccompress: several inputs need a directory "
                     "output (end it with '/')\n");
        return tools::exitUserError;
    }

    // Each input is an independent compress; fan the batch out in one
    // parallel stage and print reports in input order.
    bool wantJson = !statsJsonPath.empty();
    std::vector<CompressReport> reports = parallelMap<CompressReport>(
        inputs.size(), [&](size_t i) {
            const std::string &input = inputs[i];
            std::string out = outdir
                                  ? output + stemOf(input) + ".cci"
                                  : output;
            CompressReport report;
            try {
                Program program = loadProgram(readFile(input));
                compress::PipelineStats pipeStats;
                compress::CompressedImage image =
                    compress::compressProgram(program, config,
                                              &pipeStats);
                writeFile(out, saveImage(image));
                appendSummary(report, input, out, image, stats);
                if (wantJson)
                    report.json = jsonRecord(input, out, image, pipeStats);
            } catch (const std::exception &error) {
                report.text = std::string("ccompress: ") + input + ": " +
                              error.what() + "\n";
                report.failed = true;
            }
            return report;
        });

    int status = tools::exitOk;
    std::string jsonOut = "[";
    for (const CompressReport &report : reports) {
        std::fputs(report.text.c_str(),
                   report.failed ? stderr : stdout);
        if (report.failed)
            status = tools::exitUserError;
        if (!report.json.empty()) {
            if (jsonOut.size() > 1)
                jsonOut += ",";
            jsonOut += report.json;
        }
    }
    jsonOut += "]\n";
    if (wantJson && status == tools::exitOk)
        writeFile(statsJsonPath,
                  std::vector<uint8_t>(jsonOut.begin(), jsonOut.end()));
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runTool("ccompress", [&] { return run(argc, argv); });
}
