/**
 * @file
 * google-benchmark microbenchmarks for the decode-efficiency discussion
 * (paper section 2.1): dictionary decompression is a table lookup while
 * entropy coding pays per-bit work. Measures compressor throughput,
 * candidate enumeration and dictionary selection, stream decode (item
 * scan), and compressed vs native execution rates.
 *
 * After the registered benchmarks, main() times one end-to-end
 * compression of the whole eight-workload suite serially and in
 * parallel, and emits a single machine-readable JSON line
 * (prefixed "PERF_JSON: ") so the bench trajectory can track the
 * parallel speedup over time. --jobs controls the parallel leg's
 * worker count.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <unordered_map>

#include <unistd.h>

#include "baselines/huffman.hh"
#include "baselines/lzw.hh"
#include "compress/candidates.hh"
#include "compress/compressor.hh"
#include "compress/pipeline.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "farm/farm.hh"
#include "support/thread_pool.hh"
#include "workloads/workloads.hh"
#include "common.hh"

using namespace codecomp;
using namespace codecomp::compress;

namespace {

const Program &
ijpeg()
{
    static Program program = workloads::buildBenchmark("ijpeg");
    return program;
}

std::vector<uint8_t>
ijpegBytes()
{
    std::vector<uint8_t> bytes;
    for (isa::Word word : ijpeg().text) {
        bytes.push_back(static_cast<uint8_t>(word >> 24));
        bytes.push_back(static_cast<uint8_t>(word >> 16));
        bytes.push_back(static_cast<uint8_t>(word >> 8));
        bytes.push_back(static_cast<uint8_t>(word));
    }
    return bytes;
}

void
BM_CompressProgram(benchmark::State &state)
{
    CompressorConfig config;
    config.scheme = static_cast<Scheme>(state.range(0));
    config.maxEntries = 8192;
    for (auto _ : state) {
        CompressedImage image = compressProgram(ijpeg(), config);
        benchmark::DoNotOptimize(image.textNibbles);
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            ijpeg().textBytes());
}
BENCHMARK(BM_CompressProgram)->Arg(0)->Arg(1)->Arg(2);

void
BM_StreamDecode(benchmark::State &state)
{
    // The decompression engine's sequential scan: the per-item decode
    // rule a hardware fetch stage applies.
    CompressorConfig config;
    config.scheme = static_cast<Scheme>(state.range(0));
    config.maxEntries = 8192;
    CompressedImage image = compressProgram(ijpeg(), config);
    for (auto _ : state) {
        DecompressionEngine engine(image);
        benchmark::DoNotOptimize(engine.items().size());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(
                                image.compressedTextBytes()));
}
BENCHMARK(BM_StreamDecode)->Arg(0)->Arg(1)->Arg(2);

void
BM_FetchExpand(benchmark::State &state)
{
    // Steady-state decode-stage work: random-access item lookup plus
    // dictionary expansion -- the per-fetch cost a compressed-code
    // processor pays (a table lookup, per paper section 2.1).
    CompressorConfig config;
    config.scheme = static_cast<Scheme>(state.range(0));
    config.maxEntries = 8192;
    CompressedImage image = compressProgram(ijpeg(), config);
    DecompressionEngine engine(image);
    std::vector<uint32_t> addrs;
    for (const DecodedItem &item : engine.items())
        addrs.push_back(item.nibbleAddr);
    size_t insns = 0;
    for (auto _ : state) {
        uint64_t sink = 0;
        insns = 0;
        for (uint32_t addr : addrs) {
            const DecodedItem &item = engine.itemAt(addr);
            if (item.isCodeword) {
                for (isa::Word word : engine.entry(item.rank)) {
                    sink += word;
                    ++insns;
                }
            } else {
                sink += item.word;
                ++insns;
            }
        }
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(insns));
}
BENCHMARK(BM_FetchExpand)->Arg(0)->Arg(1)->Arg(2);

/** Item start addresses in a deterministically shuffled (branchy) order. */
std::vector<uint32_t>
shuffledItemAddrs(const DecompressionEngine &engine)
{
    std::vector<uint32_t> addrs;
    for (const DecodedItem &item : engine.items())
        addrs.push_back(item.nibbleAddr);
    uint64_t lcg = 88172645463325252ull;
    for (size_t i = addrs.size(); i > 1; --i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        std::swap(addrs[i - 1], addrs[(lcg >> 33) % i]);
    }
    return addrs;
}

void
BM_ItemLookupDense(benchmark::State &state)
{
    // The engine's dense nibble->index table: the per-fetch lookup on
    // the compressed processor's hottest path.
    CompressorConfig config;
    config.scheme = Scheme::Nibble;
    config.maxEntries = 8192;
    CompressedImage image = compressProgram(ijpeg(), config);
    DecompressionEngine engine(image);
    std::vector<uint32_t> addrs = shuffledItemAddrs(engine);
    for (auto _ : state) {
        uint64_t sink = 0;
        for (uint32_t addr : addrs)
            sink += engine.itemIndexAt(addr);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(addrs.size()));
}
BENCHMARK(BM_ItemLookupDense);

void
BM_ItemLookupHashMap(benchmark::State &state)
{
    // Reference point: the unordered_map the engine used before the
    // dense table, rebuilt here so the two structures answer the same
    // queries over the same stream.
    CompressorConfig config;
    config.scheme = Scheme::Nibble;
    config.maxEntries = 8192;
    CompressedImage image = compressProgram(ijpeg(), config);
    DecompressionEngine engine(image);
    std::unordered_map<uint32_t, uint32_t> by_addr;
    const std::vector<DecodedItem> &items = engine.items();
    for (uint32_t i = 0; i < items.size(); ++i)
        by_addr.emplace(items[i].nibbleAddr, i);
    std::vector<uint32_t> addrs = shuffledItemAddrs(engine);
    for (auto _ : state) {
        uint64_t sink = 0;
        for (uint32_t addr : addrs)
            sink += by_addr.at(addr);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(addrs.size()));
}
BENCHMARK(BM_ItemLookupHashMap);

void
BM_HuffmanDecodeSameText(benchmark::State &state)
{
    // The CCRP-style comparison point: per-bit entropy decoding.
    std::vector<uint8_t> bytes = ijpegBytes();
    auto code =
        baselines::HuffmanCode::build(baselines::byteFrequencies(bytes));
    BitWriter writer;
    for (uint8_t byte : bytes)
        code.encode(writer, byte);
    for (auto _ : state) {
        BitReader reader(writer.bytes().data(), writer.bitCount());
        uint32_t sink = 0;
        for (size_t i = 0; i < bytes.size(); ++i)
            sink += code.decode(reader);
        benchmark::DoNotOptimize(sink);
    }
    // Items = instructions decoded (4 bytes each), comparable with
    // BM_FetchExpand's items_per_second.
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(bytes.size() / 4));
}
BENCHMARK(BM_HuffmanDecodeSameText);

void
BM_LzwRoundTrip(benchmark::State &state)
{
    std::vector<uint8_t> bytes = ijpegBytes();
    for (auto _ : state) {
        auto compressed = baselines::lzwCompress(bytes);
        benchmark::DoNotOptimize(compressed.size());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_LzwRoundTrip);

void
BM_NativeExecution(benchmark::State &state)
{
    for (auto _ : state) {
        ExecResult result = runProgram(ijpeg());
        benchmark::DoNotOptimize(result.instCount);
    }
}
BENCHMARK(BM_NativeExecution);

void
BM_CompressedExecution(benchmark::State &state)
{
    CompressorConfig config;
    config.scheme = static_cast<Scheme>(state.range(0));
    config.maxEntries = 8192;
    CompressedImage image = compressProgram(ijpeg(), config);
    for (auto _ : state) {
        ExecResult result = runCompressed(image);
        benchmark::DoNotOptimize(result.instCount);
    }
}
BENCHMARK(BM_CompressedExecution)->Arg(0)->Arg(1)->Arg(2);

void
BM_Enumerate(benchmark::State &state)
{
    // Candidate enumeration -- the dictionary-building hot loop -- on
    // gcc at paper scale (--scale 16, about 282k instructions).
    static const Program program = workloads::buildBenchmark("gcc", 16);
    Cfg cfg = Cfg::build(program);
    uint64_t bytes = 0;
    for (auto _ : state) {
        CandidateSet candidates = enumerateCandidates(program, cfg, 1, 4);
        bytes = candidates.bytes();
        benchmark::DoNotOptimize(candidates.size());
    }
    state.counters["candidate_bytes"] = static_cast<double>(bytes);
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            program.textBytes());
}
BENCHMARK(BM_Enumerate)->Unit(benchmark::kMillisecond);

void
BM_Select(benchmark::State &state)
{
    // Dictionary selection over one pre-built candidate set: gcc at
    // paper scale under the nibble scheme, greedy (Arg 0) or refit
    // (Arg 1), as ccompress --stats-json reports in its Select pass.
    static const Program program = workloads::buildBenchmark("gcc", 16);
    CompressorConfig config;
    config.scheme = Scheme::Nibble;
    config.strategy = state.range(0) ? StrategyKind::IterativeRefit
                                     : StrategyKind::Greedy;
    PipelineContext ctx(program, config);
    static const CandidateSet candidates = enumerateCandidates(
        program, Cfg::build(program), ctx.greedy.minEntryLen,
        ctx.greedy.maxEntryLen);
    uint32_t rounds = 0;
    for (auto _ : state) {
        SelectProduct product =
            selectDictionary(config.strategy, config.refitMaxRounds,
                             candidates, ctx.greedy, config.scheme);
        rounds = product.rounds;
        benchmark::DoNotOptimize(product.selection.placements.data());
    }
    state.counters["rounds"] = rounds;
    state.SetLabel(strategyName(config.strategy));
}
BENCHMARK(BM_Select)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/** Wall time in ms to compress every suite program at @p jobs. */
double
suiteCompressMs(const std::vector<std::pair<std::string, Program>> &suite,
                unsigned jobs)
{
    unsigned previous = globalJobs();
    setGlobalJobs(jobs);
    auto start = std::chrono::steady_clock::now();
    std::vector<size_t> sizes = parallelMap<size_t>(
        suite.size(), [&suite](size_t i) {
            CompressorConfig config;
            config.scheme = Scheme::Nibble;
            config.maxEntries = 4680;
            return compressProgram(suite[i].second, config).totalBytes();
        });
    auto end = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(sizes.data());
    setGlobalJobs(previous);
    return std::chrono::duration<double, std::milli>(end - start)
        .count();
}

void
reportSuiteSpeedup()
{
    std::vector<std::pair<std::string, Program>> suite;
    for (const std::string &name : workloads::benchmarkNames())
        suite.emplace_back(name, workloads::buildBenchmark(name));

    unsigned jobs = globalJobs();
    suiteCompressMs(suite, 1); // warm caches so both legs are steady
    double serial_ms = suiteCompressMs(suite, 1);
    double parallel_ms = suiteCompressMs(suite, jobs);
    std::printf("suite compress (8 workloads, nibble): serial %.1f ms, "
                "%u jobs %.1f ms, speedup %.2fx\n",
                serial_ms, jobs, parallel_ms, serial_ms / parallel_ms);
    std::printf("PERF_JSON: {\"bench\":\"suite_compress_wall\","
                "\"workloads\":%zu,\"scheme\":\"nibble\","
                "\"serial_ms\":%.2f,\"parallel_ms\":%.2f,\"jobs\":%u,"
                "\"speedup\":%.3f}\n",
                suite.size(), serial_ms, parallel_ms, jobs,
                serial_ms / parallel_ms);
}

void
reportItemLookup()
{
    // One PERF_JSON line pinning the itemAt fast path: dense
    // nibble->index table vs the hash map it replaced, same shuffled
    // query stream.
    CompressorConfig config;
    config.scheme = Scheme::Nibble;
    config.maxEntries = 8192;
    CompressedImage image = compressProgram(ijpeg(), config);
    DecompressionEngine engine(image);
    std::unordered_map<uint32_t, uint32_t> by_addr;
    const std::vector<DecodedItem> &items = engine.items();
    for (uint32_t i = 0; i < items.size(); ++i)
        by_addr.emplace(items[i].nibbleAddr, i);
    std::vector<uint32_t> addrs = shuffledItemAddrs(engine);

    constexpr int rounds = 200;
    auto time_ns_per_lookup = [&addrs](auto &&lookup) {
        uint64_t sink = 0;
        for (uint32_t addr : addrs) // warm
            sink += lookup(addr);
        auto start = std::chrono::steady_clock::now();
        for (int r = 0; r < rounds; ++r)
            for (uint32_t addr : addrs)
                sink += lookup(addr);
        auto end = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(sink);
        return std::chrono::duration<double, std::nano>(end - start)
                   .count() /
               (static_cast<double>(rounds) * addrs.size());
    };
    double dense_ns = time_ns_per_lookup(
        [&engine](uint32_t addr) { return engine.itemIndexAt(addr); });
    double hash_ns = time_ns_per_lookup(
        [&by_addr](uint32_t addr) { return by_addr.at(addr); });
    std::printf("item lookup (%zu items, shuffled): dense %.2f ns, "
                "hash map %.2f ns, speedup %.2fx\n",
                addrs.size(), dense_ns, hash_ns, hash_ns / dense_ns);
    std::printf("PERF_JSON: {\"bench\":\"item_lookup\","
                "\"items\":%zu,\"dense_ns\":%.3f,\"hash_ns\":%.3f,"
                "\"speedup\":%.3f}\n",
                addrs.size(), dense_ns, hash_ns, hash_ns / dense_ns);
}

void
reportDecodeScan()
{
    // PERF_JSON line for the table-driven window scan: one engine
    // construction over the ijpeg nibble image.
    CompressorConfig config;
    config.scheme = Scheme::Nibble;
    config.maxEntries = 8192;
    CompressedImage image = compressProgram(ijpeg(), config);

    constexpr int rounds = 50;
    DecompressionEngine warm(image); // warm allocator/caches
    size_t items = warm.items().size();
    benchmark::DoNotOptimize(items);
    auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) {
        DecompressionEngine engine(image);
        benchmark::DoNotOptimize(engine.items().size());
    }
    auto end = std::chrono::steady_clock::now();
    double fast_ms =
        std::chrono::duration<double, std::milli>(end - start).count() /
        rounds;
    std::printf("stream decode scan (ijpeg nibble, %zu items): "
                "%.3f ms\n",
                items, fast_ms);
    std::printf("PERF_JSON: {\"bench\":\"decode_scan\","
                "\"scheme\":\"nibble\",\"items\":%zu,"
                "\"fast_ms\":%.4f}\n",
                items, fast_ms);
}

void
reportExpandCache()
{
    // PERF_JSON line for the pre-decoded entry cache: expanding every
    // codeword in the stream through decodedEntry() (a cache walk) vs
    // re-running isa::decode per slot (what step() used to do).
    CompressorConfig config;
    config.scheme = Scheme::Nibble;
    config.maxEntries = 8192;
    CompressedImage image = compressProgram(ijpeg(), config);
    DecompressionEngine engine(image);
    std::vector<uint32_t> ranks;
    for (const DecodedItem &item : engine.items())
        if (item.isCodeword)
            ranks.push_back(item.rank);

    constexpr int rounds = 200;
    size_t insns = 0;
    auto time_ns_per_inst = [&](auto &&expand) {
        uint64_t sink = 0;
        insns = 0;
        for (uint32_t rank : ranks) // warm, and count the slots
            insns += expand(rank, sink);
        auto start = std::chrono::steady_clock::now();
        for (int r = 0; r < rounds; ++r)
            for (uint32_t rank : ranks)
                expand(rank, sink);
        auto end = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(sink);
        return std::chrono::duration<double, std::nano>(end - start)
                   .count() /
               (static_cast<double>(rounds) * insns);
    };
    double cached_ns =
        time_ns_per_inst([&engine](uint32_t rank, uint64_t &sink) {
            DecodedEntry entry = engine.decodedEntry(rank);
            for (const isa::Inst &inst : entry)
                sink += static_cast<uint64_t>(inst.op);
            return entry.size();
        });
    double decode_ns =
        time_ns_per_inst([&engine](uint32_t rank, uint64_t &sink) {
            const std::vector<isa::Word> &entry = engine.entry(rank);
            for (isa::Word word : entry)
                sink += static_cast<uint64_t>(isa::decode(word).op);
            return entry.size();
        });
    std::printf("codeword expansion (%zu codewords, %zu insts): "
                "cached %.2f ns/inst, isa::decode %.2f ns/inst, "
                "speedup %.2fx\n",
                ranks.size(), insns, cached_ns, decode_ns,
                decode_ns / cached_ns);
    std::printf("PERF_JSON: {\"bench\":\"expand_cache\","
                "\"codewords\":%zu,\"insts\":%zu,"
                "\"cached_ns\":%.3f,\"decode_ns\":%.3f,"
                "\"speedup\":%.3f}\n",
                ranks.size(), insns, cached_ns, decode_ns,
                decode_ns / cached_ns);
}

void
reportPassTimings()
{
    // Per-pass wall time through the pipeline: where a compression run
    // actually spends its milliseconds (ijpeg, nibble, greedy). One
    // warm run first so allocator and page-cache effects settle.
    CompressorConfig config;
    config.scheme = Scheme::Nibble;
    config.maxEntries = 4680;
    compressProgram(ijpeg(), config);
    compress::PipelineStats stats;
    compressProgram(ijpeg(), config, &stats);
    std::printf("pipeline passes (ijpeg, nibble): total %.2f ms\n",
                stats.totalMillis());
    for (const compress::PassStats &pass : stats.passes)
        std::printf("  %-12s %8.3f ms\n", pass.name.c_str(), pass.millis);
    std::printf("PERF_JSON: {\"bench\":\"pipeline_pass_wall\","
                "\"workload\":\"ijpeg\",\"pipeline\":%s}\n",
                stats.toJson().c_str());
}

void
reportFarmThroughput()
{
    // Farm throughput over the starter corpus (8 workloads x every
    // scheme x 2 strategies) with the run's in-memory cache, after one
    // warm-up run of the same queue on the same pool.
    std::vector<farm::FarmJob> corpus = farm::starterCorpus();
    farm::runFarm(corpus); // warm
    farm::FarmReport report = farm::runFarm(corpus);

    double jobs_per_s = 1000.0 * static_cast<double>(corpus.size()) /
                        report.compressMillis;
    std::printf("farm throughput (%zu jobs, %u workers): %.1f ms "
                "(%.1f jobs/s)\n",
                corpus.size(), report.poolJobs, report.compressMillis,
                jobs_per_s);
    std::printf("PERF_JSON: {\"bench\":\"farm_throughput\","
                "\"jobs\":%zu,\"workers\":%u,\"cached_ms\":%.2f,"
                "\"jobs_per_second\":%.2f}\n",
                corpus.size(), report.poolJobs, report.compressMillis,
                jobs_per_s);
    const PipelineCache::Stats &cs = report.cacheStats;
    double lookups = static_cast<double>(
        cs.enumHits + cs.enumMisses + cs.selectHits + cs.selectMisses);
    std::printf("PERF_JSON: {\"bench\":\"farm_cache_hit\","
                "\"enum_hits\":%llu,\"enum_misses\":%llu,"
                "\"select_hits\":%llu,\"select_misses\":%llu,"
                "\"hit_rate\":%.3f}\n",
                static_cast<unsigned long long>(cs.enumHits),
                static_cast<unsigned long long>(cs.enumMisses),
                static_cast<unsigned long long>(cs.selectHits),
                static_cast<unsigned long long>(cs.selectMisses),
                lookups > 0.0
                    ? static_cast<double>(cs.enumHits + cs.selectHits) /
                          lookups
                    : 0.0);
}

void
reportFarmFaultTolerance()
{
    // The persistent store: a cold run (computing and writing every
    // entry) vs a warm run of the same queue in a fresh cache (every
    // job's image served from disk). The warm/cold ratio is the
    // price of recomputation the store saves across processes.
    std::vector<farm::FarmJob> corpus = farm::starterCorpus();
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("ccbench-persist-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);

    farm::FarmOptions options;
    options.cacheDir = dir.string();
    farm::FarmReport cold = farm::runFarm(corpus, options);
    farm::FarmReport warm = farm::runFarm(corpus, options);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);

    std::printf("farm persistent store (%zu jobs): cold %.1f ms "
                "(%llu stored), warm %.1f ms (%llu disk hits), "
                "speedup %.2fx\n",
                corpus.size(), cold.compressMillis,
                static_cast<unsigned long long>(
                    cold.cacheStats.persistStores),
                warm.compressMillis,
                static_cast<unsigned long long>(
                    warm.cacheStats.persistHits),
                warm.compressMillis > 0.0
                    ? cold.compressMillis / warm.compressMillis
                    : 0.0);
    std::printf("PERF_JSON: {\"bench\":\"farm_persist_hit\","
                "\"jobs\":%zu,\"cold_ms\":%.2f,\"warm_ms\":%.2f,"
                "\"stores\":%llu,\"disk_hits\":%llu,\"corrupt\":%llu,"
                "\"speedup\":%.3f}\n",
                corpus.size(), cold.compressMillis, warm.compressMillis,
                static_cast<unsigned long long>(
                    cold.cacheStats.persistStores),
                static_cast<unsigned long long>(
                    warm.cacheStats.persistHits),
                static_cast<unsigned long long>(
                    warm.cacheStats.persistCorrupt),
                warm.compressMillis > 0.0
                    ? cold.compressMillis / warm.compressMillis
                    : 0.0);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::initJobs(argc, argv);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    reportItemLookup();
    reportDecodeScan();
    reportExpandCache();
    reportPassTimings();
    reportSuiteSpeedup();
    reportFarmThroughput();
    reportFarmFaultTolerance();
    return 0;
}
