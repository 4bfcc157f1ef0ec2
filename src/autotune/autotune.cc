#include "autotune/autotune.hh"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "compress/codec.hh"
#include "decompress/cpu.hh"
#include "decompress/replay.hh"
#include "farm/farm.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"
#include "workloads/workloads.hh"

namespace codecomp::autotune {

namespace {

using Clock = std::chrono::steady_clock;

std::string
geometryId(const cache::CacheConfig &geometry)
{
    return std::to_string(geometry.capacityBytes) + ":" +
           std::to_string(geometry.lineBytes) + ":" +
           std::to_string(geometry.ways);
}

/** One point per kept geometry, "<base id>@<geometry>": @p execute runs
 *  once with an observer that charges each fetch to every geometry's
 *  timer, so all of them price the same stream. */
template <typename Execute>
void
pricePoints(WorkloadResult &wr, const CandidatePoint &base,
            const BudgetSpec &spec,
            const std::vector<cache::CacheConfig> &geometries,
            Execute &&execute)
{
    std::vector<timing::FetchTimer> timers;
    timers.reserve(geometries.size());
    for (const cache::CacheConfig &geometry : geometries) {
        timing::TimingConfig model = spec.model;
        model.icache = geometry;
        timers.emplace_back(model);
    }
    execute([&timers](const FetchEvent &event) {
        for (timing::FetchTimer &timer : timers)
            timer.onFetch(event);
    });
    for (size_t g = 0; g < geometries.size(); ++g) {
        CandidatePoint point = base;
        point.id += "@" + geometryId(geometries[g]);
        point.geometry = geometries[g];
        point.onChipBytes = geometries[g].capacityBytes + base.dictBytes;
        point.report = timers[g].report();
        wr.points.push_back(std::move(point));
    }
}

/** Dominated-point elimination over (onChipBytes, cycles): ascending
 *  bytes, strictly descending cycles survive. Ties (equal bytes and
 *  cycles) resolve by id so the frontier is deterministic. */
void
computeFrontier(WorkloadResult &wr)
{
    std::vector<uint32_t> order(wr.points.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&wr](uint32_t a, uint32_t b) {
        const CandidatePoint &pa = wr.points[a];
        const CandidatePoint &pb = wr.points[b];
        if (pa.onChipBytes != pb.onChipBytes)
            return pa.onChipBytes < pb.onChipBytes;
        if (pa.cycles() != pb.cycles())
            return pa.cycles() < pb.cycles();
        return pa.id < pb.id;
    });
    uint64_t best = UINT64_MAX;
    for (uint32_t index : order) {
        if (wr.points[index].cycles() < best) {
            wr.frontier.push_back(index);
            best = wr.points[index].cycles();
        }
    }
}

/** Winner at each budget: the last frontier point that fits (frontier
 *  cycles strictly decrease as bytes grow, so "last that fits" is
 *  "fewest cycles within budget"). */
void
computeWinners(WorkloadResult &wr, const std::vector<uint64_t> &budgets)
{
    for (uint64_t budget : budgets) {
        BudgetWinner winner;
        winner.budget = budget;
        for (uint32_t index : wr.frontier) {
            if (wr.points[index].onChipBytes > budget)
                break;
            winner.point = static_cast<int32_t>(index);
        }
        wr.winners.push_back(winner);
    }
}

} // namespace

std::string
budgetSpecError(const BudgetSpec &spec)
{
    if (spec.budgets.empty())
        return "need at least one budget";
    for (uint64_t budget : spec.budgets)
        if (budget == 0)
            return "budgets must be positive";
    if (spec.cacheGeometries.empty())
        return "need at least one cache geometry";
    for (const cache::CacheConfig &geometry : spec.cacheGeometries) {
        timing::TimingConfig model = spec.model;
        model.icache = geometry;
        std::string error = timing::timingConfigError(model);
        if (!error.empty())
            return "geometry " + geometryId(geometry) + ": " + error;
    }
    for (uint32_t cap : spec.dictCaps)
        if (cap == 0)
            return "dictionary caps must be >= 1";
    if (spec.maxSteps == 0)
        return "max steps must be >= 1";
    return "";
}

SearchSpace::SearchSpace(const BudgetSpec &spec)
{
    std::string error = budgetSpecError(spec);
    if (!error.empty())
        CC_FATAL("bad budget spec: ", error);

    uint64_t max_budget =
        *std::max_element(spec.budgets.begin(), spec.budgets.end());

    uint64_t min_geometry = UINT64_MAX;
    for (const cache::CacheConfig &geometry : spec.cacheGeometries) {
        if (geometry.capacityBytes > max_budget) {
            ++prunedGeometries;
            continue;
        }
        geometries.push_back(geometry);
        min_geometry = std::min<uint64_t>(min_geometry,
                                          geometry.capacityBytes);
    }
    if (geometries.empty())
        CC_FATAL("bad budget spec: every cache geometry exceeds the "
                 "largest budget ", max_budget);

    std::vector<compress::Scheme> schemes =
        spec.schemes.empty() ? compress::allSchemes() : spec.schemes;
    std::vector<compress::StrategyKind> strategies =
        spec.strategies.empty()
            ? std::vector<compress::StrategyKind>{
                  compress::StrategyKind::Greedy,
                  compress::StrategyKind::IterativeRefit}
            : spec.strategies;
    std::vector<uint32_t> caps =
        spec.dictCaps.empty()
            ? std::vector<uint32_t>{16, 64, 256, 1024, 4096}
            : spec.dictCaps;

    // Dictionary ROM bytes the budget must still cover beside the
    // smallest kept cache; 4 bytes is the smallest possible entry, so
    // 4 * cap is the analytic lower bound once the cap is reached.
    uint64_t dict_headroom = max_budget - min_geometry;

    for (compress::Scheme scheme : schemes) {
        uint32_t max_codewords = compress::schemeParams(scheme).maxCodewords;
        std::vector<uint32_t> scheme_caps;
        for (uint32_t cap : caps)
            scheme_caps.push_back(std::min(cap, max_codewords));
        std::sort(scheme_caps.begin(), scheme_caps.end());
        scheme_caps.erase(
            std::unique(scheme_caps.begin(), scheme_caps.end()),
            scheme_caps.end());

        for (compress::StrategyKind strategy : strategies) {
            for (uint32_t cap : scheme_caps) {
                for (int hotcold = 0; hotcold <= (spec.tryHotCold ? 1 : 0);
                     ++hotcold) {
                    ++enumerated;
                    if (4ull * cap > dict_headroom) {
                        ++pruned;
                        continue;
                    }
                    SearchPoint point;
                    point.config.scheme = scheme;
                    point.config.strategy = strategy;
                    point.config.maxEntries = cap;
                    point.config.layout = hotcold
                                              ? compress::LayoutMode::HotCold
                                              : compress::LayoutMode::Linear;
                    point.label =
                        std::string(compress::schemeCliName(scheme)) + "/" +
                        compress::strategyName(strategy) + "/d" +
                        std::to_string(cap) + "/" +
                        compress::layoutModeName(point.config.layout);
                    points.push_back(std::move(point));
                }
            }
        }
    }
}

AutotuneResult
autotune(const std::vector<std::string> &workloadNames,
         const BudgetSpec &spec, const farm::FarmOptions &farmOptions)
{
    Clock::time_point start = Clock::now();

    const std::vector<std::string> &known = workloads::benchmarkNames();
    for (const std::string &name : workloadNames)
        if (std::find(known.begin(), known.end(), name) == known.end())
            CC_FATAL("unknown workload \"", name, "\"");

    SearchSpace space(spec);

    AutotuneResult result;
    result.budgets = spec.budgets;
    std::sort(result.budgets.begin(), result.budgets.end());
    result.budgets.erase(
        std::unique(result.budgets.begin(), result.budgets.end()),
        result.budgets.end());
    result.enumerated = space.enumerated;
    result.pruned = space.pruned;
    result.prunedGeometries = space.prunedGeometries;
    result.keptGeometries = space.geometries.size();

    // The only execution of the search: one native run per program,
    // before the farm. Its fetch stream prices the native baseline
    // under every kept geometry, and its trace gives the traffic
    // profile that the program's hot/cold jobs lay out by and the
    // control flow that prices every compressed image of the program.
    Clock::time_point native_start = Clock::now();
    std::vector<std::shared_ptr<const Program>> programs(
        workloadNames.size());
    std::vector<NativeTrace> traces(workloadNames.size());
    result.workloads = parallelMap<WorkloadResult>(
        workloadNames.size(), [&](size_t w) {
            WorkloadResult wr;
            wr.workload = workloadNames[w];
            programs[w] = std::make_shared<const Program>(
                workloads::buildBenchmark(workloadNames[w]));
            CandidatePoint native;
            native.id = "native";
            native.scheme = "native";
            native.totalBytes = programs[w]->textBytes();
            native.native = true;
            pricePoints(wr, native, spec, space.geometries, [&](auto price) {
                Cpu(*programs[w]).run(
                    [&](const FetchEvent &event) {
                        price(event);
                        traces[w].record(event);
                    },
                    spec.maxSteps);
            });
            return wr;
        });

    // Compress every candidate as a farm job: the shared PipelineCache
    // enumerates each workload once (enumeration keys are
    // scheme-independent) and --isolate fault tolerance comes free.
    // Inline jobs compress the program built above; isolated workers
    // receive neither it nor the profile (job specs carry neither), so
    // they build and profile the program themselves.
    Clock::time_point farm_start = Clock::now();
    std::vector<farm::FarmJob> jobs;
    jobs.reserve(workloadNames.size() * space.points.size());
    for (size_t w = 0; w < workloadNames.size(); ++w) {
        std::vector<uint64_t> profile;
        if (spec.tryHotCold)
            profile = traces[w].executionCounts(programs[w]->text.size());
        for (const SearchPoint &point : space.points) {
            farm::FarmJob job;
            job.id = workloadNames[w] + "/" + point.label;
            job.workload = workloadNames[w];
            job.program = programs[w];
            job.config = point.config;
            if (job.config.layout == compress::LayoutMode::HotCold)
                job.config.trafficProfile = profile;
            jobs.push_back(std::move(job));
        }
    }
    farm::FarmReport report = farm::runFarm(jobs, farmOptions);
    result.cacheStats = report.cacheStats;
    result.failedJobs = report.failures();

    // Time every surviving image under every kept geometry by replaying
    // its program's native trace through the image's fetch table; one
    // replay per image feeds all timers. The images are the farm's own
    // products: computed here, read from the disk store, or loaded from
    // an isolated worker's validated bytes.
    Clock::time_point price_start = Clock::now();
    size_t points_per_workload = space.points.size();
    parallelFor(workloadNames.size(), [&](size_t w) {
        WorkloadResult &wr = result.workloads[w];
        for (size_t j = 0; j < points_per_workload; ++j) {
            const farm::FarmJobResult &job =
                report.results[w * points_per_workload + j];
            if (!job.ok())
                continue;
            const SearchPoint &searched = space.points[j];
            CandidatePoint priced;
            priced.id = searched.label;
            priced.scheme = compress::schemeCliName(searched.config.scheme);
            priced.strategy = compress::strategyName(searched.config.strategy);
            priced.layout = compress::layoutModeName(searched.config.layout);
            priced.dictEntries = searched.config.maxEntries;
            priced.dictBytes = job.dictBytes;
            priced.totalBytes = job.totalBytes;
            pricePoints(wr, priced, spec, space.geometries, [&](auto price) {
                TraceReplayer(job.image->image, *programs[w])
                    .replay(traces[w], price, spec.maxSteps);
            });
        }
        computeFrontier(wr);
        computeWinners(wr, result.budgets);
    });

    Clock::time_point end = Clock::now();
    auto millis = [](Clock::time_point from, Clock::time_point to) {
        return std::chrono::duration<double, std::milli>(to - from).count();
    };
    result.nativeMillis = millis(native_start, farm_start);
    result.farmMillis = millis(farm_start, price_start);
    result.priceMillis = millis(price_start, end);
    result.wallMillis = millis(start, end);
    return result;
}

std::string
AutotuneResult::toJson() const
{
    JsonWriter json;
    json.beginObject();
    json.key("budgets").beginArray();
    for (uint64_t budget : budgets)
        json.value(budget);
    json.endArray();
    json.member("enumerated", enumerated);
    json.member("pruned", pruned);
    json.member("pruned_geometries", prunedGeometries);
    json.member("failed_jobs", failedJobs);
    json.key("workloads").beginArray();
    for (const WorkloadResult &wr : workloads) {
        json.beginObject();
        json.member("workload", wr.workload);
        json.key("points").beginArray();
        for (const CandidatePoint &point : wr.points) {
            json.beginObject();
            json.member("id", point.id);
            json.member("scheme", point.scheme);
            if (!point.native) {
                json.member("strategy", point.strategy);
                json.member("layout", point.layout);
                json.member("dict_entries", point.dictEntries);
            }
            json.key("cache")
                .beginObject()
                .member("capacity", point.geometry.capacityBytes)
                .member("line", point.geometry.lineBytes)
                .member("ways", point.geometry.ways)
                .endObject();
            json.member("dict_bytes", point.dictBytes);
            json.member("total_bytes", point.totalBytes);
            json.member("on_chip_bytes", point.onChipBytes);
            json.member("cycles", point.cycles());
            json.member("stall_icache_miss", point.report.stallIcacheMiss);
            json.member("stall_l2_miss", point.report.stallL2Miss);
            json.member("stall_expansion", point.report.stallExpansion);
            json.member("stall_redirect", point.report.stallRedirect);
            json.endObject();
        }
        json.endArray();
        json.key("frontier").beginArray();
        for (uint32_t index : wr.frontier)
            json.value(wr.points[index].id);
        json.endArray();
        json.key("winners").beginArray();
        for (const BudgetWinner &winner : wr.winners) {
            json.beginObject();
            json.member("budget", winner.budget);
            if (winner.point >= 0) {
                const CandidatePoint &point =
                    wr.points[static_cast<size_t>(winner.point)];
                json.member("point", point.id);
                json.member("cycles", point.cycles());
                json.member("on_chip_bytes", point.onChipBytes);
            }
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

} // namespace codecomp::autotune
