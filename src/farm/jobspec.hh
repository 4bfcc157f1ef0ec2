/**
 * @file
 * Job-spec files: a JSON description of a farm job queue, the
 * expansion point beyond the built-in starter corpus.
 *
 *   {
 *     "jobs": [
 *       { "workload": "gcc",                 // required
 *         "scale": 1,                        // generator scale, >= 1
 *         "scheme": "nibble",                // baseline|onebyte|nibble
 *         "strategy": "refit",               // greedy|refit
 *         "layout": "hotcold",               // linear|hotcold
 *         "max_entries": 4680,
 *         "max_len": 4,
 *         "assumed_codeword_nibbles": 0,
 *         "refit_max_rounds": 6,
 *         "repeat": 2,                       // enqueue N copies
 *         "id": "gcc-tuned" }                // default: wl/scheme/strat
 *     ]
 *   }
 *
 * Every field except "workload" is optional; defaults match the
 * ccompress CLI (nibble scheme, greedy strategy, 4680 entries).
 * "repeat" duplicates the job -- duplicated (program, config) pairs
 * are exactly what the selection cache deduplicates, so repeat is the
 * cheap way to model a corpus with identical members. Malformed JSON,
 * unknown fields' *values* (schemes, strategies), and out-of-range
 * numbers are catchable fatals carrying the byte offset or job index;
 * unrecognized keys are fatals too, so a typo cannot silently become a
 * default. The parser is a self-contained subset-of-JSON reader (no
 * third-party dependency); support/json.hh remains write-only.
 */

#ifndef CODECOMP_FARM_JOBSPEC_HH
#define CODECOMP_FARM_JOBSPEC_HH

#include <string>
#include <vector>

#include "farm/farm.hh"

namespace codecomp::farm {

/** Parse a job-spec JSON document into a job queue (catchable fatal
 *  on any structural or value error). */
std::vector<FarmJob> parseJobSpec(const std::string &text);

/** Serialize @p jobs as a job-spec document that parseJobSpec accepts
 *  and that reproduces the queue exactly (the farm's worker protocol
 *  ships one-job specs across the process boundary this way).
 *  "timeout_ms"/"retries" are emitted only when set (>= 0). */
std::string writeJobSpec(const std::vector<FarmJob> &jobs);

} // namespace codecomp::farm

#endif // CODECOMP_FARM_JOBSPEC_HH
