/**
 * @file
 * Reference candidate enumerator for the tests: the straightforward
 * serial scan that keys every window by its words in a hash map, with
 * eligibility decided by decoding every word. It is slow and
 * allocation-heavy, and obviously right, so the production prefix-ID
 * refinement (compress/candidates.hh) is checked against it.
 */

#ifndef CODECOMP_TESTS_CANDIDATE_ORACLE_HH
#define CODECOMP_TESTS_CANDIDATE_ORACLE_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "compress/candidates.hh"

namespace codecomp::test {

/** Per-instruction compressibility mask: false for relative branches,
 *  decided by decoding every word. */
inline std::vector<bool>
eligibilityMask(const Program &program)
{
    std::vector<bool> eligible(program.text.size());
    for (size_t i = 0; i < program.text.size(); ++i)
        eligible[i] = !isa::decode(program.text[i]).isRelativeBranch();
    return eligible;
}

/** One unique sequence with its sorted occurrence start indices. */
struct OracleCandidate
{
    std::vector<isa::Word> seq;
    std::vector<uint32_t> positions;
};

/**
 * Every sequence of length [minLen, maxLen] inside one basic block
 * with no relative branch, in serial-scan order: blocks ascending,
 * then start, then length -- so by first occurrence, then length.
 */
inline std::vector<OracleCandidate>
oracleEnumerate(const Program &program, const Cfg &cfg, uint32_t minLen,
                uint32_t maxLen)
{
    std::vector<bool> eligible = eligibilityMask(program);
    std::unordered_map<std::u32string, uint32_t> index;
    std::vector<OracleCandidate> candidates;
    for (const InstRange &block : cfg.blocks()) {
        uint32_t end = block.first + block.count;
        for (uint32_t start = block.first; start < end; ++start) {
            std::u32string key;
            for (uint32_t len = 1; len <= maxLen; ++len) {
                uint32_t pos = start + len - 1;
                if (pos >= end || !eligible[pos])
                    break;
                key.push_back(static_cast<char32_t>(program.text[pos]));
                if (len < minLen)
                    continue;
                auto [it, inserted] = index.try_emplace(
                    key, static_cast<uint32_t>(candidates.size()));
                if (inserted)
                    candidates.push_back(
                        {std::vector<isa::Word>(
                             program.text.begin() + start,
                             program.text.begin() + start + len),
                         {}});
                candidates[it->second].positions.push_back(start);
            }
        }
    }
    return candidates;
}

} // namespace codecomp::test

#endif // CODECOMP_TESTS_CANDIDATE_ORACLE_HH
