/**
 * @file
 * Basic-block analysis over a linked Program.
 *
 * The compressor may only form dictionary entries from sequences that lie
 * entirely within one basic block (paper section 3.1.1): branches may
 * target codewords, but never the interior of an encoded sequence.
 * Block leaders are exactly the possible branch targets, so "sequence
 * within a block" implies "no branch lands mid-sequence".
 */

#ifndef CODECOMP_PROGRAM_CFG_HH
#define CODECOMP_PROGRAM_CFG_HH

#include <cstdint>
#include <vector>

#include "program/program.hh"

namespace codecomp {

/** Partition of .text into maximal single-entry straight-line runs. */
class Cfg
{
  public:
    /** Compute the blocks of @p program from its leaders. */
    static Cfg build(const Program &program);

    /** Block index ranges, in ascending order, covering all of .text;
     *  each block's first instruction is a leader. */
    const std::vector<InstRange> &blocks() const { return blocks_; }

  private:
    std::vector<InstRange> blocks_;
};

} // namespace codecomp

#endif // CODECOMP_PROGRAM_CFG_HH
