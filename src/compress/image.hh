/**
 * @file
 * The result of compressing a program: the nibble-granular compressed
 * .text stream, the rank-ordered dictionary, the patched .data image,
 * and the address map from original instruction indices to compressed
 * nibble offsets.
 *
 * The address map is dense: one slot per original instruction, holding
 * the nibble offset of the item that begins there, or noItem for an
 * instruction inside a codeword. The compressor's back end fills it in
 * one pass over its item list and hands it over without copying
 * (DESIGN.md section 16); codePointer() is the checked accessor.
 *
 * Code pointers in the compressed address space are absolute nibble
 * addresses: nibbleBase + offset, where nibbleBase = 2 * textBase.
 * Jump tables, LR, and CTR all hold such pointers when a program runs
 * on the CompressedCpu.
 */

#ifndef CODECOMP_COMPRESS_IMAGE_HH
#define CODECOMP_COMPRESS_IMAGE_HH

#include <stdexcept>
#include <string>
#include <vector>

#include "compress/encoding.hh"
#include "compress/selection.hh"
#include "program/program.hh"

namespace codecomp::compress {

/** Size breakdown of a compressed program, in nibbles (paper Fig 9). */
struct Composition
{
    size_t insnNibbles = 0;     //!< uncompressed instruction words
    size_t escapeNibbles = 0;   //!< escape bytes / escape nibbles
    size_t codewordNibbles = 0; //!< codeword index portions
    size_t dictNibbles = 0;     //!< dictionary contents

    size_t
    totalNibbles() const
    {
        return insnNibbles + escapeNibbles + codewordNibbles + dictNibbles;
    }
};

/** Scratch register of the far-branch stubs (lis/ori/mtctr/bctr); the
 *  code generator never allocates it. */
inline constexpr uint8_t farBranchReg = 2;

/** Length in instructions of farBranchStub for @p branch: 6 for a
 *  conditional branch, 4 for an unconditional one, 0 for the branches
 *  no stub can replace (bcl and bdnz). Sizes a stub without building
 *  it. */
unsigned farBranchStubWords(const isa::Inst &branch);

/**
 * The far-branch stub that stands in for relative branch @p branch
 * when its displacement cannot reach the target's item, at absolute
 * nibble address @p pointer: it loads the pointer into farBranchReg and
 * jumps through CTR. A conditional branch becomes `bc cond, +2; b +5;
 * lis; ori; mtctr; bctr` (the bc reaches the trampoline, the b skips
 * it; displacements in instructions), an unconditional one `lis; ori;
 * mtctr; bctr`, with bctrl for bl. Empty for the branches no stub can
 * replace: bcl and bdnz.
 */
std::vector<isa::Word> farBranchStub(const isa::Inst &branch,
                                     uint32_t pointer, Scheme scheme);

struct CompressedImage
{
    /** Absolute nibble address of compressed-text offset 0. */
    static constexpr uint32_t nibbleBase = Program::textBase * 2;

    Scheme scheme = Scheme::Baseline;

    /** The raw selection (entry order = selection order); retained for
     *  the dictionary-usage analyses (paper Figs 6 and 7). */
    SelectionResult selection;

    /** Dictionary reordered so index == codeword rank. */
    std::vector<std::vector<isa::Word>> entriesByRank;
    std::vector<uint32_t> rankOfEntry; //!< selection entryId -> rank

    std::vector<uint8_t> text; //!< compressed stream (nibble-packed)
    size_t textNibbles = 0;

    std::vector<uint8_t> data; //!< .data with jump tables re-patched
    uint32_t dataBase = 0;

    /** addrMap value of an instruction that begins no item. */
    static constexpr uint32_t noItem = UINT32_MAX;

    /** Original instruction index -> nibble offset of the item that
     *  begins there (instruction, codeword, or far-branch stub), or
     *  noItem; one slot per original instruction. Empty in an image
     *  loaded from a .cci, which does not store it. */
    std::vector<uint32_t> addrMap;

    uint32_t entryPointNibble = 0;
    Composition composition;
    uint32_t originalTextBytes = 0;
    uint32_t farBranchExpansions = 0;

    /** Absolute code pointer for original instruction @p index;
     *  throws std::out_of_range when no item begins there. */
    uint32_t
    codePointer(uint32_t index) const
    {
        if (index >= addrMap.size() || addrMap[index] == noItem)
            throw std::out_of_range("instruction " + std::to_string(index) +
                                    " begins no compressed item");
        return nibbleBase + addrMap[index];
    }

    size_t compressedTextBytes() const { return (textNibbles + 1) / 2; }

    /** ROM cost of the dictionary in the scheme's own serialized form
     *  (flat words for the paper schemes, factored streams for
     *  operand-factored). */
    size_t
    dictionaryBytes() const
    {
        return schemeCodec(scheme).dictionaryBytes(entriesByRank);
    }

    /** Compressed program size: text plus dictionary overhead. */
    size_t
    totalBytes() const
    {
        return compressedTextBytes() + dictionaryBytes();
    }

    /** compressed size / original size (paper Eq. 1); < 1 is smaller. */
    double
    compressionRatio() const
    {
        return static_cast<double>(totalBytes()) / originalTextBytes;
    }
};

} // namespace codecomp::compress

#endif // CODECOMP_COMPRESS_IMAGE_HH
