/**
 * @file
 * The operand-factored codec (after *MIPS Code Compression*,
 * PAPERS.md): the compressed stream keeps the nibble-aligned codeword
 * geometry of the nibble scheme (nibble_geometry.hh), but the
 * dictionary is stored factored into per-stream tables instead of flat
 * instruction words.
 *
 * Every ppclite word splits, by primary-opcode format, into three
 * fields:
 *
 *   skeleton -- the word with its register and immediate fields zeroed
 *               (primary opcode, extended opcode, Rc/AA/LK bits);
 *   regs     -- the contiguous register-operand field block (rt/ra for
 *               D-forms and branches, rt/ra/rb for X-forms) as one
 *               packed value;
 *   imm      -- the immediate/displacement field value.
 *
 * Dictionary-worthy code reuses a handful of skeletons (~26 across
 * every benchmark), so the serialized dictionary stores a
 * unique-skeleton table once and then, per word, a bit-packed record:
 * a ~5-bit skeleton index plus the register and immediate fields raw
 * at their exact widths. X-form words shrink from 32 to ~20 bits and
 * D-forms to ~31; entry boundaries (length bytes) are structural
 * metadata, priced at zero like the flat layout's. A register-tuple
 * dictionary was tried first and measured out: real selections have
 * hundreds of distinct tuples, so the table costs more than the
 * index stream saves (EXPERIMENTS.md).
 *
 * Factoring is bijective (fuseWord inverts factorWord exactly), and the
 * loader enforces canonical form: a skeleton with operand bits set, an
 * over-wide register tuple, or an over-wide immediate is rejected as a
 * BadValue before any word reaches the processors.
 */

#ifndef CODECOMP_COMPRESS_OPFAC_HH
#define CODECOMP_COMPRESS_OPFAC_HH

#include "compress/codec.hh"

namespace codecomp::compress {

/** Operand field geometry of one primary opcode: bit positions and
 *  widths of the contiguous register block and the immediate field
 *  (width 0 = the format has no such field). */
struct OperandFields
{
    uint8_t regShift = 0;
    uint8_t regBits = 0;
    uint8_t immShift = 0;
    uint8_t immBits = 0;

    uint32_t regMask() const { return ((1u << regBits) - 1) << regShift; }
    uint32_t
    immMask() const
    {
        return (immBits ? (1u << immBits) - 1 : 0u) << immShift;
    }
};

/** Field geometry for @p primop (the word's top six bits). Unknown
 *  opcodes get empty fields: the whole word is skeleton, so factoring
 *  stays total and bijective even over illegal words. */
OperandFields operandFields(uint8_t primop);

/** One word split into its three streams. */
struct FactoredWord
{
    isa::Word skeleton = 0;
    uint16_t regs = 0;
    uint32_t imm = 0;

    bool
    operator==(const FactoredWord &other) const
    {
        return skeleton == other.skeleton && regs == other.regs &&
               imm == other.imm;
    }
};

/** Split @p word by its primary opcode's field geometry. */
FactoredWord factorWord(isa::Word word);

/** Exact inverse of factorWord for canonical inputs. */
isa::Word fuseWord(const FactoredWord &factored);

/** True when the triple is its own factoring: the skeleton carries no
 *  operand bits and both fields fit their widths. Loader-side guard
 *  against crafted dictionaries. */
bool isCanonicalFactoring(const FactoredWord &factored);

/** The operand-factored codec singleton (registered in codec.cc). */
const SchemeCodec &operandFactoredCodec();

} // namespace codecomp::compress

#endif // CODECOMP_COMPRESS_OPFAC_HH
