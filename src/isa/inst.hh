/**
 * @file
 * Decoded instruction representation, encoder, and decoder for ppclite.
 */

#ifndef CODECOMP_ISA_INST_HH
#define CODECOMP_ISA_INST_HH

#include <cstdint>

#include "isa/isa.hh"

namespace codecomp::isa {

/** Mnemonic-level operation, after primary/extended opcode resolution. */
enum class Op : uint8_t {
    // D-form arithmetic / logic with immediate
    Addi, Addis, Mulli, Ori, Oris, Xori, Andi,
    // D-form compares (crf destination)
    Cmpi, Cmpli,
    // D-form loads and stores
    Lwz, Lbz, Lhz, Stw, Stb, Sth,
    // branches
    B,       //!< I-form, PC-relative (or absolute if aa)
    Bc,      //!< B-form conditional, PC-relative (or absolute if aa)
    Bclr,    //!< XL-form, branch to LR
    Bcctr,   //!< XL-form, branch to CTR
    // rotate-and-mask
    Rlwinm,
    // X-form register-register
    Add, Subf, Neg, Mullw, Divw, And, Or, Xor, Slw, Srw, Sraw, Srawi,
    Cmp, Cmpl, Lwzx,
    // special-purpose register moves
    Mtspr, Mfspr,
    // system call
    Sc,
    // anything undecodable
    Illegal,
};

/**
 * A decoded ppclite instruction.
 *
 * Branch displacements are stored as the raw signed *field* value:
 * the architectural byte offset of a taken B/Bc is disp * 4 in the
 * uncompressed ISA. Compressed program layouts reinterpret the same
 * field at codeword granularity (paper section 3.2.2), which is why the
 * field value rather than the byte offset is the canonical form here.
 */
struct Inst
{
    Op op = Op::Illegal;

    uint8_t rt = 0;  //!< target register (or source for stores, rs)
    uint8_t ra = 0;
    uint8_t rb = 0;
    uint8_t crf = 0; //!< condition-register field for compares

    int32_t imm = 0; //!< immediate; sign- or zero-extended per op

    int32_t disp = 0; //!< branch displacement field (signed); B: 24-bit,
                      //!< Bc: 14-bit
    uint8_t bo = 0;  //!< branch condition operation
    uint8_t bi = 0;  //!< condition-register bit index (crf*4 + bit)
    bool aa = false; //!< absolute-address bit
    bool lk = false; //!< link bit

    uint8_t sh = 0;  //!< rlwinm shift
    uint8_t mb = 0;  //!< rlwinm mask begin (0 = MSB)
    uint8_t me = 0;  //!< rlwinm mask end

    uint16_t spr = 0; //!< SPR number for mtspr/mfspr

    uint32_t raw = 0; //!< original word, kept for Op::Illegal

    bool operator==(const Inst &other) const = default;

    /** True for B and Bc: branches whose target comes from an offset
     *  field and must therefore be patched after compression. */
    bool
    isRelativeBranch() const
    {
        return op == Op::B || op == Op::Bc;
    }

    /** True for branches through LR or CTR; these are compressible. */
    bool
    isIndirectBranch() const
    {
        return op == Op::Bclr || op == Op::Bcctr;
    }

    /** True for any control transfer (always a basic-block terminator). */
    bool
    isBranch() const
    {
        return isRelativeBranch() || isIndirectBranch();
    }

    /** True if this instruction writes the link register when taken. */
    bool isCall() const { return isBranch() && lk; }

    /** True when execution can continue past this instruction into the
     *  next sequential one: everything but an unconditional,
     *  non-linking branch (a call resumes at the next address).
     *  Conservative for branches whose condition never holds. */
    bool
    canFallThrough() const
    {
        if (lk)
            return true;
        if (op == Op::B)
            return false;
        return !(isBranch() && bo == static_cast<uint8_t>(Bo::Always));
    }
};

/** Decode a 32-bit instruction word. Unknown encodings yield Op::Illegal
 *  with the raw word preserved. */
Inst decode(Word word);

/** Encode a decoded instruction back into a 32-bit word. Field values
 *  must be in range (checked); Op::Illegal re-emits the raw word. */
Word encode(const Inst &inst);

/** Sign-extend the low @p bits of @p value. */
constexpr int32_t
signExtend(uint32_t value, unsigned bits)
{
    uint32_t m = 1u << (bits - 1);
    return static_cast<int32_t>((value ^ m) - m);
}

/** True if @p value fits in a signed field of @p bits bits. */
constexpr bool
fitsSigned(int64_t value, unsigned bits)
{
    int64_t lo = -(1ll << (bits - 1));
    int64_t hi = (1ll << (bits - 1)) - 1;
    return value >= lo && value <= hi;
}

} // namespace codecomp::isa

#endif // CODECOMP_ISA_INST_HH
