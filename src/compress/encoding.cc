#include "compress/encoding.hh"

#include "compress/nibble_geometry.hh"
#include "isa/isa.hh"
#include "support/logging.hh"

namespace codecomp::compress {

namespace {

/** Escape byte for 5-bit codeword group @p group (0..31): the high six
 *  bits are one of the eight illegal primary opcodes. */
constexpr uint8_t
escapeByte(uint32_t group)
{
    uint8_t primop = isa::illegalPrimOps[group / 4];
    return static_cast<uint8_t>((primop << 2) | (group % 4));
}

/** The eight illegal primary opcodes must be pairwise distinct, or two
 *  escape bytes would alias one group and decode would be ambiguous. */
constexpr bool
illegalPrimOpsDistinct()
{
    for (size_t i = 0; i < isa::illegalPrimOps.size(); ++i)
        for (size_t j = i + 1; j < isa::illegalPrimOps.size(); ++j)
            if (isa::illegalPrimOps[i] == isa::illegalPrimOps[j])
                return false;
    return true;
}
static_assert(illegalPrimOpsDistinct(),
              "illegal primary opcodes alias: escape bytes ambiguous");

/** Baseline / OneByte: the first byte classifies -- one of the 32
 *  escape bytes marks a codeword, any legal byte begins a plain
 *  instruction, whose 8 nibbles include that byte. */
constexpr DecodeTables
buildByteEscapeTables(bool baseline)
{
    DecodeTables tables{};
    tables.prefixNibbles = 2;
    for (ItemClass &cls : tables.classes)
        cls = {8, 0, 0, 0};
    for (uint32_t group = 0; group < 32; ++group)
        tables.classes[escapeByte(group)] =
            baseline ? ItemClass{4, 1, 2, group * 256}
                     : ItemClass{2, 1, 0, group};
    return tables;
}

constexpr DecodeTables nibbleTables =
    nibgeom::buildTables(/*insnNibbles=*/9);
constexpr DecodeTables baselineTables = buildByteEscapeTables(true);
constexpr DecodeTables oneByteTables = buildByteEscapeTables(false);

/** Shared by Baseline and OneByte: a plain instruction is emitted
 *  verbatim, so its first byte must not alias an escape byte. */
void
emitByteSchemeInstruction(NibbleWriter &writer, isa::Word word)
{
    CC_ASSERT(!isa::isIllegalPrimOp(isa::primOpOf(word)),
              "illegal opcode would alias an escape byte");
    writer.putWord(word);
}

class BaselineCodec final : public SchemeCodec
{
  public:
    Scheme id() const override { return Scheme::Baseline; }
    const char *name() const override { return "baseline-2byte"; }
    const char *cliName() const override { return "baseline"; }
    const char *
    summary() const override
    {
        return "2-byte escape+index codewords, up to 8192 entries "
               "(paper 4.1)";
    }

    SchemeParams
    params() const override
    {
        // Codewords are 2-byte aligned; instructions cost 8 nibbles.
        return {4, 8, 8192, 4};
    }

    const DecodeTables &tables() const override { return baselineTables; }

    unsigned
    codewordNibbles(uint32_t rank) const override
    {
        CC_ASSERT(rank < 8192, "baseline rank range");
        return 4;
    }

    void
    emitCodeword(NibbleWriter &writer, uint32_t rank) const override
    {
        CC_ASSERT(rank < 8192, "baseline rank range");
        writer.putNibbles(escapeByte(rank / 256), 2);
        writer.putNibbles(rank % 256, 2);
    }

    void
    emitInstruction(NibbleWriter &writer, isa::Word word) const override
    {
        emitByteSchemeInstruction(writer, word);
    }

    EmitAccounting
    codewordAccounting(uint32_t) const override
    {
        // The escape byte is overhead, the index byte is payload.
        EmitAccounting accounting;
        accounting.escapeNibbles = 2;
        accounting.codewordNibbles = 2;
        return accounting;
    }
};

class OneByteCodec final : public SchemeCodec
{
  public:
    Scheme id() const override { return Scheme::OneByte; }
    const char *name() const override { return "one-byte"; }
    const char *cliName() const override { return "onebyte"; }
    const char *
    summary() const override
    {
        return "1-byte escape-only codewords, up to 32 entries "
               "(paper 4.1.2)";
    }

    SchemeParams params() const override { return {2, 8, 32, 2}; }

    const DecodeTables &tables() const override { return oneByteTables; }

    unsigned
    codewordNibbles(uint32_t rank) const override
    {
        CC_ASSERT(rank < 32, "one-byte rank range");
        return 2;
    }

    void
    emitCodeword(NibbleWriter &writer, uint32_t rank) const override
    {
        CC_ASSERT(rank < 32, "one-byte rank range");
        writer.putNibbles(escapeByte(rank), 2);
    }

    void
    emitInstruction(NibbleWriter &writer, isa::Word word) const override
    {
        emitByteSchemeInstruction(writer, word);
    }
};

class NibbleCodec final : public SchemeCodec
{
  public:
    Scheme id() const override { return Scheme::Nibble; }
    const char *name() const override { return "nibble-aligned"; }
    const char *cliName() const override { return "nibble"; }
    const char *
    summary() const override
    {
        return "4/8/12/16-bit nibble-aligned codewords, up to 4680 "
               "entries (paper 4.1.3)";
    }

    SchemeParams
    params() const override
    {
        // Everything is nibble-aligned; instructions pay a 1-nibble
        // escape, and the assumed selection cost is 2 nibbles.
        return {1, 9, nibgeom::totalCodewords, 2};
    }

    const DecodeTables &tables() const override { return nibbleTables; }

    unsigned
    codewordNibbles(uint32_t rank) const override
    {
        return nibgeom::codewordNibbles(rank);
    }

    void
    emitCodeword(NibbleWriter &writer, uint32_t rank) const override
    {
        nibgeom::emitCodeword(writer, rank);
    }

    void
    emitInstruction(NibbleWriter &writer, isa::Word word) const override
    {
        nibgeom::emitInstruction(writer, word);
    }
};

} // namespace

const SchemeCodec &
baselineCodec()
{
    static const BaselineCodec codec;
    return codec;
}

const SchemeCodec &
oneByteCodec()
{
    static const OneByteCodec codec;
    return codec;
}

const SchemeCodec &
nibbleCodec()
{
    static const NibbleCodec codec;
    return codec;
}

} // namespace codecomp::compress
