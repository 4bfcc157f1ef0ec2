#include "compress/opfac.hh"

#include <unordered_map>
#include <unordered_set>

#include "compress/nibble_geometry.hh"
#include "support/logging.hh"

namespace codecomp::compress {

OperandFields
operandFields(uint8_t primop)
{
    using isa::PrimOp;
    switch (static_cast<PrimOp>(primop)) {
      // D-forms: rt/ra (or crf/ra) in bits 16..25, 16-bit immediate in
      // the low half.
      case PrimOp::Mulli:
      case PrimOp::Cmpli:
      case PrimOp::Cmpi:
      case PrimOp::Addi:
      case PrimOp::Addis:
      case PrimOp::Ori:
      case PrimOp::Oris:
      case PrimOp::Xori:
      case PrimOp::Andi:
      case PrimOp::Lwz:
      case PrimOp::Lbz:
      case PrimOp::Stw:
      case PrimOp::Stb:
      case PrimOp::Lhz:
      case PrimOp::Sth:
        return {16, 10, 0, 16};
      // Bc: bo/bi in the rt/ra fields, 14-bit displacement at bit 2
      // (AA/LK stay in the skeleton).
      case PrimOp::Bc:
        return {16, 10, 2, 14};
      // B: no register block, 24-bit displacement at bit 2.
      case PrimOp::B:
        return {0, 0, 2, 24};
      // bclr/bcctr: bo/bi only; the XO and LK stay in the skeleton.
      case PrimOp::Op19:
        return {16, 10, 0, 0};
      // rlwinm: rt/ra are registers; sh/mb/me are immediate-like and
      // contiguous in bits 1..15 (Rc at bit 0 stays in the skeleton).
      case PrimOp::Rlwinm:
        return {16, 10, 1, 15};
      // X-forms: rt/ra/rb (or crf/ra/rb, rt/spr) in bits 11..25; the
      // XO and Rc stay in the skeleton.
      case PrimOp::Op31:
        return {11, 15, 0, 0};
      // sc and anything illegal: the whole word is skeleton.
      default:
        return {0, 0, 0, 0};
    }
}

FactoredWord
factorWord(isa::Word word)
{
    OperandFields fields = operandFields(isa::primOpOf(word));
    FactoredWord factored;
    factored.skeleton = word & ~(fields.regMask() | fields.immMask());
    factored.regs = static_cast<uint16_t>(
        (word & fields.regMask()) >> fields.regShift);
    factored.imm = (word & fields.immMask()) >> fields.immShift;
    return factored;
}

isa::Word
fuseWord(const FactoredWord &factored)
{
    OperandFields fields =
        operandFields(isa::primOpOf(factored.skeleton));
    return factored.skeleton |
           ((static_cast<uint32_t>(factored.regs) << fields.regShift) &
            fields.regMask()) |
           ((factored.imm << fields.immShift) & fields.immMask());
}

bool
isCanonicalFactoring(const FactoredWord &factored)
{
    OperandFields fields =
        operandFields(isa::primOpOf(factored.skeleton));
    if (factored.skeleton & (fields.regMask() | fields.immMask()))
        return false;
    if (fields.regBits < 16 && (factored.regs >> fields.regBits) != 0)
        return false;
    if (fields.immBits < 32 && (factored.imm >> fields.immBits) != 0)
        return false;
    return factorWord(fuseWord(factored)) == factored;
}

namespace {

constexpr DecodeTables opfacTables =
    nibgeom::buildTables(/*insnNibbles=*/9);

/** The dictionary factored into its serialized streams: the unique
 *  skeleton table in first-appearance order plus one skeleton index
 *  per word, entry-major. Register and immediate fields stay with the
 *  word (raw, bit-packed at their exact widths): the tuple tables this
 *  started with cost more than they saved -- real selections have
 *  ~26 unique skeletons but hundreds of distinct register tuples, so
 *  only the opcode stream's dictionary pays its way (EXPERIMENTS.md). */
struct FactoredDict
{
    std::vector<isa::Word> skeletons;
    std::vector<uint32_t> skelIdx; //!< one per word, entry-major
    std::vector<FactoredWord> words;
};

/** Bits needed to index a table of @p count entries; 0 for a single
 *  entry (the index is implicit). */
unsigned
indexBits(uint32_t count)
{
    unsigned bits = 0;
    while ((1u << bits) < count)
        ++bits;
    return bits;
}

FactoredDict
factorDictionary(const std::vector<DictEntry> &entries)
{
    FactoredDict dict;
    std::unordered_map<isa::Word, uint32_t> skeletonOf;
    for (const DictEntry &entry : entries) {
        for (isa::Word word : entry) {
            FactoredWord factored = factorWord(word);
            auto [it, isNew] = skeletonOf.emplace(
                factored.skeleton,
                static_cast<uint32_t>(dict.skeletons.size()));
            if (isNew)
                dict.skeletons.push_back(factored.skeleton);
            dict.skelIdx.push_back(it->second);
            dict.words.push_back(factored);
        }
    }
    return dict;
}

/** MSB-first bit packer over a ByteSink. */
class BitWriter
{
  public:
    explicit BitWriter(ByteSink &sink) : sink_(sink) {}

    void
    put(uint32_t value, unsigned bits)
    {
        CC_ASSERT(bits <= 32 && (bits == 32 || (value >> bits) == 0),
                  "bit-packed value wider than its field");
        acc_ = (acc_ << bits) | value;
        count_ += bits;
        while (count_ >= 8) {
            count_ -= 8;
            sink_.put8(static_cast<uint8_t>(acc_ >> count_));
        }
    }

    /** Pad the final byte with zero bits. */
    void
    flush()
    {
        if (count_ > 0)
            put(0, 8 - count_);
    }

  private:
    ByteSink &sink_;
    uint64_t acc_ = 0;
    unsigned count_ = 0;
};

/** MSB-first bit reader over a ByteSource; truncation surfaces as the
 *  source's LoadFailure. */
class BitReader
{
  public:
    explicit BitReader(ByteSource &source) : source_(source) {}

    uint32_t
    get(unsigned bits)
    {
        while (count_ < bits) {
            acc_ = (acc_ << 8) | source_.get8();
            count_ += 8;
        }
        count_ -= bits;
        uint32_t value = static_cast<uint32_t>(
            (acc_ >> count_) & ((bits == 32 ? 0 : (1ull << bits)) - 1));
        return bits == 0 ? 0 : value;
    }

    /** True when the unread remainder of the current byte is all zero
     *  (the canonical pad). */
    bool padIsZero() const
    {
        return (acc_ & ((1ull << count_) - 1)) == 0;
    }

  private:
    ByteSource &source_;
    uint64_t acc_ = 0;
    unsigned count_ = 0;
};

class OperandFactoredCodec final : public SchemeCodec
{
  public:
    Scheme id() const override { return Scheme::OperandFactored; }
    const char *name() const override { return "operand-factored"; }
    const char *cliName() const override { return "opfac"; }
    const char *
    summary() const override
    {
        return "nibble-aligned stream with an operand-factored "
               "dictionary (skeleton/register/immediate streams)";
    }

    SchemeParams
    params() const override
    {
        // Stream geometry matches the nibble scheme. A factored
        // dictionary word costs skelBits (~5) + regBits + immBits:
        // ~31 bits for a D-form, ~20 for an X-form, averaging ~27
        // bits (~7 nibbles) on real selections. Entry boundaries are
        // structural (priced at zero, like the flat layout's).
        return {1, 9, nibgeom::totalCodewords, 2, 7, 0};
    }

    const DecodeTables &tables() const override { return opfacTables; }

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

    size_t
    dictionaryBytes(const std::vector<DictEntry> &entries) const override
    {
        // Serialize-and-measure, minus the structural metadata (the
        // u32 skeleton count and the per-entry length bytes). The flat
        // layout's dictionaryBytes likewise prices only instruction
        // words and leaves entry boundaries to the decoder, so the ROM
        // comparison stays apples-to-apples.
        ByteSink sink;
        putDictionary(sink, entries);
        return sink.bytes().size() - 4 - entries.size();
    }

    void
    putDictionary(ByteSink &sink,
                  const std::vector<DictEntry> &entries) const override
    {
        FactoredDict dict = factorDictionary(entries);
        sink.put32(static_cast<uint32_t>(dict.skeletons.size()));
        for (isa::Word skeleton : dict.skeletons)
            sink.put32(skeleton);
        for (const DictEntry &entry : entries) {
            CC_ASSERT(!entry.empty() && entry.size() <= 255,
                      "factored dictionary entry length must fit a byte");
            sink.put8(static_cast<uint8_t>(entry.size()));
        }
        unsigned skelBits =
            indexBits(static_cast<uint32_t>(dict.skeletons.size()));
        BitWriter writer(sink);
        for (size_t i = 0; i < dict.words.size(); ++i) {
            const FactoredWord &word = dict.words[i];
            OperandFields fields =
                operandFields(isa::primOpOf(word.skeleton));
            writer.put(dict.skelIdx[i], skelBits);
            writer.put(word.regs, fields.regBits);
            writer.put(word.imm, fields.immBits);
        }
        writer.flush();
    }

    std::optional<std::string>
    getDictionary(ByteSource &source, uint32_t entryCount,
                  uint32_t maxEntryWords,
                  std::vector<DictEntry> &entries) const override
    {
        uint32_t skeletonCount = source.get32();
        if (skeletonCount > source.remaining() / 4)
            return "declared " + std::to_string(skeletonCount) +
                   " skeletons exceed the payload";
        std::vector<isa::Word> skeletons;
        std::unordered_set<isa::Word> seenSkeletons;
        skeletons.reserve(skeletonCount);
        for (uint32_t i = 0; i < skeletonCount; ++i) {
            isa::Word skeleton = source.get32();
            OperandFields fields =
                operandFields(isa::primOpOf(skeleton));
            if (skeleton & (fields.regMask() | fields.immMask()))
                return "skeleton " + std::to_string(i) +
                       " carries operand bits (not canonical)";
            if (!seenSkeletons.insert(skeleton).second)
                return "skeleton " + std::to_string(i) +
                       " duplicates an earlier table entry";
            skeletons.push_back(skeleton);
        }

        std::vector<uint8_t> lengths;
        lengths.reserve(entryCount);
        size_t totalWords = 0;
        for (uint32_t i = 0; i < entryCount; ++i) {
            uint8_t length = source.get8();
            if (length == 0 || length > maxEntryWords)
                return "dictionary entry length " +
                       std::to_string(length) + " outside 1.." +
                       std::to_string(maxEntryWords);
            lengths.push_back(length);
            totalWords += length;
        }
        if (totalWords > 0 && skeletonCount == 0)
            return "factored dictionary has words but no skeletons";

        unsigned skelBits = indexBits(skeletonCount);
        BitReader reader(source);
        entries.clear();
        entries.resize(entryCount);
        size_t word = 0;
        for (uint32_t e = 0; e < entryCount; ++e) {
            entries[e].reserve(lengths[e]);
            for (uint8_t k = 0; k < lengths[e]; ++k, ++word) {
                uint32_t index = reader.get(skelBits);
                if (index >= skeletonCount)
                    return "skeleton index " + std::to_string(index) +
                           " out of range for " +
                           std::to_string(skeletonCount) + " skeletons";
                FactoredWord factored;
                factored.skeleton = skeletons[index];
                OperandFields fields =
                    operandFields(isa::primOpOf(factored.skeleton));
                factored.regs =
                    static_cast<uint16_t>(reader.get(fields.regBits));
                factored.imm = reader.get(fields.immBits);
                // A canonical skeleton plus in-range raw fields fuses
                // and refactors bijectively by construction, so no
                // per-word canonicality recheck is needed.
                entries[e].push_back(fuseWord(factored));
            }
        }
        if (!reader.padIsZero())
            return "nonzero pad bits after the factored word stream";
        return std::nullopt;
    }
};

} // namespace

const SchemeCodec &
operandFactoredCodec()
{
    static const OperandFactoredCodec codec;
    return codec;
}

} // namespace codecomp::compress
