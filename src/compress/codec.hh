/**
 * @file
 * The scheme-codec layer: one descriptor object per compression scheme
 * plus a registry, replacing the hand-rolled `switch (scheme)` dispatch
 * that used to live in encoding.cc and its consumers.
 *
 * A SchemeCodec owns everything that varies per scheme -- codeword
 * widths, stream emission, the constexpr decode tables the engine's
 * scan indexes, the Composition accounting split, the dictionary's
 * serialized form and ROM cost, and the CLI/display names. Every other
 * layer (pipeline, engine, objfile, verify, timing, farm, tools,
 * benches) either queries one codec or iterates allCodecs(); none of
 * them enumerates `{Scheme::Nibble, ...}` literals.
 *
 * Adding a backend is therefore: implement the interface in its own
 * .hh/.cc pair, add the enum member, and add one line to the registry
 * list in codec.cc (see DESIGN.md section 12 for the checklist). The
 * operand-factored scheme (opfac.hh) is the existence proof.
 *
 * The original free functions (schemeParams, emitCodeword, ...) remain
 * as thin registry-backed wrappers so call sites that already hold a
 * Scheme value stay terse; hot paths hold a `const SchemeCodec &` and
 * skip the per-call lookup.
 */

#ifndef CODECOMP_COMPRESS_CODEC_HH
#define CODECOMP_COMPRESS_CODEC_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "isa/isa.hh"
#include "support/bitstream.hh"
#include "support/serialize.hh"

namespace codecomp::compress {

/** Stable on-disk scheme identities (.cci scheme byte). Append only;
 *  the registry order in codec.cc mirrors this order. */
enum class Scheme : uint8_t {
    Baseline,        //!< 2-byte escape + index codewords
    OneByte,         //!< 1-byte escape-only codewords
    Nibble,          //!< 4/8/12/16-bit nibble-aligned codewords
    OperandFactored, //!< nibble stream + operand-factored dictionary
};

/** Static parameters of one scheme. */
struct SchemeParams
{
    unsigned unitNibbles;  //!< branch-target granularity (paper 3.2.2)
    unsigned insnNibbles;  //!< stream cost of an uncompressed instruction
    unsigned maxCodewords;
    unsigned defaultAssumedCodewordNibbles; //!< greedy cost model input

    /** Greedy/refit cost-model price of one dictionary word and the
     *  fixed per-entry overhead, in nibbles. The flat schemes store
     *  4 bytes per word (8 nibbles, no framing); codecs with cheaper
     *  dictionary encodings lower these so selection admits the extra
     *  entries their dictionaries can afford. */
    unsigned dictEntryNibbles = 8;
    unsigned dictEntryExtraNibbles = 0;
};

/**
 * Classification of one stream item by its leading prefix nibbles.
 * Every decode decision of a scheme -- item length, codeword vs raw
 * instruction, and where the rank index sits -- is a pure function of
 * the first prefixNibbles of the item, so it can be precomputed into a
 * 256-entry table and the decoder reduced to one indexed load plus
 * shift/mask field extraction (DESIGN.md section 10).
 */
struct ItemClass
{
    uint8_t nibbles;       //!< total item length, escape included
    uint8_t isCodeword;    //!< 1 = codeword, 0 = uncompressed inst
    uint8_t indexNibbles;  //!< rank-index nibbles after the prefix
    uint32_t rankBase;     //!< rank = rankBase + index
};

/** Per-scheme decode tables: the item class for every possible value
 *  of the leading prefix (one nibble or one byte; single-nibble
 *  prefixes use entries 0..15). */
struct DecodeTables
{
    unsigned prefixNibbles;
    std::array<ItemClass, 256> classes;
};

/** How one emitted item splits across the Composition buckets
 *  (paper Fig 9): raw instruction nibbles, escape overhead, and
 *  codeword index nibbles. */
struct EmitAccounting
{
    unsigned insnNibbles = 0;
    unsigned escapeNibbles = 0;
    unsigned codewordNibbles = 0;
};

/** One dictionary entry: the instruction words a codeword expands to. */
using DictEntry = std::vector<isa::Word>;

/**
 * Everything one compression scheme knows about itself. Implementations
 * are stateless singletons registered in codec.cc; all methods are
 * thread-safe by construction.
 */
class SchemeCodec
{
  public:
    virtual ~SchemeCodec() = default;

    virtual Scheme id() const = 0;

    /** Descriptive display name, e.g. "nibble-aligned" (stats output
     *  and figures). */
    virtual const char *name() const = 0;

    /** CLI / job-spec name, e.g. "nibble". Parse/print must be a
     *  bijection over the registry (CodecRegistry tests). */
    virtual const char *cliName() const = 0;

    /** One-line description for `ccompress --list-schemes` and the
     *  README scheme table. */
    virtual const char *summary() const = 0;

    virtual SchemeParams params() const = 0;

    /** The precomputed (constexpr) decode tables the stream scan
     *  (compress/scan.hh) indexes; a codec writes no decoder of its
     *  own. */
    virtual const DecodeTables &tables() const = 0;

    /** Size in nibbles of the codeword for dictionary rank @p rank. */
    virtual unsigned codewordNibbles(uint32_t rank) const = 0;

    /** Append the codeword for @p rank. */
    virtual void emitCodeword(NibbleWriter &writer, uint32_t rank) const = 0;

    /** Append one uncompressed instruction (escape included). */
    virtual void emitInstruction(NibbleWriter &writer,
                                 isa::Word word) const = 0;

    /** Composition split of one emitted uncompressed instruction. The
     *  default derives the escape overhead from params().insnNibbles
     *  (everything beyond the 8 word nibbles is escape). */
    virtual EmitAccounting instructionAccounting() const;

    /** Composition split of the codeword for @p rank. The default
     *  charges the whole width to the codeword bucket; Baseline
     *  overrides to split its escape byte out. */
    virtual EmitAccounting codewordAccounting(uint32_t rank) const;

    /**
     * ROM cost of the rank-ordered dictionary in bytes; feeds
     * CompressedImage::totalBytes and the Composition invariant. The
     * default is the flat array layout (4 bytes per word, no framing);
     * codecs with their own serialized form return that form's size.
     */
    virtual size_t dictionaryBytes(const std::vector<DictEntry> &entries) const;

    /** Serialize the dictionary body into a .cci payload (the entry
     *  count is written by the caller). The default matches the
     *  historical flat format: per entry a u32 length then the words. */
    virtual void putDictionary(ByteSink &sink,
                               const std::vector<DictEntry> &entries) const;

    /**
     * Deserialize @p entryCount entries written by putDictionary,
     * validating counts against the remaining payload and every entry
     * length against 1..maxEntryWords before allocating. Returns an
     * error description on malformed input (mapped to a BadValue
     * LoadError by the caller); truncation surfaces as the source's
     * LoadFailure.
     */
    virtual std::optional<std::string>
    getDictionary(ByteSource &source, uint32_t entryCount,
                  uint32_t maxEntryWords,
                  std::vector<DictEntry> &entries) const;
};

/** Every registered codec, in Scheme enum order (stable across runs;
 *  the registry list lives in codec.cc). */
const std::vector<const SchemeCodec *> &allCodecs();

/** The Scheme of every registered codec, for parameterized tests and
 *  sweep loops. */
std::vector<Scheme> allSchemes();

/** The codec for @p scheme; fatal on a value outside the registry
 *  (callers validating untrusted bytes use findSchemeCodec). */
const SchemeCodec &schemeCodec(Scheme scheme);

/** The codec whose enum value is @p id, or nullptr -- the loader-side
 *  lookup for an untrusted .cci scheme byte. */
const SchemeCodec *findSchemeCodec(uint8_t id);

/** @{ Registry-backed wrappers preserving the original encoding.hh
 *  free-function surface. */
SchemeParams schemeParams(Scheme scheme);
unsigned codewordNibbles(Scheme scheme, uint32_t rank);
void emitCodeword(NibbleWriter &writer, Scheme scheme, uint32_t rank);
void emitInstruction(NibbleWriter &writer, Scheme scheme, uint32_t word);
const DecodeTables &decodeTables(Scheme scheme);
const char *schemeName(Scheme scheme);
const char *schemeCliName(Scheme scheme);
/** @} */

/** Inverse of schemeCliName over the registry; nullopt for an unknown
 *  name. */
std::optional<Scheme> parseSchemeName(std::string_view name);

/** Every registered CLI name joined by @p separator -- the single
 *  source for tool usage strings and error messages. */
std::string schemeCliNames(std::string_view separator = "|");

/** The cliName as an identifier-safe PascalCase token ("baseline" ->
 *  "Baseline"), for parameterized-test labels. */
std::string schemeTestName(Scheme scheme);

} // namespace codecomp::compress

#endif // CODECOMP_COMPRESS_CODEC_HH
