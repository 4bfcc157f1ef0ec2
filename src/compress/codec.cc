#include "compress/codec.hh"

#include <cctype>

#include "compress/encoding.hh"
#include "compress/opfac.hh"
#include "support/logging.hh"

namespace codecomp::compress {

// ---- default accounting ----

EmitAccounting
SchemeCodec::instructionAccounting() const
{
    // Every scheme spends the 8 word nibbles; anything beyond that in
    // the item length is escape overhead (the nibble schemes' escape
    // nibble; the byte schemes have none).
    EmitAccounting accounting;
    accounting.insnNibbles = 2 * isa::instBytes;
    accounting.escapeNibbles = params().insnNibbles - accounting.insnNibbles;
    return accounting;
}

EmitAccounting
SchemeCodec::codewordAccounting(uint32_t rank) const
{
    EmitAccounting accounting;
    accounting.codewordNibbles = codewordNibbles(rank);
    return accounting;
}

// ---- default (flat) dictionary form ----

size_t
SchemeCodec::dictionaryBytes(const std::vector<DictEntry> &entries) const
{
    size_t total = 0;
    for (const DictEntry &entry : entries)
        total += entry.size() * isa::instBytes;
    return total;
}

void
SchemeCodec::putDictionary(ByteSink &sink,
                           const std::vector<DictEntry> &entries) const
{
    for (const DictEntry &entry : entries) {
        sink.put32(static_cast<uint32_t>(entry.size()));
        for (isa::Word word : entry)
            sink.put32(word);
    }
}

std::optional<std::string>
SchemeCodec::getDictionary(ByteSource &source, uint32_t entryCount,
                           uint32_t maxEntryWords,
                           std::vector<DictEntry> &entries) const
{
    entries.resize(entryCount);
    for (DictEntry &entry : entries) {
        uint32_t length = source.get32();
        if (length == 0 || length > maxEntryWords)
            return "dictionary entry length " + std::to_string(length) +
                   " outside 1.." + std::to_string(maxEntryWords);
        if (length > source.remaining() / 4)
            return "dictionary entry of " + std::to_string(length) +
                   " words exceeds the payload";
        entry.reserve(length);
        for (uint32_t k = 0; k < length; ++k)
            entry.push_back(source.get32());
    }
    return std::nullopt;
}

// ---- registry ----

const std::vector<const SchemeCodec *> &
allCodecs()
{
    // The one list every consumer iterates. A new backend adds its
    // accessor here (and its enum member in codec.hh); nothing else in
    // the tree enumerates schemes.
    static const std::vector<const SchemeCodec *> registry = {
        &baselineCodec(),
        &oneByteCodec(),
        &nibbleCodec(),
        &operandFactoredCodec(),
    };
    return registry;
}

std::vector<Scheme>
allSchemes()
{
    std::vector<Scheme> schemes;
    for (const SchemeCodec *codec : allCodecs())
        schemes.push_back(codec->id());
    return schemes;
}

const SchemeCodec &
schemeCodec(Scheme scheme)
{
    for (const SchemeCodec *codec : allCodecs())
        if (codec->id() == scheme)
            return *codec;
    CC_PANIC("bad scheme");
}

const SchemeCodec *
findSchemeCodec(uint8_t id)
{
    for (const SchemeCodec *codec : allCodecs())
        if (static_cast<uint8_t>(codec->id()) == id)
            return codec;
    return nullptr;
}

// ---- registry-backed wrappers ----

SchemeParams
schemeParams(Scheme scheme)
{
    return schemeCodec(scheme).params();
}

unsigned
codewordNibbles(Scheme scheme, uint32_t rank)
{
    return schemeCodec(scheme).codewordNibbles(rank);
}

void
emitCodeword(NibbleWriter &writer, Scheme scheme, uint32_t rank)
{
    schemeCodec(scheme).emitCodeword(writer, rank);
}

void
emitInstruction(NibbleWriter &writer, Scheme scheme, uint32_t word)
{
    schemeCodec(scheme).emitInstruction(writer, word);
}

const DecodeTables &
decodeTables(Scheme scheme)
{
    return schemeCodec(scheme).tables();
}

const char *
schemeName(Scheme scheme)
{
    return schemeCodec(scheme).name();
}

const char *
schemeCliName(Scheme scheme)
{
    return schemeCodec(scheme).cliName();
}

std::optional<Scheme>
parseSchemeName(std::string_view name)
{
    for (const SchemeCodec *codec : allCodecs())
        if (name == codec->cliName())
            return codec->id();
    return std::nullopt;
}

std::string
schemeTestName(Scheme scheme)
{
    std::string token;
    bool upper = true;
    for (const char *p = schemeCliName(scheme); *p; ++p) {
        if (!std::isalnum(static_cast<unsigned char>(*p))) {
            upper = true;
            continue;
        }
        token += upper ? static_cast<char>(
                             std::toupper(static_cast<unsigned char>(*p)))
                       : *p;
        upper = false;
    }
    return token;
}

std::string
schemeCliNames(std::string_view separator)
{
    std::string names;
    for (const SchemeCodec *codec : allCodecs()) {
        if (!names.empty())
            names += separator;
        names += codec->cliName();
    }
    return names;
}

} // namespace codecomp::compress
