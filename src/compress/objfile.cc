#include "compress/objfile.hh"

#include "compress/scan.hh"
#include "isa/inst.hh"
#include "support/serialize.hh"

namespace codecomp {

namespace {

constexpr uint32_t programMagic = 0x43435052;   // "CCPR"
constexpr uint32_t imageMagic = 0x4343494d;     // "CCIM"
// v2 wraps the payload in a 64-bit FNV-1a checksum; v1 files (no
// checksum) are no longer accepted -- nothing outside this repository
// ever produced them.
constexpr uint32_t formatVersion = 2;

void
putRange(ByteSink &sink, const InstRange &range)
{
    sink.put32(range.first);
    sink.put32(range.count);
}

InstRange
getRange(ByteSource &source)
{
    InstRange range;
    range.first = source.get32();
    range.count = source.get32();
    return range;
}

LoadError
badValue(const ByteSource &source, std::string detail)
{
    return LoadError{LoadStatus::BadValue, source.pos(), source.context(),
                     std::move(detail)};
}

} // namespace

std::vector<uint8_t>
saveProgram(const Program &program)
{
    ByteSink sink;
    sink.put32(static_cast<uint32_t>(program.text.size()));
    for (isa::Word word : program.text)
        sink.put32(word);

    sink.putBlob(program.data);

    sink.put32(static_cast<uint32_t>(program.codeRelocs.size()));
    for (const CodeReloc &reloc : program.codeRelocs) {
        sink.put32(reloc.dataOffset);
        sink.put32(reloc.targetIndex);
    }

    sink.put32(static_cast<uint32_t>(program.functions.size()));
    for (const FunctionSymbol &fn : program.functions) {
        sink.putString(fn.name);
        putRange(sink, fn.body);
        putRange(sink, fn.prologue);
        sink.put32(static_cast<uint32_t>(fn.epilogues.size()));
        for (const InstRange &ep : fn.epilogues)
            putRange(sink, ep);
    }

    sink.put32(program.entryIndex);
    return sealPayload(programMagic, formatVersion, sink.bytes());
}

Result<Program>
tryLoadProgram(const std::vector<uint8_t> &bytes)
{
    Result<std::vector<uint8_t>> payload =
        openSealed(bytes, programMagic, formatVersion, ".ccp program");
    if (!payload.ok())
        return payload.error();
    try {
        ByteSource source(payload.value());
        source.setContext(".ccp payload");

        Program program;
        uint32_t text_count = source.get32();
        // Bound declared counts by the remaining payload before any
        // reserve: a lying count must fail cleanly, not allocate.
        if (text_count > source.remaining() / 4)
            return badValue(source,
                            "declared " + std::to_string(text_count) +
                                " instructions exceed the payload");
        program.text.reserve(text_count);
        for (uint32_t i = 0; i < text_count; ++i)
            program.text.push_back(source.get32());

        program.data = source.getBlob();

        uint32_t reloc_count = source.get32();
        if (reloc_count > source.remaining() / 8)
            return badValue(source,
                            "declared " + std::to_string(reloc_count) +
                                " relocations exceed the payload");
        program.codeRelocs.reserve(reloc_count);
        for (uint32_t i = 0; i < reloc_count; ++i) {
            CodeReloc reloc;
            reloc.dataOffset = source.get32();
            reloc.targetIndex = source.get32();
            program.codeRelocs.push_back(reloc);
        }

        uint32_t fn_count = source.get32();
        for (uint32_t i = 0; i < fn_count; ++i) {
            FunctionSymbol fn;
            fn.name = source.getString();
            fn.body = getRange(source);
            fn.prologue = getRange(source);
            uint32_t ep_count = source.get32();
            if (ep_count > source.remaining() / 8)
                return badValue(source,
                                "declared " + std::to_string(ep_count) +
                                    " epilogues exceed the payload");
            fn.epilogues.reserve(ep_count);
            for (uint32_t e = 0; e < ep_count; ++e)
                fn.epilogues.push_back(getRange(source));
            program.functions.push_back(std::move(fn));
        }

        program.entryIndex = source.get32();
        if (!source.atEnd())
            return LoadError{LoadStatus::TrailingBytes, source.pos(),
                             source.context(),
                             std::to_string(source.remaining()) +
                                 " byte(s) after the program fields"};

        program.computeDataBase();
        if (std::optional<LoadError> error = program.validate())
            return *error;
        return program;
    } catch (const LoadFailure &failure) {
        return failure.error();
    }
}

Program
loadProgram(const std::vector<uint8_t> &bytes)
{
    Result<Program> result = tryLoadProgram(bytes);
    if (!result.ok())
        throw LoadFailure(result.error());
    return result.take();
}

std::vector<uint8_t>
saveImage(const compress::CompressedImage &image)
{
    ByteSink sink;
    sink.put8(static_cast<uint8_t>(image.scheme));
    sink.put64(image.textNibbles);
    sink.putBlob(image.text);

    sink.put32(static_cast<uint32_t>(image.entriesByRank.size()));
    compress::schemeCodec(image.scheme)
        .putDictionary(sink, image.entriesByRank);

    sink.putBlob(image.data);
    sink.put32(image.dataBase);
    sink.put32(image.entryPointNibble);
    sink.put32(image.originalTextBytes);
    sink.put32(image.farBranchExpansions);
    return sealPayload(imageMagic, formatVersion, sink.bytes());
}

Result<compress::CompressedImage>
tryLoadImage(const std::vector<uint8_t> &bytes)
{
    Result<std::vector<uint8_t>> payload =
        openSealed(bytes, imageMagic, formatVersion, ".cci image");
    if (!payload.ok())
        return payload.error();
    try {
        ByteSource source(payload.value());
        source.setContext(".cci payload");

        compress::CompressedImage image;
        uint8_t scheme = source.get8();
        const compress::SchemeCodec *codec =
            compress::findSchemeCodec(scheme);
        if (!codec)
            return badValue(source, "bad scheme byte " +
                                        std::to_string(scheme));
        image.scheme = codec->id();
        image.textNibbles = source.get64();
        image.text = source.getBlob();

        uint32_t entries = source.get32();
        if (entries > codec->params().maxCodewords)
            return badValue(
                source,
                std::to_string(entries) +
                    " dictionary entries exceed the scheme ceiling of " +
                    std::to_string(codec->params().maxCodewords));
        if (std::optional<std::string> detail = codec->getDictionary(
                source, entries, maxImageEntryWords, image.entriesByRank))
            return badValue(source, std::move(*detail));

        image.data = source.getBlob();
        image.dataBase = source.get32();
        image.entryPointNibble = source.get32();
        image.originalTextBytes = source.get32();
        image.farBranchExpansions = source.get32();
        if (!source.atEnd())
            return LoadError{LoadStatus::TrailingBytes, source.pos(),
                             source.context(),
                             std::to_string(source.remaining()) +
                                 " byte(s) after the image fields"};

        if (std::optional<LoadError> error = validateImage(image))
            return *error;
        return image;
    } catch (const LoadFailure &failure) {
        return failure.error();
    }
}

compress::CompressedImage
loadImage(const std::vector<uint8_t> &bytes)
{
    Result<compress::CompressedImage> result = tryLoadImage(bytes);
    if (!result.ok())
        throw LoadFailure(result.error());
    return result.take();
}

std::optional<LoadError>
validateImage(const compress::CompressedImage &image)
{
    auto invalid = [](std::string detail) {
        return LoadError{LoadStatus::BadValue, 0, "compressed image",
                         std::move(detail)};
    };

    const compress::SchemeCodec *codec =
        compress::findSchemeCodec(static_cast<uint8_t>(image.scheme));
    if (!codec)
        return invalid("bad scheme value " +
                       std::to_string(static_cast<int>(image.scheme)));
    const compress::SchemeParams params = codec->params();

    // The byte blob must match the declared nibble count exactly: at
    // most one pad nibble (in the last byte's low half). Anything else
    // would let phantom nibbles reach the decoder.
    if (image.text.size() != (image.textNibbles + 1) / 2)
        return invalid("nibble count " +
                       std::to_string(image.textNibbles) +
                       " does not match stream of " +
                       std::to_string(image.text.size()) + " bytes");
    if (image.textNibbles % 2 != 0 &&
        (image.text.back() & 0x0f) != 0)
        return invalid("nonzero pad nibble after an odd-length stream");

    // Dictionary: ceiling, entry lengths, and entry word legality. A
    // relative branch inside an entry can never execute correctly (the
    // expansion has no stream position of its own), so it is rejected
    // here rather than trapped later.
    if (image.entriesByRank.size() > params.maxCodewords)
        return invalid(std::to_string(image.entriesByRank.size()) +
                       " dictionary entries exceed the scheme ceiling of " +
                       std::to_string(params.maxCodewords));
    for (size_t rank = 0; rank < image.entriesByRank.size(); ++rank) {
        const std::vector<isa::Word> &entry = image.entriesByRank[rank];
        if (entry.empty() || entry.size() > maxImageEntryWords)
            return invalid("dictionary entry " + std::to_string(rank) +
                           " has " + std::to_string(entry.size()) +
                           " words (format allows 1.." +
                           std::to_string(maxImageEntryWords) + ")");
        for (size_t slot = 0; slot < entry.size(); ++slot) {
            isa::Inst inst = isa::decode(entry[slot]);
            if (inst.op == isa::Op::Illegal)
                return invalid("dictionary entry " + std::to_string(rank) +
                               " slot " + std::to_string(slot) +
                               " does not decode to a legal instruction");
            if (inst.isRelativeBranch())
                return invalid("dictionary entry " + std::to_string(rank) +
                               " slot " + std::to_string(slot) +
                               " is a relative branch");
        }
    }

    // Walk the stream with the decompression engine's own scan, turning
    // its faults into typed errors instead of machine checks. Collect the
    // item boundaries for the branch-target and entry-point checks below.
    // The first bad item in stream order decides the verdict: an illegal
    // word stops the scan before any later fault is seen.
    std::vector<bool> boundary(image.textNibbles, false);
    struct StreamBranch
    {
        uint32_t addr;
        int32_t disp;
    };
    std::vector<StreamBranch> branches;
    std::optional<LoadError> item_error;
    std::optional<compress::StreamFault> fault = compress::scanStream(
        codec->tables(), image.text, image.textNibbles,
        image.entriesByRank.size(), [&](const compress::DecodedItem &item) {
            boundary[item.nibbleAddr] = true;
            if (item.isCodeword)
                return true;
            isa::Inst inst = isa::decode(item.word);
            if (inst.op == isa::Op::Illegal) {
                item_error = invalid(
                    "stream instruction at nibble " +
                    std::to_string(item.nibbleAddr) +
                    " does not decode to a legal instruction");
                return false;
            }
            if (inst.isRelativeBranch())
                branches.push_back({item.nibbleAddr, inst.disp});
            return true;
        });
    if (item_error)
        return item_error;
    if (fault && fault->kind == compress::StreamFault::Truncated)
        return invalid("stream ends mid-item at nibble " +
                       std::to_string(fault->nibbleAddr));
    if (fault)
        return invalid("codeword at nibble " +
                       std::to_string(fault->nibbleAddr) + " names rank " +
                       std::to_string(fault->rank) +
                       " beyond the dictionary of " +
                       std::to_string(image.entriesByRank.size()) +
                       " entries");

    if (image.entryPointNibble >= image.textNibbles ||
        !boundary[image.entryPointNibble])
        return invalid("entry point nibble " +
                       std::to_string(image.entryPointNibble) +
                       " is not an item boundary");

    for (const StreamBranch &branch : branches) {
        int64_t target = static_cast<int64_t>(branch.addr) +
                         static_cast<int64_t>(branch.disp) *
                             params.unitNibbles;
        if (target < 0 ||
            target >= static_cast<int64_t>(image.textNibbles) ||
            !boundary[static_cast<size_t>(target)])
            return invalid("branch at nibble " +
                           std::to_string(branch.addr) + " targets nibble " +
                           std::to_string(target) +
                           ", not an item boundary");
    }

    if (static_cast<uint64_t>(image.dataBase) + image.data.size() >
        isa::addressSpaceBytes)
        return invalid(".data of " + std::to_string(image.data.size()) +
                       " bytes at base " + std::to_string(image.dataBase) +
                       " does not fit the address space");

    return std::nullopt;
}

} // namespace codecomp
