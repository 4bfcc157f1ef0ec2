#include "decompress/replay.hh"

#include <string>

#include "compress/codec.hh"
#include "decompress/engine.hh"
#include "support/logging.hh"

namespace codecomp {

namespace {

constexpr uint32_t noIndex = UINT32_MAX;

[[noreturn]] void
mismatch(MachineFault fault, uint32_t addr, const std::string &detail)
{
    throw MachineCheckError(fault, addr, detail);
}

/** The fetch of @p item alone, as CompressedCpu reports it: its nibble
 *  footprint rounded outward to whole bytes. */
FetchEvent
itemEvent(const DecodedItem &item)
{
    uint32_t pc = compress::CompressedImage::nibbleBase + item.nibbleAddr;
    uint32_t first_byte = pc / 2;
    uint32_t last_byte = (pc + item.nibbles - 1) / 2;
    return {first_byte, last_byte - first_byte + 1, 1, item.isCodeword,
            false, item.isCodeword ? item.rank : 0};
}

/** The number of items from @p k that spell the far-branch stub of
 *  native branch @p branch, with the stub's target pointer in
 *  @p pointer; 0 if they spell none. */
size_t
matchStub(const std::vector<DecodedItem> &items, size_t k,
          const isa::Inst &branch, compress::Scheme scheme,
          uint32_t &pointer)
{
    size_t length = compress::farBranchStubWords(branch);
    if (length == 0 || k + length > items.size())
        return 0;
    // The pointer halves sit in the lis/ori pair ahead of mtctr, bctr.
    const DecodedItem &hi = items[k + length - 4];
    const DecodedItem &lo = items[k + length - 3];
    if (hi.isCodeword || lo.isCodeword)
        return 0;
    pointer = static_cast<uint32_t>(isa::decode(hi.word).imm) << 16 |
              (static_cast<uint32_t>(isa::decode(lo.word).imm) & 0xffffu);
    std::vector<isa::Word> words =
        compress::farBranchStub(branch, pointer, scheme);
    for (size_t s = 0; s < length; ++s)
        if (items[k + s].isCodeword || items[k + s].word != words[s])
            return 0;
    return length;
}

} // namespace

std::vector<uint64_t>
NativeTrace::executionCounts(size_t textSize) const
{
    std::vector<uint64_t> counts(textSize, 0);
    for (const Run &run : runs)
        for (uint32_t i = 0; i < run.length; ++i)
            ++counts[run.start + i];
    return counts;
}

TraceReplayer::TraceReplayer(const compress::CompressedImage &image,
                             const Program &program)
{
    using compress::CompressedImage;
    // The engine decodes the stream as the fetch stage does, and
    // machine-checks a malformed one.
    DecompressionEngine engine(image);
    const std::vector<DecodedItem> &items = engine.items();
    compress::SchemeParams params = compress::schemeParams(image.scheme);
    uint32_t n = static_cast<uint32_t>(program.text.size());

    // An image holds no map from instructions to items, so the table is
    // built the way control reaches code: from the entry point and the
    // jump tables, along every fall-through and relative branch. Each
    // pair is (instruction index, compressed nibble offset) and states
    // "control reaching this instruction natively reaches this item".
    std::vector<std::pair<uint32_t, uint32_t>> work;
    work.emplace_back(program.entryIndex, image.entryPointNibble);
    if (image.dataBase != program.dataBase ||
        image.data.size() != program.data.size())
        mismatch(MachineFault::MemoryOutOfRange, image.dataBase,
                 "data image does not match the program's");
    std::vector<uint8_t> data = program.data;
    for (const CodeReloc &reloc : program.codeRelocs) {
        uint32_t pointer = 0;
        for (uint32_t byte = 0; byte < 4; ++byte) {
            uint8_t value = image.data[reloc.dataOffset + byte];
            data[reloc.dataOffset + byte] = value;
            pointer = pointer << 8 | value;
        }
        work.emplace_back(reloc.targetIndex,
                          pointer - CompressedImage::nibbleBase);
    }
    if (image.data != data)
        mismatch(MachineFault::MemoryOutOfRange, image.dataBase,
                 "data image differs from the program's outside its "
                 "jump tables");

    slots_.assign(n, Slot{});
    std::vector<uint32_t> nibble_of(n, noIndex);
    while (!work.empty()) {
        auto [index, nibble] = work.back();
        work.pop_back();
        if (index >= n)
            mismatch(MachineFault::FetchOutOfText, index,
                     "control reaches past the text");
        if (nibble_of[index] != noIndex) {
            if (nibble_of[index] != nibble)
                mismatch(MachineFault::MisalignedPc,
                         CompressedImage::nibbleBase + nibble,
                         "instruction " + std::to_string(index) +
                             " is reached at two compressed addresses");
            continue;
        }
        nibble_of[index] = nibble;
        uint32_t pc = CompressedImage::nibbleBase + nibble;
        size_t k = engine.itemIndexAt(nibble);
        const DecodedItem &item = items[k];
        Slot &slot = slots_[index];
        slot.event = itemEvent(item);
        uint32_t next_nibble = nibble + item.nibbles;
        isa::Inst inst = isa::decode(program.text[index]);
        uint32_t pointer = 0;
        size_t stub_items = 0;

        if (item.isCodeword) {
            const std::vector<isa::Word> &entry =
                image.entriesByRank.at(item.rank);
            if (entry.empty())
                mismatch(MachineFault::BadCodeword, pc,
                         "empty dictionary entry rank " +
                             std::to_string(item.rank));
            for (size_t s = 0; s < entry.size(); ++s) {
                if (isa::decode(entry[s]).isRelativeBranch())
                    mismatch(MachineFault::IllegalInstruction, pc,
                             "relative branch inside dictionary entry "
                             "rank " +
                                 std::to_string(item.rank));
                if (index + s >= n || entry[s] != program.text[index + s])
                    mismatch(MachineFault::BadCodeword, pc,
                             "dictionary entry rank " +
                                 std::to_string(item.rank) +
                                 " does not match the instructions from " +
                                 std::to_string(index));
            }
            slot.event.retired = static_cast<uint32_t>(entry.size());
        } else if (!inst.isRelativeBranch()) {
            if (item.word != program.text[index])
                mismatch(MachineFault::IllegalInstruction, pc,
                         "item does not match instruction " +
                             std::to_string(index));
        } else if ((stub_items = matchStub(items, k, inst, image.scheme,
                                           pointer)) != 0) {
            // A far-branch stub: its fetches follow from the branch's
            // outcome alone.
            Stub stub;
            for (size_t s = 0; s < stub_items; ++s)
                stub.taken.push_back(itemEvent(items[k + s]));
            stub.taken.back().taken = true;
            if (inst.op == isa::Op::Bc) {
                // bc, b +5 when not taken; bc, lis, ori, mtctr, bctr
                // when taken.
                stub.notTaken = {stub.taken[0], stub.taken[1]};
                stub.notTaken[1].taken = true;
                stub.taken.erase(stub.taken.begin() + 1);
                stub.taken[0].taken = true;
            } else {
                stub.notTaken = stub.taken;
            }
            slot.stub = static_cast<uint32_t>(stubs_.size());
            stubs_.push_back(std::move(stub));
            const DecodedItem &last = items[k + stub_items - 1];
            next_nibble = last.nibbleAddr + last.nibbles;
            work.emplace_back(program.branchTargetIndex(index),
                              pointer - CompressedImage::nibbleBase);
        } else {
            // The same branch, its displacement counted in the scheme's
            // units from its own item.
            isa::Inst got = isa::decode(item.word);
            isa::Inst same = got;
            same.disp = inst.disp;
            same.aa = inst.aa;
            if (got.op != inst.op || got.aa ||
                isa::encode(same) != program.text[index])
                mismatch(MachineFault::IllegalInstruction, pc,
                         "item does not match branch instruction " +
                             std::to_string(index));
            work.emplace_back(
                program.branchTargetIndex(index),
                nibble + static_cast<uint32_t>(got.disp) *
                             params.unitNibbles);
        }

        uint32_t next = index + slot.event.retired;
        if (next < n && isa::decode(program.text[next - 1]).canFallThrough())
            work.emplace_back(next, next_nibble);
    }
}

void
TraceReplayer::notAnItemStart(uint32_t index)
{
    throw MachineCheckError(MachineFault::MisalignedPc, index,
                            "trace reaches instruction " +
                                std::to_string(index) +
                                ", which begins no item of the image");
}

void
TraceReplayer::runPastText(uint32_t start)
{
    throw MachineCheckError(MachineFault::FetchOutOfText, start,
                            "trace run from instruction " +
                                std::to_string(start) +
                                " leaves the text");
}

void
TraceReplayer::stepLimitExceeded(uint64_t max_steps)
{
    CC_FATAL("compressed program exceeded ", max_steps, " steps");
}

} // namespace codecomp
