#include "verify/lockstep.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <sstream>

#include "isa/disasm.hh"
#include "support/logging.hh"
#include "verify/items.hh"

namespace codecomp::verify {

namespace {

/** Internal control-flow escape; deliberately not a std::exception. */
struct StopRun
{};

std::string
hex32(uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%08x", v);
    return buf;
}

/**
 * The lockstep driver. Owns both processors and all comparison state;
 * runLockstep constructs one per call.
 */
class Verifier
{
  public:
    Verifier(const Program &program,
             const compress::CompressedImage &image,
             const LockstepConfig &config)
        : program_(program), image_(image), config_(config),
          native_(program), compressed_(image),
          items_(mapItems(compressed_.engine(), image))
    {
        // r2 is the far-branch scratch register: stubs clobber it with
        // target-address halves that exist only in the compressed
        // space, so it is incomparable whenever stubs were emitted.
        excludeR2_ = image.farBranchExpansions > 0;
    }

    LockstepResult run();

  private:
    static constexpr uint32_t noIndex = ItemMap::noIndex;
    static constexpr uint32_t base_ = compress::CompressedImage::nibbleBase;
    /** Bytes fullStateCheck compares with one memcmp. */
    static constexpr uint32_t walkBlockBytes = 4096;

    bool equalOrMapped(uint32_t native_val, uint32_t compressed_val) const;

    void onRetire(const isa::Inst &inst, uint32_t item_pc, unsigned slot);
    void pairedRetire(const isa::Inst &inst, uint32_t item_pc,
                      unsigned slot, uint32_t orig_index, bool is_codeword,
                      uint32_t rank);
    void stepNative();
    void compareState(const isa::Inst &inst, bool synthetic_group);
    void compareStores();
    void compareOutput();
    void fullStateCheck(const char *when);

    void recordCompressed(const isa::Inst &inst, uint32_t item_pc,
                          unsigned slot, bool synthetic, bool is_codeword,
                          uint32_t rank);
    void capture(const char *kind, const std::string &detail);
    [[noreturn]] void captureStop(const char *kind,
                                  const std::string &detail);
    void addDivergence(const char *kind, const std::string &detail);
    std::vector<std::string> formatWindow(
        const std::deque<RetiredInst> &window, bool compressed) const;

    const Program &program_;
    const compress::CompressedImage &image_;
    LockstepConfig config_;
    Cpu native_;
    CompressedCpu compressed_;

    ItemMap items_;

    bool excludeR2_ = false;
    bool ctrPoisoned_ = false; //!< stub mtctr ran; CTR incomparable
    bool inStub_ = false;
    uint32_t stubOrig_ = noIndex; //!< orig index of the stub's branch
    uint32_t stubStart_ = 0, stubEndNibble_ = 0;

    std::vector<Machine::Store> nativeStores_, compressedStores_;
    size_t outputCursor_ = 0;

    std::deque<RetiredInst> nativeWindow_, compressedWindow_;
    uint64_t nativeSeq_ = 0, compressedSeq_ = 0;

    LockstepResult result_;
    bool stopped_ = false;
};

/**
 * Value equality modulo the code-pointer mapping: a native byte address
 * of instruction i corresponds to the compressed nibble address of the
 * item that begins at i. Non-code values must match exactly.
 */
bool
Verifier::equalOrMapped(uint32_t native_val, uint32_t compressed_val) const
{
    if (native_val == compressed_val)
        return true;
    if (native_val < Program::textBase || (native_val & 3u) != 0)
        return false;
    uint32_t index = (native_val - Program::textBase) / isa::instBytes;
    if (index >= image_.addrMap.size() ||
        image_.addrMap[index] == compress::CompressedImage::noItem)
        return false;
    return base_ + image_.addrMap[index] == compressed_val;
}

void
Verifier::recordCompressed(const isa::Inst &inst, uint32_t item_pc,
                           unsigned slot, bool synthetic, bool is_codeword,
                           uint32_t rank)
{
    RetiredInst r;
    r.seq = ++compressedSeq_;
    r.pc = item_pc;
    r.inst = inst;
    r.slot = slot;
    r.synthetic = synthetic;
    r.isCodeword = is_codeword;
    r.rank = rank;
    compressedWindow_.push_back(r);
    if (compressedWindow_.size() > config_.window)
        compressedWindow_.pop_front();
}

std::vector<std::string>
Verifier::formatWindow(const std::deque<RetiredInst> &window,
                       bool compressed) const
{
    std::vector<std::string> lines;
    lines.reserve(window.size());
    for (const RetiredInst &r : window) {
        std::ostringstream os;
        os << "#" << r.seq << " pc=" << hex32(r.pc);
        if (compressed) {
            if (r.isCodeword)
                os << " slot " << r.slot << " of codeword rank " << r.rank;
            os << ": " << isa::disassemble(r.inst, 0);
            if (r.synthetic)
                os << " [far-branch stub]";
        } else {
            os << ": " << isa::disassemble(r.inst, r.pc);
        }
        lines.push_back(os.str());
    }
    return lines;
}

/** Append a divergence with both history windows to the result. */
void
Verifier::addDivergence(const char *kind, const std::string &detail)
{
    result_.divergences.push_back({kind, detail, result_.verifiedInsts,
                                   formatWindow(nativeWindow_, false),
                                   formatWindow(compressedWindow_, true)});
}

void
Verifier::capture(const char *kind, const std::string &detail)
{
    addDivergence(kind, detail);
    if (result_.divergences.size() >= config_.maxDivergences) {
        stopped_ = true;
        throw StopRun{};
    }
}

void
Verifier::captureStop(const char *kind, const std::string &detail)
{
    addDivergence(kind, detail);
    stopped_ = true;
    throw StopRun{};
}

/** Retire observer body: every compressed instruction comes through
 *  here. */
void
Verifier::onRetire(const isa::Inst &inst, uint32_t item_pc, unsigned slot)
{
    if (result_.verifiedInsts + result_.syntheticInsts >= config_.maxSteps)
        captureStop("max-steps",
                    "compressed side retired more than " +
                        std::to_string(config_.maxSteps) +
                        " instructions without exiting");

    uint32_t item_index = compressed_.engine().itemIndexAt(item_pc - base_);
    const DecodedItem &item = compressed_.engine().items()[item_index];

    if (items_.isStub[item_index]) {
        ++result_.syntheticInsts;
        recordCompressed(inst, item_pc, slot, true, item.isCodeword,
                         item.rank);
        if (inst.op == isa::Op::Mtspr &&
            inst.spr == static_cast<uint16_t>(isa::Spr::CTR)) {
            ctrPoisoned_ = true;
        }
        return;
    }
    pairedRetire(inst, item_pc, slot, items_.origOf[item_index],
                 item.isCodeword, item.rank);
}

void
Verifier::pairedRetire(const isa::Inst &inst, uint32_t item_pc,
                       unsigned slot, uint32_t orig_index, bool is_codeword,
                       uint32_t rank)
{
    recordCompressed(inst, item_pc, slot, false, is_codeword, rank);
    CC_ASSERT(orig_index != noIndex, "paired retire on unmapped item");

    uint32_t expected = program_.addrOfIndex(orig_index + slot);
    if (native_.pc() != expected)
        captureStop("pc-map",
                    "native pc " + hex32(native_.pc()) +
                        " != " + hex32(expected) +
                        " expected for original instruction " +
                        std::to_string(orig_index + slot));

    // The compressed stream must reproduce the original words exactly,
    // except relative branches, whose displacement field is re-encoded
    // at codeword granularity (their semantics are checked by the next
    // pc-map comparison instead).
    if (!inst.isRelativeBranch()) {
        isa::Word original = program_.text[orig_index + slot];
        isa::Word retired = isa::encode(inst);
        if (retired != original)
            capture("inst-word",
                    "retired word " + hex32(retired) +
                        " differs from original " + hex32(original) +
                        " at instruction " +
                        std::to_string(orig_index + slot) +
                        (is_codeword ? " (dictionary rank " +
                                           std::to_string(rank) + ")"
                                     : ""));
    }

    stepNative();

    if (!inStub_ && inst.op == isa::Op::Mtspr &&
        inst.spr == static_cast<uint16_t>(isa::Spr::CTR)) {
        // A genuine mtctr overwrites whatever a far-branch stub left in
        // CTR on both sides; the register is comparable again.
        ctrPoisoned_ = false;
    }
    compareState(inst, false);

    ++result_.verifiedInsts;
    if (config_.fullCheckInterval != 0 &&
        result_.verifiedInsts % config_.fullCheckInterval == 0) {
        fullStateCheck("interval");
    }
}

void
Verifier::stepNative()
{
    uint32_t index = program_.indexOfAddr(native_.pc());
    RetiredInst r;
    r.seq = ++nativeSeq_;
    r.pc = native_.pc();
    r.inst = isa::decode(program_.text[index]);
    nativeWindow_.push_back(r);
    if (nativeWindow_.size() > config_.window)
        nativeWindow_.pop_front();

    try {
        native_.step();
    } catch (const MachineCheckError &e) {
        captureStop("native-fault", e.what());
    } catch (const PanicError &e) {
        captureStop("native-panic", e.what());
    }
}

void
Verifier::compareState(const isa::Inst &inst, bool synthetic_group)
{
    const Machine &nm = native_.machine();
    const Machine &cm = compressed_.machine();
    // The suffix is formatted only for a divergence being captured.
    auto after = [&inst, synthetic_group] {
        return " after " + isa::disassemble(inst, 0) +
               (synthetic_group ? " (far-branch stub boundary)" : "");
    };

    for (unsigned n = 0; n < isa::numGprs; ++n) {
        if (excludeR2_ && n == 2)
            continue;
        if (equalOrMapped(nm.gpr(n), cm.gpr(n)))
            continue;
        std::string detail = "r";
        detail += std::to_string(n);
        detail += " native ";
        detail += hex32(nm.gpr(n));
        detail += " vs compressed ";
        detail += hex32(cm.gpr(n));
        detail += after();
        capture("gpr", detail);
    }
    if (nm.cr() != cm.cr())
        capture("cr", "CR native " + hex32(nm.cr()) + " vs compressed " +
                          hex32(cm.cr()) + after());
    if (!equalOrMapped(nm.lr(), cm.lr()))
        capture("lr", "LR native " + hex32(nm.lr()) + " vs compressed " +
                          hex32(cm.lr()) + after());
    if (!ctrPoisoned_ && !equalOrMapped(nm.ctr(), cm.ctr()))
        capture("ctr", "CTR native " + hex32(nm.ctr()) +
                           " vs compressed " + hex32(cm.ctr()) + after());

    compareStores();
    compareOutput();

    if (nm.halted() != cm.halted())
        captureStop("halt", nm.halted()
                                ? "native halted, compressed running"
                                : "compressed halted, native running");
}

void
Verifier::compareStores()
{
    if (nativeStores_.size() != compressedStores_.size()) {
        capture("store", "store count native " +
                             std::to_string(nativeStores_.size()) +
                             " vs compressed " +
                             std::to_string(compressedStores_.size()));
        nativeStores_.clear();
        compressedStores_.clear();
        return;
    }
    for (size_t i = 0; i < nativeStores_.size(); ++i) {
        const Machine::Store &ns = nativeStores_[i];
        const Machine::Store &cs = compressedStores_[i];
        bool value_ok = ns.bytes == 4 ? equalOrMapped(ns.value, cs.value)
                                      : ns.value == cs.value;
        if (ns.addr != cs.addr || ns.bytes != cs.bytes || !value_ok)
            capture("store",
                    "store native [" + hex32(ns.addr) + " x" +
                        std::to_string(ns.bytes) + "] = " + hex32(ns.value) +
                        " vs compressed [" + hex32(cs.addr) + " x" +
                        std::to_string(cs.bytes) + "] = " + hex32(cs.value));
    }
    nativeStores_.clear();
    compressedStores_.clear();
}

void
Verifier::compareOutput()
{
    const std::string &no = native_.machine().output();
    const std::string &co = compressed_.machine().output();
    size_t common = std::min(no.size(), co.size());
    if (common > outputCursor_ &&
        std::memcmp(no.data() + outputCursor_, co.data() + outputCursor_,
                    common - outputCursor_) != 0) {
        capture("output", "output bytes differ after verified prefix of " +
                              std::to_string(outputCursor_) + " bytes");
    }
    outputCursor_ = common;
    if (no.size() != co.size())
        capture("output", "output length native " +
                              std::to_string(no.size()) +
                              " vs compressed " +
                              std::to_string(co.size()));
}

/**
 * Joint walk of both memories, skipping the native .text window (the
 * compressed machine keeps no bytes there). Equal blocks are skipped
 * with one memcmp each; inside a differing block the aligned words are
 * compared one by one, and a mismatching word is accepted iff it is
 * pointer-equivalent: patched jump-table slots and stack-saved LR
 * values legitimately differ between spaces. Divergent words are
 * reported in ascending address order.
 */
void
Verifier::fullStateCheck(const char *when)
{
    ++result_.fullStateChecks;
    const Machine &nm = native_.machine();
    const Machine &cm = compressed_.machine();
    const uint8_t *nmem = nm.memory().data();
    const uint8_t *cmem = cm.memory().data();

    // Both regions are word aligned: .text starts and ends on a word.
    uint32_t text_end = Program::textBase + program_.textBytes();
    const std::pair<uint32_t, uint32_t> regions[2] = {
        {0, Program::textBase}, {text_end, Machine::memBytes}};

    for (const auto &[begin, end] : regions) {
        for (uint32_t block = begin; block < end; block += walkBlockBytes) {
            uint32_t bytes = std::min(end - block, walkBlockBytes);
            if (std::memcmp(nmem + block, cmem + block, bytes) == 0)
                continue;
            for (uint32_t w = block; w < block + bytes; w += 4) {
                uint32_t nv = nm.loadWord(w);
                uint32_t cv = cm.loadWord(w);
                if (!equalOrMapped(nv, cv))
                    capture("memory",
                            std::string("memory word at ") + hex32(w) +
                                " native " + hex32(nv) + " vs compressed " +
                                hex32(cv) + " (" + when + " check)");
            }
        }
    }
}

LockstepResult
Verifier::run()
{
    // Panics from either processor (possible under fault injection)
    // become reportable divergences instead of aborting the process.
    PanicTrap trap;

    native_.machine().setStoreLog(&nativeStores_);
    compressed_.machine().setStoreLog(&compressedStores_);
    auto on_retire = [this](const isa::Inst &inst, uint32_t item_pc,
                            unsigned slot) { onRetire(inst, item_pc, slot); };

    try {
        fullStateCheck("entry");

        while (!native_.machine().halted() &&
               !compressed_.machine().halted()) {
            uint32_t pc_nibble = compressed_.pc() - base_;
            uint32_t item_index;
            try {
                item_index = compressed_.engine().itemIndexAt(pc_nibble);
            } catch (const MachineCheckError &e) {
                captureStop("compressed-fault", e.what());
            } catch (const PanicError &e) {
                captureStop("compressed-panic", e.what());
            }

            if (inStub_ && (pc_nibble < stubStart_ ||
                            pc_nibble >= stubEndNibble_)) {
                // Control left the stub group: the native side now
                // performs the one original branch the stub replaced.
                inStub_ = false;
                uint32_t expected = program_.addrOfIndex(stubOrig_);
                if (native_.pc() != expected)
                    captureStop("pc-map",
                                "native pc " + hex32(native_.pc()) +
                                    " != " + hex32(expected) +
                                    " at far-branch stub for original "
                                    "instruction " +
                                    std::to_string(stubOrig_));
                isa::Inst branch = isa::decode(program_.text[stubOrig_]);
                stepNative();
                compareState(branch, true);
                ++result_.verifiedInsts;
                ++result_.stubTraversals;
                continue;
            }

            if (!inStub_ && items_.isStub[item_index]) {
                if (items_.origOf[item_index] == noIndex)
                    captureStop("pc-map",
                                "compressed control entered a far-branch "
                                "stub body at nibble " +
                                    hex32(compressed_.pc()));
                inStub_ = true;
                stubOrig_ = items_.origOf[item_index];
                stubStart_ = pc_nibble;
                stubEndNibble_ = items_.stubEnd[item_index];
                CC_ASSERT(stubEndNibble_ > stubStart_,
                          "stub head without continuation");
            }

            try {
                compressed_.step(noFetch, on_retire);
            } catch (const MachineCheckError &e) {
                captureStop("compressed-fault", e.what());
            } catch (const PanicError &e) {
                captureStop("compressed-panic", e.what());
            } catch (const std::runtime_error &e) {
                captureStop("compressed-panic", e.what());
            }
        }

        // Clean exit path: both sides must agree they are done, on the
        // exit code, on the full output, and on all of memory.
        if (native_.machine().halted() != compressed_.machine().halted())
            capture("halt", native_.machine().halted()
                                ? "native halted, compressed running"
                                : "compressed halted, native running");
        if (native_.machine().exitCode() !=
            compressed_.machine().exitCode())
            capture("halt",
                    "exit code native " +
                        std::to_string(native_.machine().exitCode()) +
                        " vs compressed " +
                        std::to_string(compressed_.machine().exitCode()));
        if (native_.machine().output() != compressed_.machine().output())
            capture("output", "final outputs differ");
        fullStateCheck("exit");
    } catch (const StopRun &) {
        // Divergence budget exhausted; fall through to the summary.
    }

    result_.nativeHalted = native_.machine().halted();
    result_.compressedHalted = compressed_.machine().halted();
    result_.native = {native_.machine().output(),
                      native_.machine().exitCode(), native_.instCount()};
    result_.compressed = {compressed_.machine().output(),
                          compressed_.machine().exitCode(),
                          compressed_.instCount()};
    return result_;
}

} // namespace

LockstepResult
runLockstep(const Program &program, const compress::CompressedImage &image,
            const LockstepConfig &config)
{
    Verifier verifier(program, image, config);
    return verifier.run();
}

std::string
formatDivergence(const Divergence &divergence)
{
    std::ostringstream os;
    os << "divergence[" << divergence.kind << "] at verified instruction "
       << divergence.atInst << ": " << divergence.detail << "\n";
    os << "  native window (byte PCs):\n";
    for (const std::string &line : divergence.nativeWindow)
        os << "    " << line << "\n";
    os << "  compressed window (nibble PCs):\n";
    for (const std::string &line : divergence.compressedWindow)
        os << "    " << line << "\n";
    return os.str();
}

std::string
formatReport(const LockstepResult &result)
{
    std::ostringstream os;
    if (result.ok()) {
        os << "LOCKSTEP OK: " << result.verifiedInsts
           << " instructions verified (" << result.syntheticInsts
           << " synthetic, " << result.fullStateChecks
           << " full state checks)\n";
    } else {
        os << "LOCKSTEP FAILED: " << result.divergences.size()
           << " divergence(s), " << result.verifiedInsts
           << " instructions verified (" << result.syntheticInsts
           << " synthetic)\n";
        for (const Divergence &d : result.divergences)
            os << formatDivergence(d);
    }
    return os.str();
}

} // namespace codecomp::verify
