/**
 * @file
 * Architectural state and instruction semantics shared by the plain Cpu
 * and the CompressedCpu.
 *
 * The two processors differ only in their fetch stage and in the unit of
 * their code pointers (byte addresses vs nibble-granular addresses), so
 * all data-path semantics live here. Code pointers (LR, CTR values that
 * refer to .text) are treated as opaque 32-bit values by the data path.
 */

#ifndef CODECOMP_DECOMPRESS_MACHINE_HH
#define CODECOMP_DECOMPRESS_MACHINE_HH

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "isa/inst.hh"

namespace codecomp {

/** Result of running a program to completion. */
struct ExecResult
{
    std::string output;      //!< bytes written via PutChar/PutInt
    int32_t exitCode = 0;
    uint64_t instCount = 0;  //!< dynamic count of architectural insts

    bool operator==(const ExecResult &) const = default;
};

/** Registers, memory, and the semantics of every non-control op. */
class Machine
{
  public:
    /** Flat memory size; covers .text/.data images and the stack. */
    static constexpr uint32_t memBytes = isa::addressSpaceBytes;

    /** Initial stack pointer (r1), growing downward. */
    static constexpr uint32_t stackTop = memBytes - 64;

    Machine();

    /** @{ Big-endian memory accessors. */
    uint32_t loadWord(uint32_t addr) const;
    uint16_t loadHalf(uint32_t addr) const;
    uint8_t loadByte(uint32_t addr) const;
    void storeWord(uint32_t addr, uint32_t value);
    void storeHalf(uint32_t addr, uint16_t value);
    void storeByte(uint32_t addr, uint8_t value);
    /** @} */

    /** Copy a byte image into memory at @p base. */
    void loadImage(uint32_t base, const std::vector<uint8_t> &bytes);

    /**
     * Execute one non-branch instruction (asserts !inst.isBranch()).
     * Sc may set halted().
     */
    void execute(const isa::Inst &inst);

    /**
     * Evaluate a branch condition; performs the CTR decrement side
     * effect of Bo::DecNz. Shared by Bc/Bclr/Bcctr handling.
     */
    bool evalCond(uint8_t bo, uint8_t bi);

    /** @{ Register file access. */
    uint32_t gpr(unsigned n) const { return gpr_[n]; }
    void setGpr(unsigned n, uint32_t v) { gpr_[n] = v; }
    uint32_t lr() const { return lr_; }
    void setLr(uint32_t v) { lr_ = v; }
    uint32_t ctr() const { return ctr_; }
    void setCtr(uint32_t v) { ctr_ = v; }
    uint32_t cr() const { return cr_; }
    /** @} */

    bool halted() const { return halted_; }
    int32_t exitCode() const { return exit_code_; }
    const std::string &output() const { return output_; }

    /** One architectural store: address, size in bytes, value. */
    struct Store
    {
        uint32_t addr;
        unsigned bytes;
        uint32_t value;
    };

    /**
     * Append every architectural store to @p log, after its bytes land
     * in memory; null (the default) logs nothing. loadImage is not a
     * store. The lockstep verifier compares the two processors' logs
     * instruction by instruction.
     */
    void setStoreLog(std::vector<Store> *log) { store_log_ = log; }

    /** Read-only view of the flat memory (differential state walks). */
    std::span<const uint8_t> memory() const { return {mem_.get(), memBytes}; }

  private:
    /** Set condition-register field @p crf from a three-way compare. */
    void setCrField(uint8_t crf, bool lt, bool gt, bool eq);

    void doSyscall();

    struct FreeBytes
    {
        void operator()(uint8_t *bytes) const { std::free(bytes); }
    };
    /** memBytes zeroed bytes from calloc: the allocator maps zero pages
     *  lazily, so a run pays only for the pages it touches. */
    std::unique_ptr<uint8_t[], FreeBytes> mem_;
    uint32_t gpr_[isa::numGprs] = {};
    uint32_t lr_ = 0;
    uint32_t ctr_ = 0;
    uint32_t cr_ = 0; //!< bit 31-i holds CR bit i (PowerPC numbering)
    bool halted_ = false;
    int32_t exit_code_ = 0;
    std::string output_;
    std::vector<Store> *store_log_ = nullptr;
};

} // namespace codecomp

#endif // CODECOMP_DECOMPRESS_MACHINE_HH
