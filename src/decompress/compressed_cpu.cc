#include "decompress/compressed_cpu.hh"

#include "support/logging.hh"

namespace codecomp {

CompressedCpu::CompressedCpu(const compress::CompressedImage &image)
    : image_(image), engine_(image),
      unitNibbles_(compress::schemeParams(image.scheme).unitNibbles),
      pc_(compress::CompressedImage::nibbleBase + image.entryPointNibble)
{
    machine_.loadImage(image.dataBase, image.data);
}

/**
 * A taken indirect branch must land on an item boundary of the
 * compressed text. Validating here attributes a corrupt LR/CTR to the
 * branch that consumed it -- matching the plain Cpu's
 * check-at-the-branch behaviour -- instead of to the next fetch, where
 * the faulting PC no longer names the culprit.
 */
void
CompressedCpu::checkIndirectTarget(uint32_t target, const char *reg) const
{
    uint32_t base = compress::CompressedImage::nibbleBase;
    if (target < base)
        throw MachineCheckError(MachineFault::FetchOutOfText, target,
                                std::string(reg) +
                                    " as indirect branch target below "
                                    "compressed text");
    try {
        engine_.itemIndexAt(target - base);
    } catch (const MachineCheckError &e) {
        throw MachineCheckError(e.fault(), target,
                                std::string(reg) +
                                    " as indirect branch target: " +
                                    e.what());
    }
}

void
CompressedCpu::execBranch(const isa::Inst &inst, uint32_t next_pc,
                          uint32_t self_pc)
{
    bool taken;
    uint32_t target = 0;
    switch (inst.op) {
      case isa::Op::B:
        taken = true;
        target = self_pc + static_cast<uint32_t>(inst.disp) * unitNibbles_;
        break;
      case isa::Op::Bc:
        taken = machine_.evalCond(inst.bo, inst.bi);
        target = self_pc + static_cast<uint32_t>(inst.disp) * unitNibbles_;
        break;
      case isa::Op::Bclr:
        taken = machine_.evalCond(inst.bo, inst.bi);
        target = machine_.lr();
        if (taken)
            checkIndirectTarget(target, "LR");
        break;
      case isa::Op::Bcctr:
        taken = machine_.evalCond(inst.bo, inst.bi);
        target = machine_.ctr();
        if (taken)
            checkIndirectTarget(target, "CTR");
        break;
      default:
        CC_PANIC("not a branch");
    }
    if (inst.lk)
        machine_.setLr(next_pc);
    if (taken) {
        pc_ = target;
        redirected_ = true;
    }
}

void
CompressedCpu::belowTextFault() const
{
    throw MachineCheckError(MachineFault::FetchOutOfText, pc_,
                            "compressed PC below text base");
}

void
CompressedCpu::relativeBranchInEntry(uint32_t self_pc, uint32_t rank)
{
    throw MachineCheckError(MachineFault::IllegalInstruction, self_pc,
                            "relative branch inside dictionary entry "
                            "rank " +
                                std::to_string(rank));
}

void
CompressedCpu::stepLimitExceeded() const
{
    CC_FATAL("compressed program exceeded ", step_limit_, " steps");
}

ExecResult
runCompressed(const compress::CompressedImage &image, uint64_t max_steps)
{
    CompressedCpu cpu(image);
    return cpu.run(max_steps);
}

} // namespace codecomp
