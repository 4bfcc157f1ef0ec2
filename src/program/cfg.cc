#include "program/cfg.hh"

#include "support/logging.hh"

namespace codecomp {

Cfg
Cfg::build(const Program &program)
{
    size_t n = program.text.size();
    CC_ASSERT(n > 0, "empty program");
    std::vector<bool> leader(n, false);

    auto mark = [&leader, n](uint32_t index) {
        CC_ASSERT(index < n, "leader out of range");
        leader[index] = true;
    };

    mark(program.entryIndex);

    // Function entries are call targets; all are leaders.
    for (const FunctionSymbol &fn : program.functions)
        mark(fn.body.first);

    // Jump-table slots hold code addresses; their targets are leaders.
    for (const CodeReloc &reloc : program.codeRelocs)
        mark(reloc.targetIndex);

    for (uint32_t i = 0; i < n; ++i) {
        isa::Inst inst = isa::decode(program.text[i]);
        if (!inst.isBranch())
            continue;
        if (inst.isRelativeBranch())
            mark(program.branchTargetIndex(i));
        // The instruction after any branch starts a block (fall-through
        // of a conditional, or return point of a call).
        if (i + 1 < n)
            mark(i + 1);
    }
    leader[0] = true;

    Cfg cfg;
    for (uint32_t i = 0; i < n; ++i) {
        if (leader[i])
            cfg.blocks_.push_back({i, 0});
        ++cfg.blocks_.back().count;
    }
    return cfg;
}

} // namespace codecomp
