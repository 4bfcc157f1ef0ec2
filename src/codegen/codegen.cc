#include "codegen/codegen.hh"

#include <utility>

#include "codegen/parser.hh"
#include "isa/builder.hh"
#include "link/linker.hh"
#include "support/logging.hh"

namespace codecomp::codegen {

namespace {

using isa::Inst;

constexpr uint8_t regSp = 1;
constexpr uint8_t regTmp = 13;      //!< address materialization
constexpr uint8_t regArg0 = 3;      //!< first argument / return value
constexpr uint8_t scratchBase = 5;  //!< expression stack base register
constexpr unsigned scratchCount = 8;
constexpr uint8_t calleeBase = 14;  //!< first callee-saved register
constexpr unsigned calleeCount = 18;
constexpr unsigned maxArgs = 8;

/** Where a named variable lives. */
struct Location
{
    enum class Kind { Unbound, CalleeReg, StackSlot, StackArray,
                      GlobalScalar, GlobalArray } kind = Kind::Unbound;
    uint8_t reg = 0;      //!< CalleeReg
    int32_t offset = 0;   //!< frame offset or .data offset
    int32_t size = 0;     //!< array element count
};

class Emitter
{
  public:
    Emitter(const TranslationUnit &unit, const CompileOptions &options)
        : unit_(unit), options_(options), globals_(unit.symbols.size()),
          locals_(unit.symbols.size()),
          functionDefined_(unit.symbols.size(), false)
    {}

    link::ObjectModule
    run(const std::string &module_name)
    {
        layoutGlobals();

        for (const Function &fn : unit_.functions)
            emitFunction(fn);

        // Package the relocatable module; all cross-function and data
        // references stay symbolic for the linker.
        link::ObjectModule module;
        module.name = module_name;
        module.text = std::move(program_.text);
        module.data = std::move(data_);
        module.functions = std::move(program_.functions);
        for (const auto &[index, callee] : callFixups_)
            module.calls.push_back({index, spelling(callee)});
        for (const auto &[index, offset] : dataHaFixups_)
            module.dataRefs.push_back(
                {index, offset, link::DataReloc::Half::Ha});
        for (const auto &[index, offset] : dataLoFixups_)
            module.dataRefs.push_back(
                {index, offset, link::DataReloc::Half::Lo});
        for (const CodeReloc &reloc : program_.codeRelocs)
            module.tables.push_back({reloc.dataOffset, reloc.targetIndex});
        return module;
    }

  private:
    // ---------------- emission primitives ----------------

    uint32_t
    emit(const Inst &inst)
    {
        program_.text.push_back(isa::encode(inst));
        return static_cast<uint32_t>(program_.text.size() - 1);
    }

    uint32_t here() const
    {
        return static_cast<uint32_t>(program_.text.size());
    }

    void
    patchImm(uint32_t index, int32_t imm)
    {
        Inst inst = isa::decode(program_.text[index]);
        inst.imm = imm;
        program_.text[index] = isa::encode(inst);
    }

    void
    patchDisp(uint32_t index, int32_t disp)
    {
        Inst inst = isa::decode(program_.text[index]);
        inst.disp = disp;
        program_.text[index] = isa::encode(inst);
    }

    // ---------------- labels ----------------

    using Label = uint32_t;

    Label
    newLabel()
    {
        labels_.push_back(UINT32_MAX);
        return static_cast<Label>(labels_.size() - 1);
    }

    void
    bind(Label label)
    {
        CC_ASSERT(labels_[label] == UINT32_MAX, "label bound twice");
        labels_[label] = here();
    }

    /** Unconditional branch to a (possibly forward) label. */
    void
    emitB(Label label)
    {
        labelFixups_.push_back({emit(isa::b(0)), label});
    }

    /** Conditional branch to a label. */
    void
    emitBc(isa::Bo bo, uint8_t bi, Label label)
    {
        labelFixups_.push_back({emit(isa::bc(bo, bi, 0)), label});
    }

    void
    resolveLabels()
    {
        for (const auto &[index, label] : labelFixups_) {
            uint32_t target = labels_[label];
            CC_ASSERT(target != UINT32_MAX, "unbound label");
            patchDisp(index, static_cast<int32_t>(target) -
                             static_cast<int32_t>(index));
        }
        labelFixups_.clear();
        labels_.clear();
    }

    // ---------------- globals ----------------

    void
    layoutGlobals()
    {
        for (const GlobalDecl &global : unit_.globals) {
            Location &loc = globals_[global.symbol];
            if (loc.kind != Location::Kind::Unbound)
                CC_FATAL("duplicate global '", global.name, "'");
            loc.kind = global.arraySize > 0 ? Location::Kind::GlobalArray
                                            : Location::Kind::GlobalScalar;
            loc.offset = static_cast<int32_t>(data_.size());
            loc.size = global.arraySize;
            int32_t words = global.arraySize > 0 ? global.arraySize : 1;
            for (int32_t i = 0; i < words; ++i) {
                int32_t value = i < static_cast<int32_t>(global.init.size())
                                    ? global.init[i]
                                    : (global.arraySize == 0 &&
                                       !global.init.empty()
                                           ? global.init[0]
                                           : 0);
                uint32_t u = static_cast<uint32_t>(value);
                data_.push_back(static_cast<uint8_t>(u >> 24));
                data_.push_back(static_cast<uint8_t>(u >> 16));
                data_.push_back(static_cast<uint8_t>(u >> 8));
                data_.push_back(static_cast<uint8_t>(u));
            }
        }
    }

    // ---------------- function frame ----------------

    /** Give local @p name a home: an array goes to the stack, a scalar
     *  to the next free callee-saved register, else to the stack. */
    void
    declareLocal(Symbol name, int32_t array_size)
    {
        Location &loc = locals_[name];
        if (loc.kind != Location::Kind::Unbound)
            CC_FATAL("duplicate local '", spelling(name), "' in function ",
                     currentFunction_->name);
        if (array_size > 0) {
            loc.kind = Location::Kind::StackArray;
            loc.size = array_size;
            loc.offset = nextStackOffset_;
            nextStackOffset_ += array_size * 4;
        } else if (numCalleeUsed_ < calleeCount) {
            loc.kind = Location::Kind::CalleeReg;
            loc.reg = static_cast<uint8_t>(calleeBase + numCalleeUsed_);
            ++numCalleeUsed_;
        } else {
            loc.kind = Location::Kind::StackSlot;
            loc.offset = nextStackOffset_;
            nextStackOffset_ += 4;
        }
        localsInScope_.push_back(name);
    }

    /** Walk statements, assigning every local a home. */
    void
    collectLocals(std::span<const Stmt *const> stmts)
    {
        for (const Stmt *stmt : stmts)
            collectLocals(*stmt);
    }

    void
    collectLocals(const Stmt &stmt)
    {
        if (stmt.kind == StmtKind::LocalDecl)
            declareLocal(stmt.name, stmt.arraySize);
        if (stmt.initStmt)
            collectLocals(*stmt.initStmt);
        if (stmt.stepStmt)
            collectLocals(*stmt.stepStmt);
        if (stmt.thenStmt)
            collectLocals(*stmt.thenStmt);
        if (stmt.elseStmt)
            collectLocals(*stmt.elseStmt);
        collectLocals(stmt.body);
        for (const SwitchCase &arm : stmt.cases)
            collectLocals(arm.body);
        collectLocals(stmt.defaultBody);
    }

    void
    emitFunction(const Function &fn)
    {
        if (functionDefined_[fn.symbol])
            CC_FATAL("duplicate function '", fn.name, "'");
        if (fn.params.size() > maxArgs)
            CC_FATAL("too many parameters in ", fn.name);
        functionDefined_[fn.symbol] = true;
        currentFunction_ = &fn;

        for (Symbol name : localsInScope_)
            locals_[name] = {};
        localsInScope_.clear();
        numCalleeUsed_ = 0;
        nextStackOffset_ = 8; // slots 0..7 reserved (back chain area)
        evalDepth_ = 0;
        savedBelow_ = 0;

        // Parameters get homes first, in order.
        for (Symbol param : fn.params)
            declareLocal(param, 0);
        collectLocals(fn.body);

        // Frame: [low] locals/arrays | spill(8 words) | callee saves |
        //        saved LR [high].
        spillOffset_ = nextStackOffset_;
        unsigned saved_regs = numCalleeUsed_;
        if (options_.standardizedFrames) {
            // Standardized template: save the full callee-saved set so
            // every prologue/epilogue is byte-identical (paper sec. 5).
            int32_t needed = spillOffset_ + 32 +
                             static_cast<int32_t>(calleeCount) * 4 + 4;
            if (needed <= options_.standardFrameBytes) {
                saved_regs = calleeCount;
                frameSize_ = options_.standardFrameBytes;
            } else {
                // Oversized frame (large local arrays): fall back.
                saved_regs = numCalleeUsed_;
                frameSize_ = (needed + 15) & ~15;
            }
        } else {
            int32_t save_area =
                static_cast<int32_t>(saved_regs) * 4 + 4; // + LR
            frameSize_ = spillOffset_ + 32 + save_area;
            frameSize_ = (frameSize_ + 15) & ~15;
        }
        numCalleeSaved_ = saved_regs;

        FunctionSymbol sym;
        sym.name = fn.name;
        sym.body.first = here();

        // --- prologue template ---
        uint32_t prologue_start = here();
        emit(isa::mflr(0));
        emit(isa::addi(regSp, regSp, -frameSize_));
        emit(isa::stw(0, frameSize_ - 4, regSp));
        for (unsigned i = 0; i < numCalleeSaved_; ++i)
            emit(isa::stw(static_cast<uint8_t>(calleeBase + i),
                          frameSize_ - 8 - static_cast<int32_t>(i) * 4,
                          regSp));
        sym.prologue = {prologue_start, here() - prologue_start};

        // Move incoming arguments to their homes.
        for (size_t i = 0; i < fn.params.size(); ++i) {
            const Location &loc = locals_[fn.params[i]];
            uint8_t arg_reg = static_cast<uint8_t>(regArg0 + i);
            if (loc.kind == Location::Kind::CalleeReg)
                emit(isa::mr(loc.reg, arg_reg));
            else
                emit(isa::stw(arg_reg, loc.offset, regSp));
        }

        epilogueLabel_ = newLabel();
        for (const Stmt *stmt : fn.body)
            emitStmt(*stmt);

        // Implicit `return 0` when control reaches the end of the body.
        emit(isa::li(regArg0, 0));

        // --- epilogue template ---
        bind(epilogueLabel_);
        uint32_t epilogue_start = here();
        emit(isa::lwz(0, frameSize_ - 4, regSp));
        emit(isa::mtlr(0));
        for (unsigned i = 0; i < numCalleeSaved_; ++i)
            emit(isa::lwz(static_cast<uint8_t>(calleeBase + i),
                          frameSize_ - 8 - static_cast<int32_t>(i) * 4,
                          regSp));
        emit(isa::addi(regSp, regSp, frameSize_));
        emit(isa::blr());
        sym.epilogues.push_back({epilogue_start, here() - epilogue_start});

        sym.body.count = here() - sym.body.first;
        program_.functions.push_back(std::move(sym));
        resolveTables();
        resolveLabels();
        CC_ASSERT(evalDepth_ == 0, "expression stack imbalance in ",
                  fn.name);
    }

    // ---------------- expression evaluation ----------------

    uint8_t scratchReg(unsigned depth) const
    {
        return static_cast<uint8_t>(scratchBase + depth);
    }

    /** Push: evaluate @p expr into the next expression-stack register. */
    uint8_t
    evalExpr(const Expr &expr)
    {
        if (evalDepth_ >= scratchCount)
            CC_FATAL("expression too deep in function ",
                     currentFunction_->name, " at line ", expr.line);
        uint8_t dst = scratchReg(evalDepth_);
        ++evalDepth_;
        switch (expr.kind) {
          case ExprKind::IntLit:
            emitLoadImm(dst, expr.value);
            break;
          case ExprKind::Var:
            emitLoadVar(dst, expr);
            break;
          case ExprKind::Index:
            emitLoadIndex(dst, expr);
            break;
          case ExprKind::Unary:
            emitUnary(dst, expr);
            break;
          case ExprKind::Binary:
            emitBinary(dst, expr);
            break;
          case ExprKind::Call:
            emitCall(dst, expr);
            break;
        }
        return dst;
    }

    void pop() { CC_ASSERT(evalDepth_ > 0, "pop on empty stack");
                 --evalDepth_; }

    /**
     * Evaluate an operand, avoiding the copy when the value already
     * lives in a callee-saved register (nothing in an expression can
     * modify a named local, so the register is stable). Sets @p pushed
     * when an expression-stack slot was consumed; the caller must pop.
     */
    uint8_t
    evalOperand(const Expr &expr, bool &pushed)
    {
        if (expr.kind == ExprKind::Var) {
            const Location &loc = lookup(expr.name, expr.line);
            if (loc.kind == Location::Kind::CalleeReg) {
                pushed = false;
                return loc.reg;
            }
        }
        pushed = true;
        return evalExpr(expr);
    }

    /** True if evalInto() can evaluate @p expr straight into an
     *  arbitrary destination register. */
    static bool
    canEvalInto(const Expr &expr)
    {
        if (expr.kind == ExprKind::Call)
            return false;
        if (expr.kind == ExprKind::Binary &&
            (expr.binop == BinOp::LogAnd || expr.binop == BinOp::LogOr))
            return false;
        return true;
    }

    /**
     * Destination hinting: evaluate @p expr with the result placed
     * directly in @p dst (a callee-saved register), eliding the
     * scratch-to-home copy of a plain assignment. Sub-expressions never
     * write callee-saved registers, so @p dst stays stable until the
     * final defining instruction.
     */
    void
    evalInto(uint8_t dst, const Expr &expr)
    {
        CC_ASSERT(canEvalInto(expr), "expression cannot target dst");
        ++evalDepth_; // reserve a phantom slot; the value goes to dst
        switch (expr.kind) {
          case ExprKind::IntLit:
            emitLoadImm(dst, expr.value);
            break;
          case ExprKind::Var:
            emitLoadVar(dst, expr);
            break;
          case ExprKind::Index:
            emitLoadIndex(dst, expr);
            break;
          case ExprKind::Unary:
            emitUnary(dst, expr);
            break;
          case ExprKind::Binary:
            emitBinary(dst, expr);
            break;
          case ExprKind::Call:
            CC_PANIC("unreachable");
        }
        --evalDepth_;
    }

    void
    emitLoadImm(uint8_t dst, int32_t value)
    {
        if (isa::fitsSigned(value, 16)) {
            emit(isa::li(dst, value));
        } else {
            // lis + ori template for full 32-bit constants.
            emit(isa::lis(dst, static_cast<int32_t>(static_cast<int16_t>(
                                   (static_cast<uint32_t>(value) >> 16) &
                                   0xffff))));
            emit(isa::ori(dst, dst,
                          static_cast<int32_t>(value & 0xffff)));
        }
    }

    const std::string &
    spelling(Symbol name) const
    {
        return unit_.symbols[name];
    }

    /** The local @p name if the current function has one, else the
     *  global. */
    const Location &
    lookup(Symbol name, int line) const
    {
        if (locals_[name].kind != Location::Kind::Unbound)
            return locals_[name];
        if (globals_[name].kind != Location::Kind::Unbound)
            return globals_[name];
        CC_FATAL("undefined variable '", spelling(name), "' at line ", line);
    }

    /** lis rT, g@ha then record both fixups; returns the lis index. */
    uint32_t
    emitGlobalHa(uint8_t reg, int32_t data_offset)
    {
        uint32_t index = emit(isa::lis(reg, 0));
        dataHaFixups_.push_back({index, static_cast<uint32_t>(data_offset)});
        return index;
    }

    void
    emitLoadVar(uint8_t dst, const Expr &expr)
    {
        const Location &loc = lookup(expr.name, expr.line);
        switch (loc.kind) {
          case Location::Kind::CalleeReg:
            emit(isa::mr(dst, loc.reg));
            return;
          case Location::Kind::StackSlot:
            emit(isa::lwz(dst, loc.offset, regSp));
            return;
          case Location::Kind::GlobalScalar: {
            emitGlobalHa(regTmp, loc.offset);
            uint32_t index = emit(isa::lwz(dst, 0, regTmp));
            dataLoFixups_.push_back(
                {index, static_cast<uint32_t>(loc.offset)});
            return;
          }
          default:
            CC_FATAL("array '", spelling(expr.name),
                     "' used without subscript at line ", expr.line);
        }
    }

    /** Materialize the byte address of array @p loc base into regTmp. */
    void
    emitArrayBase(const Location &loc)
    {
        if (loc.kind == Location::Kind::GlobalArray) {
            emitGlobalHa(regTmp, loc.offset);
            uint32_t index = emit(isa::addi(regTmp, regTmp, 0));
            dataLoFixups_.push_back(
                {index, static_cast<uint32_t>(loc.offset)});
        } else {
            CC_ASSERT(loc.kind == Location::Kind::StackArray,
                      "not an array");
            emit(isa::addi(regTmp, regSp, loc.offset));
        }
    }

    void
    emitLoadIndex(uint8_t dst, const Expr &expr)
    {
        const Location &loc = lookup(expr.name, expr.line);
        if (loc.kind != Location::Kind::GlobalArray &&
            loc.kind != Location::Kind::StackArray)
            CC_FATAL("subscript on non-array '", spelling(expr.name),
                     "' at line ", expr.line);
        // The slot reserved for dst is reused for the index when it
        // needs materializing.
        --evalDepth_;
        bool idx_pushed;
        uint8_t idx = evalOperand(*expr.lhs, idx_pushed);
        emitArrayBase(loc);
        emit(isa::slwi(0, idx, 2));
        emit(isa::lwzx(dst, regTmp, 0));
        if (idx_pushed)
            pop();
        ++evalDepth_;
    }

    void
    emitUnary(uint8_t dst, const Expr &expr)
    {
        --evalDepth_;
        bool src_pushed;
        uint8_t src = evalOperand(*expr.lhs, src_pushed);
        if (expr.unop == UnOp::Neg) {
            emit(isa::neg(dst, src));
        } else {
            // Logical not: dst = (src == 0).
            emit(isa::cmpi(0, src, 0));
            emit(isa::li(dst, 1));
            Label skip = newLabel();
            emitBc(isa::Bo::IfTrue, isa::crBit(0, isa::CrBit::Eq), skip);
            emit(isa::li(dst, 0));
            bind(skip);
        }
        if (src_pushed)
            pop();
        ++evalDepth_;
    }

    /** Emit a value-producing compare template (paper-style cr1 use). */
    void
    emitCompareValue(uint8_t dst, uint8_t lhs, const Expr &rhs_expr,
                     BinOp op)
    {
        bool unsigned_cmp = false; // MiniC ints are signed
        bool rhs_imm = rhs_expr.kind == ExprKind::IntLit &&
                       isa::fitsSigned(rhs_expr.value, 16);
        if (rhs_imm) {
            emit(unsigned_cmp ? isa::cmpli(1, lhs, rhs_expr.value)
                              : isa::cmpi(1, lhs, rhs_expr.value));
        } else {
            bool rhs_pushed;
            uint8_t rhs = evalOperand(rhs_expr, rhs_pushed);
            emit(isa::cmp(1, lhs, rhs));
            if (rhs_pushed)
                pop();
        }
        isa::CrBit bit;
        bool sense;
        switch (op) {
          case BinOp::Eq: bit = isa::CrBit::Eq; sense = true; break;
          case BinOp::Ne: bit = isa::CrBit::Eq; sense = false; break;
          case BinOp::Lt: bit = isa::CrBit::Lt; sense = true; break;
          case BinOp::Ge: bit = isa::CrBit::Lt; sense = false; break;
          case BinOp::Gt: bit = isa::CrBit::Gt; sense = true; break;
          case BinOp::Le: bit = isa::CrBit::Gt; sense = false; break;
          default: CC_PANIC("not a comparison");
        }
        emit(isa::li(dst, 1));
        Label skip = newLabel();
        emitBc(sense ? isa::Bo::IfTrue : isa::Bo::IfFalse,
               isa::crBit(1, bit), skip);
        emit(isa::li(dst, 0));
        bind(skip);
    }

    void
    emitBinary(uint8_t dst, const Expr &expr)
    {
        switch (expr.binop) {
          case BinOp::LogAnd:
          case BinOp::LogOr: {
            // Short-circuit evaluation.
            --evalDepth_;
            bool is_and = expr.binop == BinOp::LogAnd;
            Label out_short = newLabel();
            Label end = newLabel();
            uint8_t lhs = evalExpr(*expr.lhs);
            emit(isa::cmpi(0, lhs, 0));
            emitBc(is_and ? isa::Bo::IfTrue : isa::Bo::IfFalse,
                   isa::crBit(0, isa::CrBit::Eq), out_short);
            pop();
            uint8_t rhs = evalExpr(*expr.rhs);
            CC_ASSERT(rhs == dst && rhs == lhs, "slot mismatch");
            emit(isa::cmpi(0, rhs, 0));
            emitBc(is_and ? isa::Bo::IfTrue : isa::Bo::IfFalse,
                   isa::crBit(0, isa::CrBit::Eq), out_short);
            emit(isa::li(dst, is_and ? 1 : 0));
            emitB(end);
            bind(out_short);
            emit(isa::li(dst, is_and ? 0 : 1));
            bind(end);
            return;
          }
          case BinOp::Eq:
          case BinOp::Ne:
          case BinOp::Lt:
          case BinOp::Le:
          case BinOp::Gt:
          case BinOp::Ge: {
            --evalDepth_;
            bool lhs_pushed;
            uint8_t lhs = evalOperand(*expr.lhs, lhs_pushed);
            emitCompareValue(dst, lhs, *expr.rhs, expr.binop);
            if (lhs_pushed)
                pop();
            ++evalDepth_;
            return;
          }
          default:
            break;
        }

        --evalDepth_;
        bool lhs_pushed;
        uint8_t lhs = evalOperand(*expr.lhs, lhs_pushed);
        auto finish = [this, lhs_pushed](bool rhs_pushed) {
            if (rhs_pushed)
                pop();
            if (lhs_pushed)
                pop();
            ++evalDepth_;
        };

        // Immediate forms where the ISA has them and the literal fits.
        if (expr.rhs->kind == ExprKind::IntLit) {
            int32_t v = expr.rhs->value;
            switch (expr.binop) {
              case BinOp::Add:
                if (isa::fitsSigned(v, 16)) {
                    emit(isa::addi(dst, lhs, v));
                    finish(false);
                    return;
                }
                break;
              case BinOp::Sub:
                if (isa::fitsSigned(-static_cast<int64_t>(v), 16)) {
                    emit(isa::addi(dst, lhs, -v));
                    finish(false);
                    return;
                }
                break;
              case BinOp::Mul:
                if (isa::fitsSigned(v, 16)) {
                    emit(isa::mulli(dst, lhs, v));
                    finish(false);
                    return;
                }
                break;
              case BinOp::And:
                if (v >= 0 && v <= 0xffff) {
                    emit(isa::andi(dst, lhs, v));
                    finish(false);
                    return;
                }
                break;
              case BinOp::Or:
                if (v >= 0 && v <= 0xffff) {
                    emit(isa::ori(dst, lhs, v));
                    finish(false);
                    return;
                }
                break;
              case BinOp::Xor:
                if (v >= 0 && v <= 0xffff) {
                    emit(isa::xori(dst, lhs, v));
                    finish(false);
                    return;
                }
                break;
              case BinOp::Shl:
                if (v >= 0 && v < 32) {
                    emit(isa::slwi(dst, lhs, static_cast<uint8_t>(v)));
                    finish(false);
                    return;
                }
                break;
              case BinOp::Shr:
                if (v > 0 && v < 32) {
                    emit(isa::srawi(dst, lhs, static_cast<uint8_t>(v)));
                    finish(false);
                    return;
                }
                if (v == 0) {
                    if (dst != lhs)
                        emit(isa::mr(dst, lhs));
                    finish(false);
                    return;
                }
                break;
              default:
                break;
            }
        }

        bool rhs_pushed;
        uint8_t rhs = evalOperand(*expr.rhs, rhs_pushed);
        switch (expr.binop) {
          case BinOp::Add:
            emit(isa::add(dst, lhs, rhs));
            break;
          case BinOp::Sub:
            emit(isa::subf(dst, rhs, lhs)); // lhs - rhs
            break;
          case BinOp::Mul:
            emit(isa::mullw(dst, lhs, rhs));
            break;
          case BinOp::Div:
            emit(isa::divw(dst, lhs, rhs));
            break;
          case BinOp::Mod:
            // dst = lhs - (lhs / rhs) * rhs
            emit(isa::divw(regTmp, lhs, rhs));
            emit(isa::mullw(regTmp, regTmp, rhs));
            emit(isa::subf(dst, regTmp, lhs));
            break;
          case BinOp::And:
            emit(isa::and_(dst, lhs, rhs));
            break;
          case BinOp::Or:
            emit(isa::or_(dst, lhs, rhs));
            break;
          case BinOp::Xor:
            emit(isa::xor_(dst, lhs, rhs));
            break;
          case BinOp::Shl:
            emit(isa::slw(dst, lhs, rhs));
            break;
          case BinOp::Shr:
            emit(isa::sraw(dst, lhs, rhs));
            break;
          default:
            CC_PANIC("unhandled binop");
        }
        finish(rhs_pushed);
    }

    void
    emitCall(uint8_t dst, const Expr &expr)
    {
        // Builtins expand inline to syscall templates; they preserve the
        // expression stack, so no spills are needed.
        if (expr.name == symPutc || expr.name == symPuti ||
            expr.name == symExit) {
            if (expr.args.size() != 1)
                CC_FATAL("builtin ", spelling(expr.name),
                         " takes 1 argument, line ", expr.line);
            --evalDepth_;
            uint8_t val = evalExpr(*expr.args[0]);
            isa::Syscall code = expr.name == symPutc
                                    ? isa::Syscall::PutChar
                                    : expr.name == symPuti
                                          ? isa::Syscall::PutInt
                                          : isa::Syscall::Exit;
            emit(isa::mr(regArg0, val));
            emit(isa::li(0, static_cast<int32_t>(code)));
            emit(isa::sc());
            // Builtin value is its argument (already in the slot).
            return;
        }

        if (expr.args.size() > maxArgs)
            CC_FATAL("too many arguments at line ", expr.line);
        // The slot reserved by evalExpr is not live across the call; the
        // call's own depth is where arguments will be evaluated.
        --evalDepth_;
        unsigned depth_at_call = evalDepth_;

        // Save expression-stack registers that are live and not yet
        // saved by an enclosing call.
        unsigned save_from = savedBelow_;
        for (unsigned i = save_from; i < depth_at_call; ++i)
            emit(isa::stw(scratchReg(i),
                          spillOffset_ + static_cast<int32_t>(i) * 4,
                          regSp));
        unsigned saved_below_before = savedBelow_;
        savedBelow_ = depth_at_call;

        // Simple arguments (literals and register-resident locals) are
        // materialized straight into their argument registers; complex
        // ones evaluate onto the expression stack first. The final
        // staging is a parallel move: all sources are distinct and
        // monotone with their destinations, so a topological order
        // always exists (no cycles).
        struct ArgSource
        {
            enum class Kind { Scratch, Callee, Imm } kind;
            uint8_t reg = 0;
            int32_t imm = 0;
        };
        std::vector<ArgSource> sources;
        for (const Expr *arg : expr.args) {
            if (arg->kind == ExprKind::IntLit) {
                sources.push_back(
                    {ArgSource::Kind::Imm, 0, arg->value});
                continue;
            }
            if (arg->kind == ExprKind::Var) {
                const Location &loc = lookup(arg->name, arg->line);
                if (loc.kind == Location::Kind::CalleeReg) {
                    sources.push_back(
                        {ArgSource::Kind::Callee, loc.reg, 0});
                    continue;
                }
            }
            sources.push_back(
                {ArgSource::Kind::Scratch, evalExpr(*arg), 0});
        }
        // Scratch-sourced moves first, in an order that never clobbers
        // a pending source.
        std::vector<size_t> pending;
        for (size_t i = 0; i < sources.size(); ++i)
            if (sources[i].kind == ArgSource::Kind::Scratch &&
                sources[i].reg != regArg0 + i)
                pending.push_back(i);
        while (!pending.empty()) {
            bool progressed = false;
            for (size_t k = 0; k < pending.size(); ++k) {
                uint8_t dest =
                    static_cast<uint8_t>(regArg0 + pending[k]);
                bool blocks = false;
                for (size_t other : pending)
                    if (other != pending[k] &&
                        sources[other].reg == dest)
                        blocks = true;
                if (blocks)
                    continue;
                emit(isa::mr(dest, sources[pending[k]].reg));
                pending.erase(pending.begin() +
                              static_cast<ptrdiff_t>(k));
                progressed = true;
                break;
            }
            CC_ASSERT(progressed, "argument move cycle");
        }
        // Then the register-resident and immediate arguments.
        for (size_t i = 0; i < sources.size(); ++i) {
            uint8_t dest = static_cast<uint8_t>(regArg0 + i);
            switch (sources[i].kind) {
              case ArgSource::Kind::Callee:
                emit(isa::mr(dest, sources[i].reg));
                break;
              case ArgSource::Kind::Imm:
                emitLoadImm(dest, sources[i].imm);
                break;
              case ArgSource::Kind::Scratch:
                break;
            }
        }
        evalDepth_ = depth_at_call;

        callFixups_.push_back({emit(isa::bl(0)), expr.name});

        // Restore saved registers and capture the result.
        for (unsigned i = save_from; i < depth_at_call; ++i)
            emit(isa::lwz(scratchReg(i),
                          spillOffset_ + static_cast<int32_t>(i) * 4,
                          regSp));
        savedBelow_ = saved_below_before;
        emit(isa::mr(dst, regArg0));
        ++evalDepth_;
        CC_ASSERT(scratchReg(evalDepth_ - 1) == dst, "call slot mismatch");
    }

    // ---------------- statements ----------------

    void
    emitStore(Symbol name, const Expr *index, uint8_t value, int line)
    {
        const Location &loc = lookup(name, line);
        if (!index) {
            switch (loc.kind) {
              case Location::Kind::CalleeReg:
                emit(isa::mr(loc.reg, value));
                return;
              case Location::Kind::StackSlot:
                emit(isa::stw(value, loc.offset, regSp));
                return;
              case Location::Kind::GlobalScalar: {
                emitGlobalHa(regTmp, loc.offset);
                uint32_t idx = emit(isa::stw(value, 0, regTmp));
                dataLoFixups_.push_back(
                    {idx, static_cast<uint32_t>(loc.offset)});
                return;
              }
              default:
                CC_FATAL("assignment to array '", spelling(name),
                         "' without subscript at line ", line);
            }
        }
        if (loc.kind != Location::Kind::GlobalArray &&
            loc.kind != Location::Kind::StackArray)
            CC_FATAL("subscript on non-array '", spelling(name),
                     "' at line ", line);
        bool idx_pushed;
        uint8_t idx = evalOperand(*index, idx_pushed);
        emitArrayBase(loc);
        emit(isa::slwi(0, idx, 2));
        emit(isa::add(regTmp, regTmp, 0));
        emit(isa::stw(value, 0, regTmp));
        if (idx_pushed)
            pop();
    }

    static bool
    isComparison(BinOp op)
    {
        switch (op) {
          case BinOp::Eq:
          case BinOp::Ne:
          case BinOp::Lt:
          case BinOp::Le:
          case BinOp::Gt:
          case BinOp::Ge:
            return true;
          default:
            return false;
        }
    }

    /** cr0 bit and sense under which comparison @p op is true. */
    static std::pair<isa::CrBit, bool>
    compareBit(BinOp op)
    {
        switch (op) {
          case BinOp::Eq: return {isa::CrBit::Eq, true};
          case BinOp::Ne: return {isa::CrBit::Eq, false};
          case BinOp::Lt: return {isa::CrBit::Lt, true};
          case BinOp::Ge: return {isa::CrBit::Lt, false};
          case BinOp::Gt: return {isa::CrBit::Gt, true};
          case BinOp::Le: return {isa::CrBit::Gt, false};
          default: CC_PANIC("not a comparison");
        }
    }

    /** Compare template used in branch context: cmp(w)i + bc on cr0. */
    void
    compareAndBranch(const Expr &cond, bool branch_if_true, Label target)
    {
        bool lhs_pushed;
        uint8_t lhs = evalOperand(*cond.lhs, lhs_pushed);
        if (cond.rhs->kind == ExprKind::IntLit &&
            isa::fitsSigned(cond.rhs->value, 16)) {
            emit(isa::cmpi(0, lhs, cond.rhs->value));
        } else {
            bool rhs_pushed;
            uint8_t rhs = evalOperand(*cond.rhs, rhs_pushed);
            emit(isa::cmp(0, lhs, rhs));
            if (rhs_pushed)
                pop();
        }
        auto [bit, sense] = compareBit(cond.binop);
        emitBc(sense == branch_if_true ? isa::Bo::IfTrue
                                       : isa::Bo::IfFalse,
               isa::crBit(0, bit), target);
        if (lhs_pushed)
            pop();
    }

    /**
     * Branch-context condition evaluation (what an optimizing SDTS does
     * for if/while/for): comparisons feed bc directly instead of
     * materializing a boolean, and &&/|| become branch chains.
     */
    void
    emitCondBranchIfFalse(const Expr &cond, Label target)
    {
        if (cond.kind == ExprKind::Binary) {
            if (isComparison(cond.binop)) {
                compareAndBranch(cond, false, target);
                return;
            }
            if (cond.binop == BinOp::LogAnd) {
                emitCondBranchIfFalse(*cond.lhs, target);
                emitCondBranchIfFalse(*cond.rhs, target);
                return;
            }
            if (cond.binop == BinOp::LogOr) {
                Label is_true = newLabel();
                emitCondBranchIfTrue(*cond.lhs, is_true);
                emitCondBranchIfFalse(*cond.rhs, target);
                bind(is_true);
                return;
            }
        }
        if (cond.kind == ExprKind::Unary && cond.unop == UnOp::Not) {
            emitCondBranchIfTrue(*cond.lhs, target);
            return;
        }
        bool pushed;
        uint8_t reg = evalOperand(cond, pushed);
        emit(isa::cmpi(0, reg, 0));
        emitBc(isa::Bo::IfTrue, isa::crBit(0, isa::CrBit::Eq), target);
        if (pushed)
            pop();
    }

    /** Dual of emitCondBranchIfFalse. */
    void
    emitCondBranchIfTrue(const Expr &cond, Label target)
    {
        if (cond.kind == ExprKind::Binary) {
            if (isComparison(cond.binop)) {
                compareAndBranch(cond, true, target);
                return;
            }
            if (cond.binop == BinOp::LogOr) {
                emitCondBranchIfTrue(*cond.lhs, target);
                emitCondBranchIfTrue(*cond.rhs, target);
                return;
            }
            if (cond.binop == BinOp::LogAnd) {
                Label is_false = newLabel();
                emitCondBranchIfFalse(*cond.lhs, is_false);
                emitCondBranchIfTrue(*cond.rhs, target);
                bind(is_false);
                return;
            }
        }
        if (cond.kind == ExprKind::Unary && cond.unop == UnOp::Not) {
            emitCondBranchIfFalse(*cond.lhs, target);
            return;
        }
        bool pushed;
        uint8_t reg = evalOperand(cond, pushed);
        emit(isa::cmpi(0, reg, 0));
        emitBc(isa::Bo::IfFalse, isa::crBit(0, isa::CrBit::Eq), target);
        if (pushed)
            pop();
    }

    void
    emitStmt(const Stmt &stmt)
    {
        switch (stmt.kind) {
          case StmtKind::Block:
            for (const Stmt *inner : stmt.body)
                emitStmt(*inner);
            return;
          case StmtKind::LocalDecl:
            if (stmt.init) {
                const Location &loc = lookup(stmt.name, stmt.line);
                if (loc.kind == Location::Kind::CalleeReg &&
                    canEvalInto(*stmt.init)) {
                    evalInto(loc.reg, *stmt.init);
                    return;
                }
                bool pushed;
                uint8_t value = evalOperand(*stmt.init, pushed);
                emitStore(stmt.name, nullptr, value, stmt.line);
                if (pushed)
                    pop();
            }
            return;
          case StmtKind::Assign: {
            if (!stmt.index) {
                const Location &loc = lookup(stmt.name, stmt.line);
                if (loc.kind == Location::Kind::CalleeReg &&
                    canEvalInto(*stmt.cond)) {
                    evalInto(loc.reg, *stmt.cond);
                    return;
                }
            }
            bool pushed;
            uint8_t value = evalOperand(*stmt.cond, pushed);
            emitStore(stmt.name, stmt.index, value, stmt.line);
            if (pushed)
                pop();
            return;
          }
          case StmtKind::ExprStmt:
            evalExpr(*stmt.cond);
            pop();
            return;
          case StmtKind::If: {
            Label else_label = newLabel();
            emitCondBranchIfFalse(*stmt.cond, else_label);
            emitStmt(*stmt.thenStmt);
            if (stmt.elseStmt) {
                Label end = newLabel();
                emitB(end);
                bind(else_label);
                emitStmt(*stmt.elseStmt);
                bind(end);
            } else {
                bind(else_label);
            }
            return;
          }
          case StmtKind::While: {
            Label top = newLabel();
            Label end = newLabel();
            bind(top);
            emitCondBranchIfFalse(*stmt.cond, end);
            loops_.push_back({end, top});
            emitStmt(*stmt.body[0]);
            loops_.pop_back();
            emitB(top);
            bind(end);
            return;
          }
          case StmtKind::DoWhile: {
            Label top = newLabel();
            Label cont = newLabel();
            Label end = newLabel();
            bind(top);
            loops_.push_back({end, cont});
            emitStmt(*stmt.body[0]);
            loops_.pop_back();
            bind(cont);
            emitCondBranchIfTrue(*stmt.cond, top);
            bind(end);
            return;
          }
          case StmtKind::For: {
            if (stmt.initStmt)
                emitStmt(*stmt.initStmt);
            Label top = newLabel();
            Label cont = newLabel();
            Label end = newLabel();
            bind(top);
            if (stmt.cond)
                emitCondBranchIfFalse(*stmt.cond, end);
            loops_.push_back({end, cont});
            emitStmt(*stmt.body[0]);
            loops_.pop_back();
            bind(cont);
            if (stmt.stepStmt)
                emitStmt(*stmt.stepStmt);
            emitB(top);
            bind(end);
            return;
          }
          case StmtKind::Return:
            if (stmt.cond) {
                bool pushed;
                uint8_t value = evalOperand(*stmt.cond, pushed);
                emit(isa::mr(regArg0, value));
                if (pushed)
                    pop();
            } else {
                emit(isa::li(regArg0, 0));
            }
            emitB(epilogueLabel_);
            return;
          case StmtKind::Break:
            CC_ASSERT(!loops_.empty(), "break outside loop/switch, line ",
                      stmt.line);
            emitB(loops_.back().breakLabel);
            return;
          case StmtKind::Continue: {
            // `continue` binds to the innermost *loop*, skipping any
            // enclosing switch scopes.
            for (auto it = loops_.rbegin(); it != loops_.rend(); ++it) {
                if (it->continueLabel != UINT32_MAX) {
                    emitB(it->continueLabel);
                    return;
                }
            }
            CC_FATAL("continue outside loop at line ", stmt.line);
          }
          case StmtKind::Switch:
            emitSwitch(stmt);
            return;
        }
    }

    void
    emitSwitch(const Stmt &stmt)
    {
        if (stmt.cases.empty())
            CC_FATAL("switch with no cases, line ", stmt.line);
        int64_t min_value = stmt.cases[0].value;
        int64_t max_value = stmt.cases[0].value;
        for (const SwitchCase &arm : stmt.cases) {
            min_value = std::min<int64_t>(min_value, arm.value);
            max_value = std::max<int64_t>(max_value, arm.value);
        }
        int64_t range = max_value - min_value + 1;
        bool dense = stmt.cases.size() >= 4 &&
                     range <= 2 * static_cast<int64_t>(stmt.cases.size()) + 8;

        Label end = newLabel();
        Label default_label = newLabel();
        std::vector<Label> case_labels(stmt.cases.size());
        for (Label &label : case_labels)
            label = newLabel();

        uint8_t sel = evalExpr(*stmt.cond);

        if (dense) {
            // Jump-table dispatch (paper section 3.2.1: tables live in
            // .data and are patched after compression).
            if (min_value != 0)
                emit(isa::addi(sel, sel,
                               static_cast<int32_t>(-min_value)));
            if (range > 0xffff)
                CC_FATAL("switch range too large, line ", stmt.line);
            emit(isa::cmpli(0, sel, static_cast<int32_t>(range)));
            emitBc(isa::Bo::IfFalse, isa::crBit(0, isa::CrBit::Lt),
                   default_label);
            // Allocate the table in .data.
            uint32_t table_offset = static_cast<uint32_t>(data_.size());
            for (int64_t i = 0; i < range; ++i)
                for (int j = 0; j < 4; ++j)
                    data_.push_back(0);
            // Table slots: case label where present, else default.
            std::vector<Label> slot_labels(static_cast<size_t>(range),
                                           default_label);
            for (size_t i = 0; i < stmt.cases.size(); ++i)
                slot_labels[static_cast<size_t>(stmt.cases[i].value -
                                                min_value)] =
                    case_labels[i];
            for (int64_t i = 0; i < range; ++i)
                tableFixups_.push_back(
                    {table_offset + static_cast<uint32_t>(i) * 4,
                     slot_labels[static_cast<size_t>(i)]});
            emitGlobalHa(regTmp, static_cast<int32_t>(table_offset));
            uint32_t lo_index = emit(isa::addi(regTmp, regTmp, 0));
            dataLoFixups_.push_back({lo_index, table_offset});
            emit(isa::slwi(0, sel, 2));
            emit(isa::lwzx(regTmp, regTmp, 0));
            emit(isa::mtctr(regTmp));
            emit(isa::bctr());
        } else {
            // Compare-and-branch chain.
            for (size_t i = 0; i < stmt.cases.size(); ++i) {
                emit(isa::cmpi(0, sel, stmt.cases[i].value));
                emitBc(isa::Bo::IfTrue, isa::crBit(0, isa::CrBit::Eq),
                       case_labels[i]);
            }
            emitB(default_label);
        }
        pop();

        // Arms in source order with C fallthrough; default last.
        loops_.push_back({end, UINT32_MAX});
        for (size_t i = 0; i < stmt.cases.size(); ++i) {
            bind(case_labels[i]);
            for (const Stmt *inner : stmt.cases[i].body)
                emitStmt(*inner);
        }
        bind(default_label);
        for (const Stmt *inner : stmt.defaultBody)
            emitStmt(*inner);
        loops_.pop_back();
        bind(end);
    }

    // ---------------- members ----------------

    struct LoopLabels
    {
        Label breakLabel;
        Label continueLabel; //!< UINT32_MAX inside switch scopes
    };

    const TranslationUnit &unit_;
    CompileOptions options_;
    Program program_;
    std::vector<uint8_t> data_;

    // Indexed by Symbol.
    std::vector<Location> globals_;
    std::vector<Location> locals_; //!< the current function's
    std::vector<bool> functionDefined_;

    std::vector<Symbol> localsInScope_; //!< bound entries of locals_

    std::vector<uint32_t> labels_;
    std::vector<std::pair<uint32_t, Label>> labelFixups_;
    std::vector<std::pair<uint32_t, Symbol>> callFixups_;
    std::vector<std::pair<uint32_t, uint32_t>> dataHaFixups_;
    std::vector<std::pair<uint32_t, uint32_t>> dataLoFixups_;
    std::vector<std::pair<uint32_t, Label>> tableFixups_;

    std::vector<LoopLabels> loops_;
    const Function *currentFunction_ = nullptr;
    unsigned numCalleeUsed_ = 0;
    unsigned numCalleeSaved_ = 0;
    int32_t nextStackOffset_ = 8;
    int32_t spillOffset_ = 0;
    int32_t frameSize_ = 0;
    unsigned evalDepth_ = 0;
    unsigned savedBelow_ = 0;
    Label epilogueLabel_ = 0;

    /** Resolve jump-table fixups; must run before labels are cleared. */
    void
    resolveTables()
    {
        for (const auto &[offset, label] : tableFixups_) {
            uint32_t target = labels_[label];
            CC_ASSERT(target != UINT32_MAX, "unbound table label");
            program_.codeRelocs.push_back({offset, target});
        }
        tableFixups_.clear();
    }
};

} // namespace

link::ObjectModule
compileModuleUnit(const TranslationUnit &unit,
                  const std::string &module_name,
                  const CompileOptions &options)
{
    Emitter emitter(unit, options);
    return emitter.run(module_name);
}

link::ObjectModule
compileModule(const std::string &source, const std::string &module_name,
              const CompileOptions &options)
{
    return compileModuleUnit(parse(source), module_name, options);
}

link::ObjectModule
runtimeModule(const CompileOptions &options)
{
    return compileModule(runtimeSource(), "runtime", options);
}

Program
compileUnit(const TranslationUnit &unit, const CompileOptions &options)
{
    std::vector<link::ObjectModule> modules;
    modules.push_back(compileModuleUnit(unit, "main", options));
    if (options.includeRuntime)
        modules.push_back(runtimeModule(options));
    return link::linkModules(modules);
}

Program
compile(const std::string &source, const CompileOptions &options)
{
    return compileUnit(parse(source), options);
}

} // namespace codecomp::codegen
