#include "codegen/parser.hh"

#include <iterator>
#include <utility>

#include "codegen/lexer.hh"
#include "support/logging.hh"

namespace codecomp::codegen {

namespace {

class Parser
{
  public:
    Parser(std::string_view source, TranslationUnit &unit)
        : unit_(unit), lexer_(source, unit.symbols), tok_(lexer_.next())
    {}

    void
    parseUnit()
    {
        while (!at(Tok::End)) {
            expect(Tok::KwInt);
            Token name = expect(Tok::Ident);
            if (at(Tok::LParen))
                unit_.functions.push_back(parseFunction(name));
            else
                unit_.globals.push_back(parseGlobalTail(name));
        }
    }

  private:
    const Token &peek() const { return tok_; }
    bool at(Tok kind) const { return tok_.kind == kind; }

    Token
    advance()
    {
        Token tok = tok_;
        tok_ = lexer_.next();
        return tok;
    }

    /**
     * Report a syntax error. The rest of the source is lexed first, so
     * a malformed token anywhere wins over a syntax error, exactly as
     * if the whole source had been tokenized before parsing.
     */
    template <typename... Args>
    [[noreturn]] void
    fail(Args &&...args)
    {
        lexer_.drain();
        CC_FATAL(std::forward<Args>(args)...);
    }

    Token
    expect(Tok kind)
    {
        if (!at(kind))
            fail("expected ", tokName(kind), " but found ",
                 tokName(peek().kind), " at line ", peek().line);
        return advance();
    }

    bool
    accept(Tok kind)
    {
        if (!at(kind))
            return false;
        advance();
        return true;
    }

    int32_t
    parseSignedNumber()
    {
        bool negative = accept(Tok::Minus);
        int32_t value = expect(Tok::Number).value;
        return negative ? -value : value;
    }

    /** The spelling of identifier @p ident; declarations carry their
     *  names as strings. */
    const std::string &
    spelling(const Token &ident) const
    {
        return unit_.symbols[static_cast<Symbol>(ident.value)];
    }

    GlobalDecl
    parseGlobalTail(const Token &name)
    {
        GlobalDecl global;
        global.name = spelling(name);
        global.symbol = static_cast<Symbol>(name.value);
        if (accept(Tok::LBracket)) {
            Token size = expect(Tok::Number);
            if (size.value <= 0)
                fail("array size must be positive, line ", size.line);
            global.arraySize = size.value;
            expect(Tok::RBracket);
            if (accept(Tok::Assign)) {
                expect(Tok::LBrace);
                if (!at(Tok::RBrace)) {
                    global.init.push_back(parseSignedNumber());
                    while (accept(Tok::Comma))
                        global.init.push_back(parseSignedNumber());
                }
                expect(Tok::RBrace);
                if (static_cast<int32_t>(global.init.size()) >
                    global.arraySize)
                    fail("too many initializers for ", global.name);
            }
        } else if (accept(Tok::Assign)) {
            global.init.push_back(parseSignedNumber());
        }
        expect(Tok::Semi);
        return global;
    }

    Function
    parseFunction(const Token &name)
    {
        Function fn;
        fn.name = spelling(name);
        fn.symbol = static_cast<Symbol>(name.value);
        fn.line = peek().line;
        expect(Tok::LParen);
        size_t mark = params_.size();
        if (!at(Tok::RParen)) {
            do {
                expect(Tok::KwInt);
                params_.push_back(
                    static_cast<Symbol>(expect(Tok::Ident).value));
            } while (accept(Tok::Comma));
        }
        fn.params = seal(params_, mark);
        expect(Tok::RParen);
        fn.body = parseBracedStmts();
        return fn;
    }

    /**
     * Move the items pushed on @p stack since @p mark into the arena.
     * Child lists are built on these parser-owned stacks, which nested
     * lists share, so building a list allocates nothing per node.
     */
    template <typename T>
    std::span<const T>
    seal(std::vector<T> &stack, size_t mark)
    {
        std::span<const T> items = unit_.arena.copy(
            std::span<const T>(stack).subspan(mark));
        stack.resize(mark);
        return items;
    }

    /** `{ stmt* }`. */
    std::span<const Stmt *const>
    parseBracedStmts()
    {
        expect(Tok::LBrace);
        size_t mark = stmts_.size();
        while (!at(Tok::RBrace))
            stmts_.push_back(parseStmt());
        expect(Tok::RBrace);
        return seal(stmts_, mark);
    }

    /** Statements up to the next case label, default or '}'. */
    std::span<const Stmt *const>
    parseArmBody()
    {
        size_t mark = stmts_.size();
        while (!at(Tok::KwCase) && !at(Tok::KwDefault) && !at(Tok::RBrace))
            stmts_.push_back(parseStmt());
        return seal(stmts_, mark);
    }

    /** A one-statement loop body. */
    std::span<const Stmt *const>
    parseLoopBody()
    {
        const Stmt *body = parseStmt();
        return unit_.arena.copy(std::span<const Stmt *const>(&body, 1));
    }

    Stmt *
    makeStmt(StmtKind kind)
    {
        Stmt *stmt = unit_.arena.make<Stmt>();
        stmt->kind = kind;
        stmt->line = peek().line;
        return stmt;
    }

    /** Assignment or expression, without the trailing semicolon;
     *  used by plain statements and by for-init/for-step. */
    Stmt *
    parseSimple()
    {
        if (at(Tok::Ident)) {
            // Lookahead to distinguish assignment from expression.
            Lexer::Mark save = lexer_.mark();
            Token first = tok_;
            Symbol name = static_cast<Symbol>(advance().value);
            if (accept(Tok::Assign)) {
                Stmt *stmt = makeStmt(StmtKind::Assign);
                stmt->name = name;
                stmt->cond = parseExpr();
                return stmt;
            }
            if (at(Tok::LBracket)) {
                advance();
                const Expr *index = parseExpr();
                expect(Tok::RBracket);
                if (accept(Tok::Assign)) {
                    Stmt *stmt = makeStmt(StmtKind::Assign);
                    stmt->name = name;
                    stmt->index = index;
                    stmt->cond = parseExpr();
                    return stmt;
                }
            }
            // Not an assignment: rewind and reparse as an expression.
            lexer_.rewind(save);
            tok_ = first;
        }
        Stmt *stmt = makeStmt(StmtKind::ExprStmt);
        stmt->cond = parseExpr();
        return stmt;
    }

    Stmt *
    parseStmt()
    {
        if (at(Tok::LBrace)) {
            Stmt *stmt = makeStmt(StmtKind::Block);
            stmt->body = parseBracedStmts();
            return stmt;
        }
        if (accept(Tok::KwInt)) {
            Stmt *stmt = makeStmt(StmtKind::LocalDecl);
            stmt->name = static_cast<Symbol>(expect(Tok::Ident).value);
            if (accept(Tok::LBracket)) {
                Token size = expect(Tok::Number);
                if (size.value <= 0)
                    fail("array size must be positive, line ", size.line);
                stmt->arraySize = size.value;
                expect(Tok::RBracket);
            } else if (accept(Tok::Assign)) {
                stmt->init = parseExpr();
            }
            expect(Tok::Semi);
            return stmt;
        }
        if (accept(Tok::KwIf)) {
            Stmt *stmt = makeStmt(StmtKind::If);
            expect(Tok::LParen);
            stmt->cond = parseExpr();
            expect(Tok::RParen);
            stmt->thenStmt = parseStmt();
            if (accept(Tok::KwElse))
                stmt->elseStmt = parseStmt();
            return stmt;
        }
        if (accept(Tok::KwWhile)) {
            Stmt *stmt = makeStmt(StmtKind::While);
            expect(Tok::LParen);
            stmt->cond = parseExpr();
            expect(Tok::RParen);
            stmt->body = parseLoopBody();
            return stmt;
        }
        if (accept(Tok::KwDo)) {
            Stmt *stmt = makeStmt(StmtKind::DoWhile);
            stmt->body = parseLoopBody();
            expect(Tok::KwWhile);
            expect(Tok::LParen);
            stmt->cond = parseExpr();
            expect(Tok::RParen);
            expect(Tok::Semi);
            return stmt;
        }
        if (accept(Tok::KwFor)) {
            Stmt *stmt = makeStmt(StmtKind::For);
            expect(Tok::LParen);
            if (!at(Tok::Semi))
                stmt->initStmt = parseSimple();
            expect(Tok::Semi);
            if (!at(Tok::Semi))
                stmt->cond = parseExpr();
            expect(Tok::Semi);
            if (!at(Tok::RParen))
                stmt->stepStmt = parseSimple();
            expect(Tok::RParen);
            stmt->body = parseLoopBody();
            return stmt;
        }
        if (accept(Tok::KwReturn)) {
            Stmt *stmt = makeStmt(StmtKind::Return);
            if (!at(Tok::Semi))
                stmt->cond = parseExpr();
            expect(Tok::Semi);
            return stmt;
        }
        if (accept(Tok::KwBreak)) {
            expect(Tok::Semi);
            return makeStmt(StmtKind::Break);
        }
        if (accept(Tok::KwContinue)) {
            expect(Tok::Semi);
            return makeStmt(StmtKind::Continue);
        }
        if (accept(Tok::KwSwitch)) {
            Stmt *stmt = makeStmt(StmtKind::Switch);
            expect(Tok::LParen);
            stmt->cond = parseExpr();
            expect(Tok::RParen);
            expect(Tok::LBrace);
            size_t mark = cases_.size();
            while (!at(Tok::RBrace)) {
                if (accept(Tok::KwCase)) {
                    SwitchCase arm;
                    arm.value = parseSignedNumber();
                    expect(Tok::Colon);
                    arm.body = parseArmBody();
                    cases_.push_back(arm);
                } else {
                    expect(Tok::KwDefault);
                    expect(Tok::Colon);
                    if (stmt->hasDefault)
                        fail("duplicate default, line ", peek().line);
                    stmt->hasDefault = true;
                    stmt->defaultBody = parseArmBody();
                }
            }
            stmt->cases = seal(cases_, mark);
            expect(Tok::RBrace);
            return stmt;
        }

        Stmt *stmt = parseSimple();
        expect(Tok::Semi);
        return stmt;
    }

    Expr *
    makeExpr(ExprKind kind)
    {
        Expr *expr = unit_.arena.make<Expr>();
        expr->kind = kind;
        expr->line = peek().line;
        return expr;
    }

    Expr *
    makeBinary(BinOp op, const Expr *lhs, const Expr *rhs)
    {
        Expr *expr = unit_.arena.make<Expr>();
        expr->kind = ExprKind::Binary;
        expr->binop = op;
        expr->lhs = lhs;
        expr->rhs = rhs;
        return expr;
    }

    /** Binary operator @p kind and its precedence; 0 for a token that
     *  is not one. Every level is left-associative, as in C. */
    static std::pair<BinOp, int>
    binaryOp(Tok kind)
    {
        switch (kind) {
          case Tok::PipePipe: return {BinOp::LogOr, 1};
          case Tok::AmpAmp: return {BinOp::LogAnd, 2};
          case Tok::Pipe: return {BinOp::Or, 3};
          case Tok::Caret: return {BinOp::Xor, 4};
          case Tok::Amp: return {BinOp::And, 5};
          case Tok::EqEq: return {BinOp::Eq, 6};
          case Tok::NotEq: return {BinOp::Ne, 6};
          case Tok::Lt: return {BinOp::Lt, 7};
          case Tok::Le: return {BinOp::Le, 7};
          case Tok::Gt: return {BinOp::Gt, 7};
          case Tok::Ge: return {BinOp::Ge, 7};
          case Tok::Shl: return {BinOp::Shl, 8};
          case Tok::Shr: return {BinOp::Shr, 8};
          case Tok::Plus: return {BinOp::Add, 9};
          case Tok::Minus: return {BinOp::Sub, 9};
          case Tok::Star: return {BinOp::Mul, 10};
          case Tok::Slash: return {BinOp::Div, 10};
          case Tok::Percent: return {BinOp::Mod, 10};
          default: return {BinOp::Add, 0};
        }
    }

    Expr *parseExpr() { return parseBinary(1); }

    /** Precedence climbing: operands joined by operators of precedence
     *  @p min_prec or higher. */
    Expr *
    parseBinary(int min_prec)
    {
        Expr *lhs = parseUnary();
        for (;;) {
            auto [op, prec] = binaryOp(peek().kind);
            if (prec < min_prec)
                return lhs;
            advance();
            lhs = makeBinary(op, lhs, parseBinary(prec + 1));
        }
    }

    Expr *
    parseUnary()
    {
        if (accept(Tok::Minus)) {
            // Fold -N literals immediately.
            Expr *operand = parseUnary();
            if (operand->kind == ExprKind::IntLit) {
                operand->value = -operand->value;
                return operand;
            }
            Expr *expr = makeExpr(ExprKind::Unary);
            expr->unop = UnOp::Neg;
            expr->lhs = operand;
            return expr;
        }
        if (accept(Tok::Bang)) {
            Expr *expr = makeExpr(ExprKind::Unary);
            expr->unop = UnOp::Not;
            expr->lhs = parseUnary();
            return expr;
        }
        return parsePrimary();
    }

    Expr *
    parsePrimary()
    {
        if (at(Tok::Number)) {
            Expr *expr = makeExpr(ExprKind::IntLit);
            expr->value = advance().value;
            return expr;
        }
        if (accept(Tok::LParen)) {
            Expr *expr = parseExpr();
            expect(Tok::RParen);
            return expr;
        }
        Symbol name = static_cast<Symbol>(expect(Tok::Ident).value);
        if (accept(Tok::LParen)) {
            Expr *expr = makeExpr(ExprKind::Call);
            expr->name = name;
            size_t mark = args_.size();
            if (!at(Tok::RParen)) {
                do {
                    args_.push_back(parseExpr());
                } while (accept(Tok::Comma));
            }
            expr->args = seal(args_, mark);
            expect(Tok::RParen);
            return expr;
        }
        if (accept(Tok::LBracket)) {
            Expr *expr = makeExpr(ExprKind::Index);
            expr->name = name;
            expr->lhs = parseExpr();
            expect(Tok::RBracket);
            return expr;
        }
        Expr *expr = makeExpr(ExprKind::Var);
        expr->name = name;
        return expr;
    }

    TranslationUnit &unit_;
    Lexer lexer_;
    Token tok_; //!< the current token; lexer_ is just past it
    // Child lists under construction (see seal()).
    std::vector<const Stmt *> stmts_;
    std::vector<const Expr *> args_;
    std::vector<SwitchCase> cases_;
    std::vector<Symbol> params_;
};

} // namespace

TranslationUnit
parse(const std::string &source)
{
    TranslationUnit unit;
    unit.symbols.assign(std::begin(builtinSpellings),
                        std::end(builtinSpellings));
    Parser(source, unit).parseUnit();
    return unit;
}

} // namespace codecomp::codegen
