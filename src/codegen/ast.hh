/**
 * @file
 * Abstract syntax tree for MiniC.
 *
 * Every value is a 32-bit signed int; arrays are one-dimensional.
 * Assignments are statements (not expressions), which keeps the SDTS
 * templates simple and regular -- exactly the property the paper's
 * compression method exploits.
 *
 * Identifiers are dense symbol IDs into TranslationUnit::symbols, and
 * every Expr and Stmt, and every child list, lives in the unit's Arena.
 * Nodes are trivially destructible: the tree is freed by dropping the
 * arena's chunks, without visiting a node.
 */

#ifndef CODECOMP_CODEGEN_AST_HH
#define CODECOMP_CODEGEN_AST_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace codecomp::codegen {

/** An interned identifier: index of its spelling in
 *  TranslationUnit::symbols. */
using Symbol = uint32_t;

/** The builtins every unit interns first, in this order. */
enum BuiltinSymbol : Symbol { symPutc, symPuti, symExit };
inline constexpr const char *builtinSpellings[] = {"putc", "puti", "exit"};

/**
 * Bump allocator for AST nodes and child lists. Memory comes in chunks
 * that double up to 1 MB and is released only with the arena; moving
 * an arena keeps every allocation where it is.
 */
class Arena
{
  public:
    /** A value-initialized T; T must be trivially destructible. */
    template <typename T>
    T *
    make()
    {
        static_assert(std::is_trivially_destructible_v<T>);
        return new (allocate(sizeof(T), alignof(T))) T();
    }

    /** A copy of @p items in the arena. */
    template <typename T>
    std::span<const T>
    copy(std::span<const T> items)
    {
        static_assert(std::is_trivially_destructible_v<T>);
        if (items.empty())
            return {};
        T *out = static_cast<T *>(
            allocate(items.size_bytes(), alignof(T)));
        std::uninitialized_copy(items.begin(), items.end(), out);
        return {out, items.size()};
    }

  private:
    static constexpr size_t firstChunkBytes = 4096;
    static constexpr size_t maxChunkBytes = size_t(1) << 20;

    void *
    allocate(size_t bytes, size_t align)
    {
        size_t offset = (used_ + align - 1) & ~(align - 1);
        if (chunks_.empty() || offset + bytes > capacity_) {
            capacity_ = chunks_.empty()
                            ? firstChunkBytes
                            : std::min(2 * capacity_, maxChunkBytes);
            capacity_ = std::max(capacity_, bytes);
            // Default-initialized: the nodes initialize themselves.
            chunks_.emplace_back(new std::byte[capacity_]);
            offset = 0;
        }
        used_ = offset + bytes;
        return chunks_.back().get() + offset;
    }

    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    size_t used_ = 0;     //!< bytes handed out from the last chunk
    size_t capacity_ = 0; //!< size of the last chunk
};

enum class BinOp : uint8_t {
    Add, Sub, Mul, Div, Mod,
    And, Or, Xor, Shl, Shr,
    Eq, Ne, Lt, Le, Gt, Ge,
    LogAnd, LogOr,
};

enum class UnOp : uint8_t {
    Neg,
    Not,
};

enum class ExprKind : uint8_t {
    IntLit,  //!< value
    Var,     //!< name (scalar variable)
    Index,   //!< name[lhs]
    Unary,   //!< unop lhs
    Binary,  //!< lhs binop rhs
    Call,    //!< name(args...); includes the builtins putc/puti/exit
};

struct Expr
{
    ExprKind kind = ExprKind::IntLit;
    UnOp unop = UnOp::Neg;
    BinOp binop = BinOp::Add;
    int32_t value = 0;
    Symbol name = 0;
    int line = 0;
    const Expr *lhs = nullptr;
    const Expr *rhs = nullptr;
    std::span<const Expr *const> args;
};

enum class StmtKind : uint8_t {
    Block,     //!< body
    LocalDecl, //!< int name [arraySize]? (= init)?
    Assign,    //!< name (= value) or name[index] = value
    ExprStmt,  //!< expr; (usually a call)
    If,        //!< cond, thenStmt, elseStmt?
    While,     //!< cond, body[0]
    DoWhile,   //!< body[0], cond
    For,       //!< init?, cond?, step?, body[0]
    Return,    //!< expr? (defaults to 0)
    Break,
    Continue,
    Switch,    //!< cond = selector; cases; defaultBody
};

struct Stmt;

/** One `case N:` arm with its statements (falls through like C). */
struct SwitchCase
{
    int32_t value = 0;
    std::span<const Stmt *const> body;
};

struct Stmt
{
    StmtKind kind = StmtKind::Block;
    bool hasDefault = false;
    Symbol name = 0;
    int32_t arraySize = 0;         //!< 0 for scalar LocalDecl
    int line = 0;
    const Expr *index = nullptr;   //!< Assign to array element
    const Expr *cond = nullptr;    //!< If/While/DoWhile/For cond; Switch
                                   //!< selector; Assign value; Return
                                   //!< value; ExprStmt expr
    const Expr *init = nullptr;    //!< LocalDecl initializer
    const Stmt *initStmt = nullptr; //!< For init
    const Stmt *stepStmt = nullptr; //!< For step
    const Stmt *thenStmt = nullptr; //!< If then
    const Stmt *elseStmt = nullptr; //!< If else
    std::span<const Stmt *const> body;
    std::span<const SwitchCase> cases;
    std::span<const Stmt *const> defaultBody;
};

/** A global variable: scalar or array, with optional initializers. */
struct GlobalDecl
{
    std::string name;      //!< spelling of symbol
    Symbol symbol = 0;
    int32_t arraySize = 0; //!< 0 for scalar
    std::vector<int32_t> init;
};

struct Function
{
    std::string name;      //!< spelling of symbol
    Symbol symbol = 0;
    std::span<const Symbol> params;
    std::span<const Stmt *const> body;
    int line = 0;
};

/**
 * A whole translation unit. It owns everything its declarations point
 * to -- the spellings and the arena -- and holds no view of the source
 * it was parsed from.
 */
struct TranslationUnit
{
    std::vector<GlobalDecl> globals;
    std::vector<Function> functions;
    std::vector<std::string> symbols; //!< spelling of each Symbol
    Arena arena;                      //!< every Expr, Stmt and list
};

} // namespace codecomp::codegen

#endif // CODECOMP_CODEGEN_AST_HH
