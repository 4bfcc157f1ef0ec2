/**
 * @file
 * Lexer for MiniC, the small C-like language compiled by the SDTS code
 * generator. MiniC is the stand-in for the C sources of SPEC CINT95.
 *
 * Tokens are views: a kind, the offset and length of the spelling in the
 * source, a value and a line. The lexer copies no text except the
 * spelling of each distinct identifier, once, when it is interned, and
 * allocates nothing per token.
 */

#ifndef CODECOMP_CODEGEN_LEXER_HH
#define CODECOMP_CODEGEN_LEXER_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace codecomp::codegen {

enum class Tok : uint8_t {
    End,
    Ident,
    Number,
    // keywords
    KwInt, KwIf, KwElse, KwWhile, KwFor, KwDo, KwReturn, KwBreak,
    KwContinue, KwSwitch, KwCase, KwDefault,
    // punctuation and operators
    LParen, RParen, LBrace, RBrace, LBracket, RBracket,
    Semi, Comma, Colon,
    Assign,
    Plus, Minus, Star, Slash, Percent,
    Amp, Pipe, Caret, Shl, Shr,
    EqEq, NotEq, Lt, Le, Gt, Ge,
    AmpAmp, PipePipe, Bang,
};

/** One lexed token: a view of its spelling in the source. */
struct Token
{
    Tok kind = Tok::End;
    uint32_t offset = 0; //!< first byte of the spelling in the source
    uint32_t length = 0; //!< spelling length in bytes
    int32_t value = 0;   //!< Number: its value; Ident: its symbol ID
    int line = 0;        //!< 1-based source line, for error messages
};

/**
 * Spelling -> dense ID table over a caller-owned spelling list: ID i
 * is spellings[i]. New spellings are appended; ones already in the list
 * when the table is made keep their IDs.
 */
class Interner
{
  public:
    explicit Interner(std::vector<std::string> &spellings);

    /** The ID of @p word, appending it on first sight. */
    int32_t intern(std::string_view word);

  private:
    static uint64_t hash(std::string_view word);
    void insert(size_t id);
    void rehash(size_t slots);

    std::vector<std::string> &spellings_;
    std::vector<uint64_t> hashes_; //!< per ID
    std::vector<uint32_t> slots_;  //!< open addressing; ID + 1, 0 = empty
};

/**
 * Pull lexer: next() lexes one token on demand, so no token array is
 * ever built. Each identifier is interned into the symbol list given
 * at construction; its token's value is the symbol ID.
 */
class Lexer
{
  public:
    Lexer(std::string_view source, std::vector<std::string> &symbols);

    /** The next token; Tok::End, again and again, at the end of the
     *  source. Fatal on a malformed token. */
    Token next();

    /** Lex the rest of the source and drop the tokens: fatal on the
     *  first malformed one. */
    void drain();

    /** A lexer position: rewind() makes next() continue from it. */
    struct Mark
    {
        size_t pos;
        int line;
    };
    Mark mark() const { return {pos_, line_}; }
    void rewind(Mark mark)
    {
        pos_ = mark.pos;
        line_ = mark.line;
    }

  private:
    std::string_view src_;
    size_t pos_ = 0;
    int line_ = 1;
    Interner interner_;
};

/** Human-readable token-kind name for diagnostics. */
const char *tokName(Tok kind);

} // namespace codecomp::codegen

#endif // CODECOMP_CODEGEN_LEXER_HH
