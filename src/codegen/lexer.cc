#include "codegen/lexer.hh"

#include <array>

#include "support/logging.hh"
#include "support/serialize.hh"

namespace codecomp::codegen {

namespace {

enum CharClass : uint8_t {
    Space = 1,      //!< what std::isspace accepts in the C locale
    IdentStart = 2, //!< letter or '_'
    IdentBody = 4,  //!< letter, digit or '_'
    Digit = 8,
    HexDigit = 16,
};

constexpr std::array<uint8_t, 256> charClasses = [] {
    std::array<uint8_t, 256> table{};
    for (int c = 0; c < 256; ++c) {
        bool letter = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
        bool digit = c >= '0' && c <= '9';
        uint8_t bits = 0;
        if (c == ' ' || (c >= '\t' && c <= '\r'))
            bits |= Space;
        if (letter || c == '_')
            bits |= IdentStart | IdentBody;
        if (digit)
            bits |= IdentBody | Digit | HexDigit;
        if ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F'))
            bits |= HexDigit;
        table[static_cast<size_t>(c)] = bits;
    }
    return table;
}();

bool
isClass(char c, uint8_t cls)
{
    return (charClasses[static_cast<unsigned char>(c)] & cls) != 0;
}

/** Keyword kind of @p word, or Tok::Ident: length, then spelling. */
Tok
keyword(std::string_view word)
{
    switch (word.size()) {
      case 2:
        if (word == "if")
            return Tok::KwIf;
        if (word == "do")
            return Tok::KwDo;
        break;
      case 3:
        if (word == "int")
            return Tok::KwInt;
        if (word == "for")
            return Tok::KwFor;
        break;
      case 4:
        if (word == "else")
            return Tok::KwElse;
        if (word == "case")
            return Tok::KwCase;
        break;
      case 5:
        if (word == "while")
            return Tok::KwWhile;
        if (word == "break")
            return Tok::KwBreak;
        break;
      case 6:
        if (word == "return")
            return Tok::KwReturn;
        if (word == "switch")
            return Tok::KwSwitch;
        break;
      case 7:
        if (word == "default")
            return Tok::KwDefault;
        break;
      case 8:
        if (word == "continue")
            return Tok::KwContinue;
        break;
    }
    return Tok::Ident;
}

int32_t
charEscape(char c, int line)
{
    switch (c) {
      case 'n':
        return '\n';
      case 't':
        return '\t';
      case '0':
        return 0;
      case '\\':
        return '\\';
      case '\'':
        return '\'';
      default:
        CC_FATAL("bad escape '\\", std::string(1, c), "' at line ", line);
    }
}

} // namespace

Interner::Interner(std::vector<std::string> &spellings)
    : spellings_(spellings)
{
    for (const std::string &spelling : spellings_)
        hashes_.push_back(hash(spelling));
    rehash(64);
}

int32_t
Interner::intern(std::string_view word)
{
    uint64_t h = hash(word);
    size_t mask = slots_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
        uint32_t slot = slots_[i];
        if (slot == 0)
            break;
        if (hashes_[slot - 1] == h && spellings_[slot - 1] == word)
            return static_cast<int32_t>(slot - 1);
    }
    spellings_.emplace_back(word);
    hashes_.push_back(h);
    if (2 * spellings_.size() > slots_.size())
        rehash(2 * slots_.size());
    else
        insert(spellings_.size() - 1);
    return static_cast<int32_t>(spellings_.size() - 1);
}

uint64_t
Interner::hash(std::string_view word)
{
    return fnv1a64(reinterpret_cast<const uint8_t *>(word.data()),
                   word.size());
}

void
Interner::insert(size_t id)
{
    size_t mask = slots_.size() - 1;
    size_t i = hashes_[id] & mask;
    while (slots_[i] != 0)
        i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(id + 1);
}

void
Interner::rehash(size_t slots)
{
    while (slots < 2 * spellings_.size())
        slots *= 2;
    slots_.assign(slots, 0);
    for (size_t id = 0; id < spellings_.size(); ++id)
        insert(id);
}

Lexer::Lexer(std::string_view source, std::vector<std::string> &symbols)
    : src_(source), interner_(symbols)
{
    if (source.size() >= UINT32_MAX)
        CC_FATAL("source too large: ", source.size(), " bytes");
}

void
Lexer::drain()
{
    while (next().kind != Tok::End) {
    }
}

Token
Lexer::next()
{
    const std::string_view src = src_;
    const size_t n = src.size();
    size_t &i = pos_;  // the scan advances the lexer's own position
    int &line = line_; // and line

    auto make = [&](Tok kind, size_t start, int32_t value = 0) {
        return Token{kind, static_cast<uint32_t>(start),
                     static_cast<uint32_t>(i - start), value, line};
    };

    while (i < n) {
        char c = src[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (isClass(c, Space)) {
            ++i;
            continue;
        }
        if (c == '/' && i + 1 < n && src[i + 1] == '/') {
            while (i < n && src[i] != '\n')
                ++i;
            continue;
        }
        if (c == '/' && i + 1 < n && src[i + 1] == '*') {
            i += 2;
            while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
                if (src[i] == '\n')
                    ++line;
                ++i;
            }
            if (i + 1 >= n)
                CC_FATAL("unterminated comment at line ", line);
            i += 2;
            continue;
        }
        size_t start = i;
        if (isClass(c, IdentStart)) {
            while (i < n && isClass(src[i], IdentBody))
                ++i;
            std::string_view word = src.substr(start, i - start);
            Tok kind = keyword(word);
            return make(kind, start,
                        kind == Tok::Ident ? interner_.intern(word) : 0);
        }
        if (isClass(c, Digit)) {
            // Every hex digit belongs to the literal; its value is the
            // longest prefix of digits valid in its base.
            uint64_t base = 10;
            if (c == '0' && i + 1 < n &&
                (src[i + 1] == 'x' || src[i + 1] == 'X')) {
                base = 16;
                i += 2;
            }
            size_t digits = i;
            uint64_t value = 0;
            bool in_prefix = true;
            bool too_large = false;
            while (i < n && isClass(src[i], HexDigit)) {
                char d = src[i++];
                uint64_t digit = isClass(d, Digit)
                                     ? static_cast<uint64_t>(d - '0')
                                     : static_cast<uint64_t>((d | 0x20) -
                                                             'a' + 10);
                in_prefix = in_prefix && digit < base;
                if (in_prefix && !too_large) {
                    value = value * base + digit;
                    too_large = value > 0xffffffffull;
                }
            }
            if (i == digits)
                CC_FATAL("malformed numeric literal at line ", line);
            if (too_large)
                CC_FATAL("literal too large, line ", line);
            return make(Tok::Number, start, static_cast<int32_t>(value));
        }
        if (c == '\'') {
            if (i + 2 >= n)
                CC_FATAL("unterminated char literal, line ", line);
            int32_t value;
            if (src[i + 1] == '\\') {
                value = charEscape(src[i + 2], line);
                if (i + 3 >= n || src[i + 3] != '\'')
                    CC_FATAL("bad char literal, line ", line);
                i += 4;
            } else {
                value = static_cast<unsigned char>(src[i + 1]);
                if (src[i + 2] != '\'')
                    CC_FATAL("bad char literal, line ", line);
                i += 3;
            }
            return make(Tok::Number, start, value);
        }

        // Punctuation: op() takes one character; is2() takes a second
        // one when it is @p second.
        auto op = [&](Tok kind) {
            ++i;
            return make(kind, start);
        };
        auto is2 = [&](char second) {
            if (i + 1 < n && src[i + 1] == second) {
                ++i;
                return true;
            }
            return false;
        };
        switch (c) {
          case '(':
            return op(Tok::LParen);
          case ')':
            return op(Tok::RParen);
          case '{':
            return op(Tok::LBrace);
          case '}':
            return op(Tok::RBrace);
          case '[':
            return op(Tok::LBracket);
          case ']':
            return op(Tok::RBracket);
          case ';':
            return op(Tok::Semi);
          case ',':
            return op(Tok::Comma);
          case ':':
            return op(Tok::Colon);
          case '+':
            return op(Tok::Plus);
          case '-':
            return op(Tok::Minus);
          case '*':
            return op(Tok::Star);
          case '/':
            return op(Tok::Slash);
          case '%':
            return op(Tok::Percent);
          case '^':
            return op(Tok::Caret);
          case '=':
            return op(is2('=') ? Tok::EqEq : Tok::Assign);
          case '!':
            return op(is2('=') ? Tok::NotEq : Tok::Bang);
          case '<':
            return op(is2('=') ? Tok::Le : is2('<') ? Tok::Shl : Tok::Lt);
          case '>':
            return op(is2('=') ? Tok::Ge : is2('>') ? Tok::Shr : Tok::Gt);
          case '&':
            return op(is2('&') ? Tok::AmpAmp : Tok::Amp);
          case '|':
            return op(is2('|') ? Tok::PipePipe : Tok::Pipe);
          default:
            CC_FATAL("unexpected character '", std::string(1, c),
                     "' at line ", line);
        }
    }
    return Token{Tok::End, static_cast<uint32_t>(n), 0, 0, line};
}

const char *
tokName(Tok kind)
{
    switch (kind) {
      case Tok::End: return "<end>";
      case Tok::Ident: return "identifier";
      case Tok::Number: return "number";
      case Tok::KwInt: return "'int'";
      case Tok::KwIf: return "'if'";
      case Tok::KwElse: return "'else'";
      case Tok::KwWhile: return "'while'";
      case Tok::KwFor: return "'for'";
      case Tok::KwDo: return "'do'";
      case Tok::KwReturn: return "'return'";
      case Tok::KwBreak: return "'break'";
      case Tok::KwContinue: return "'continue'";
      case Tok::KwSwitch: return "'switch'";
      case Tok::KwCase: return "'case'";
      case Tok::KwDefault: return "'default'";
      case Tok::LParen: return "'('";
      case Tok::RParen: return "')'";
      case Tok::LBrace: return "'{'";
      case Tok::RBrace: return "'}'";
      case Tok::LBracket: return "'['";
      case Tok::RBracket: return "']'";
      case Tok::Semi: return "';'";
      case Tok::Comma: return "','";
      case Tok::Colon: return "':'";
      case Tok::Assign: return "'='";
      case Tok::Plus: return "'+'";
      case Tok::Minus: return "'-'";
      case Tok::Star: return "'*'";
      case Tok::Slash: return "'/'";
      case Tok::Percent: return "'%'";
      case Tok::Amp: return "'&'";
      case Tok::Pipe: return "'|'";
      case Tok::Caret: return "'^'";
      case Tok::Shl: return "'<<'";
      case Tok::Shr: return "'>>'";
      case Tok::EqEq: return "'=='";
      case Tok::NotEq: return "'!='";
      case Tok::Lt: return "'<'";
      case Tok::Le: return "'<='";
      case Tok::Gt: return "'>'";
      case Tok::Ge: return "'>='";
      case Tok::AmpAmp: return "'&&'";
      case Tok::PipePipe: return "'||'";
      case Tok::Bang: return "'!'";
    }
    return "<bad>";
}

} // namespace codecomp::codegen
