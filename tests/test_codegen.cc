/**
 * @file
 * Tests for the MiniC front end and SDTS code generator: programs are
 * compiled and *executed* on the reference Cpu, and their output is
 * checked against independently computed expectations.
 */

#include <gtest/gtest.h>

#include "codegen/codegen.hh"
#include "codegen/parser.hh"
#include "decompress/cpu.hh"
#include "program/cfg.hh"

using namespace codecomp;

namespace {

ExecResult
compileAndRun(const std::string &source)
{
    Program program = codegen::compile(source);
    return runProgram(program, 1ull << 26);
}

/**
 * The text of the user-level error @p body raises, without the
 * " (file.cc:N)" suffix naming the compiler source line that raised it:
 * the pinned diagnostics are what a MiniC author reads, including the
 * MiniC line number, and must survive edits to the compiler itself.
 */
template <typename Body>
std::string
diagnostic(Body &&body)
{
    try {
        body();
    } catch (const std::runtime_error &error) {
        std::string what = error.what();
        size_t suffix = what.rfind(" (");
        return suffix == std::string::npos ? what : what.substr(0, suffix);
    }
    return "<no error>";
}

std::string
parseError(const std::string &source)
{
    return diagnostic([&] { codegen::parse(source); });
}

std::string
compileError(const std::string &source)
{
    return diagnostic([&] { codegen::compile(source); });
}

TEST(MiniCParser, ParsesDeclarationsAndFunctions)
{
    auto unit = codegen::parse(R"(
        int g;
        int table[4] = {1, 2, -3, 4};
        int scalar = -7;
        int main() { return 0; }
    )");
    ASSERT_EQ(unit.globals.size(), 3u);
    EXPECT_EQ(unit.globals[0].name, "g");
    EXPECT_EQ(unit.globals[1].arraySize, 4);
    EXPECT_EQ(unit.globals[1].init[2], -3);
    EXPECT_EQ(unit.globals[2].init[0], -7);
    ASSERT_EQ(unit.functions.size(), 1u);
    EXPECT_EQ(unit.functions[0].name, "main");
}

TEST(MiniCParser, RejectsSyntaxErrors)
{
    EXPECT_THROW(codegen::parse("int main( { return 0; }"),
                 std::runtime_error);
    EXPECT_THROW(codegen::parse("int x = ;"), std::runtime_error);
    EXPECT_THROW(codegen::parse("banana"), std::runtime_error);

    EXPECT_EQ(parseError("int main( { return 0; }"),
              "fatal: expected 'int' but found '{' at line 1");
    EXPECT_EQ(parseError("int x = ;"),
              "fatal: expected number but found ';' at line 1");
    EXPECT_EQ(parseError("banana"),
              "fatal: expected 'int' but found identifier at line 1");
    // Line counting across // comments, a /* */ comment spanning three
    // lines, and blank lines.
    EXPECT_EQ(parseError("int g; // one\n"
                         "/* two\n"
                         "   three\n"
                         "   four */\n"
                         "\n"
                         "int main() {\n"
                         "  return g +;\n"
                         "}\n"),
              "fatal: expected identifier but found ';' at line 7");
    EXPECT_EQ(parseError("int main() {\n  int a[4];\n  a[1] 2;\n}"),
              "fatal: expected ';' but found number at line 3");
    EXPECT_EQ(parseError("int main() {\n  switch (1) {\n  default: break;"
                         "\n  default: break;\n  }\n}"),
              "fatal: duplicate default, line 4");
    EXPECT_EQ(parseError("int t[2] = {1, 2, 3};"),
              "fatal: too many initializers for t");
    EXPECT_EQ(parseError("int main() {\n  return 0;\n"),
              "fatal: expected identifier but found <end> at line 3");
}

TEST(Codegen, ReturnsExitCode)
{
    EXPECT_EQ(compileAndRun("int main() { return 42; }").exitCode, 42);
    EXPECT_EQ(compileAndRun("int main() { return 0; }").exitCode, 0);
    EXPECT_EQ(compileAndRun("int main() { return -5; }").exitCode, -5);
}

TEST(Codegen, ArithmeticOperators)
{
    EXPECT_EQ(compileAndRun(
        "int main() { return (7 + 3) * 2 - 5; }").exitCode, 15);
    EXPECT_EQ(compileAndRun(
        "int main() { return 17 / 5; }").exitCode, 3);
    EXPECT_EQ(compileAndRun(
        "int main() { return 17 % 5; }").exitCode, 2);
    EXPECT_EQ(compileAndRun(
        "int main() { return -17 / 5; }").exitCode, -3);
    EXPECT_EQ(compileAndRun(
        "int main() { return (6 & 3) | (8 ^ 1); }").exitCode, 11);
    EXPECT_EQ(compileAndRun(
        "int main() { return 1 << 10; }").exitCode, 1024);
    EXPECT_EQ(compileAndRun(
        "int main() { return -64 >> 3; }").exitCode, -8);
    EXPECT_EQ(compileAndRun(
        "int main() { return -(3 * 4); }").exitCode, -12);
}

TEST(Codegen, LargeConstants)
{
    EXPECT_EQ(compileAndRun(
        "int main() { return 1000000 + 234567; }").exitCode, 1234567);
    EXPECT_EQ(compileAndRun(
        "int main() { return 0x12345678 & 0xff; }").exitCode, 0x78);
}

TEST(Codegen, ComparisonsProduceBooleans)
{
    EXPECT_EQ(compileAndRun(
        "int main() { return (3 < 5) + (5 <= 5) + (7 > 2) + (2 >= 3); }")
                  .exitCode,
              3);
    EXPECT_EQ(compileAndRun(
        "int main() { return (4 == 4) + (4 != 4); }").exitCode, 1);
    EXPECT_EQ(compileAndRun(
        "int main() { return (-1 < 1); }").exitCode, 1);
}

TEST(Codegen, LogicalOperatorsShortCircuit)
{
    // The right operand would trap (divide used as side-effect guard);
    // our divw is total, so instead use a global side effect to detect
    // evaluation.
    const char *source = R"(
        int hits = 0;
        int bump() { hits = hits + 1; return 1; }
        int main() {
            int a = 0 && bump();
            int b = 1 || bump();
            if (hits != 0) return 100;
            int c = 1 && bump();
            int d = 0 || bump();
            if (hits != 2) return 200;
            return a * 1000 + b * 100 + c * 10 + d;
        }
    )";
    EXPECT_EQ(compileAndRun(source).exitCode, 111);
}

TEST(Codegen, NotOperator)
{
    EXPECT_EQ(compileAndRun(
        "int main() { return !0 + !7 * 10; }").exitCode, 1);
}

TEST(Codegen, IfElseChains)
{
    const char *source = R"(
        int classify(int x) {
            if (x < 0) return -1;
            else if (x == 0) return 0;
            else if (x < 10) return 1;
            else return 2;
        }
        int main() {
            return classify(-5) * 1000 + classify(0) * 100 +
                   classify(3) * 10 + classify(99);
        }
    )";
    EXPECT_EQ(compileAndRun(source).exitCode, -1000 + 0 + 10 + 2);
}

TEST(Codegen, WhileAndForLoops)
{
    EXPECT_EQ(compileAndRun(R"(
        int main() {
            int sum = 0;
            int i = 1;
            while (i <= 10) { sum = sum + i; i = i + 1; }
            return sum;
        }
    )").exitCode, 55);
    EXPECT_EQ(compileAndRun(R"(
        int main() {
            int sum = 0;
            int i;
            for (i = 0; i < 100; i = i + 2) sum = sum + 1;
            return sum;
        }
    )").exitCode, 50);
}

TEST(Codegen, DoWhileRunsAtLeastOnce)
{
    EXPECT_EQ(compileAndRun(R"(
        int main() {
            int n = 0;
            do { n = n + 1; } while (0);
            return n;
        }
    )").exitCode, 1);
}

TEST(Codegen, BreakAndContinue)
{
    EXPECT_EQ(compileAndRun(R"(
        int main() {
            int sum = 0;
            int i;
            for (i = 0; i < 100; i = i + 1) {
                if (i == 10) break;
                if (i % 2 == 0) continue;
                sum = sum + i;
            }
            return sum;
        }
    )").exitCode, 1 + 3 + 5 + 7 + 9);
}

TEST(Codegen, GlobalsAndArrays)
{
    EXPECT_EQ(compileAndRun(R"(
        int g = 5;
        int arr[8];
        int main() {
            int i;
            for (i = 0; i < 8; i = i + 1) arr[i] = i * i;
            g = g + arr[3] + arr[7];
            return g;
        }
    )").exitCode, 5 + 9 + 49);
}

TEST(Codegen, GlobalInitializers)
{
    EXPECT_EQ(compileAndRun(R"(
        int tbl[5] = {10, 20, 30};
        int main() { return tbl[0] + tbl[1] + tbl[2] + tbl[3] + tbl[4]; }
    )").exitCode, 60);
}

TEST(Codegen, LocalArraysOnStack)
{
    EXPECT_EQ(compileAndRun(R"(
        int main() {
            int buf[16];
            int i;
            for (i = 0; i < 16; i = i + 1) buf[i] = i;
            int sum = 0;
            for (i = 0; i < 16; i = i + 1) sum = sum + buf[i];
            return sum;
        }
    )").exitCode, 120);
}

TEST(Codegen, FunctionCallsAndRecursion)
{
    EXPECT_EQ(compileAndRun(R"(
        int fact(int n) {
            if (n <= 1) return 1;
            return n * fact(n - 1);
        }
        int main() { return fact(6); }
    )").exitCode, 720);
    EXPECT_EQ(compileAndRun(R"(
        int fib(int n) {
            if (n < 2) return n;
            return fib(n - 1) + fib(n - 2);
        }
        int main() { return fib(12); }
    )").exitCode, 144);
}

TEST(Codegen, ManyArguments)
{
    EXPECT_EQ(compileAndRun(R"(
        int sum8(int a, int b, int c, int d, int e, int f, int g, int h) {
            return a + b + c + d + e + f + g + h;
        }
        int main() { return sum8(1, 2, 3, 4, 5, 6, 7, 8); }
    )").exitCode, 36);
}

TEST(Codegen, NestedCallsPreserveEvalStack)
{
    EXPECT_EQ(compileAndRun(R"(
        int add(int a, int b) { return a + b; }
        int main() {
            return add(add(1, 2), add(3, add(4, 5))) + 10 * add(6, 7);
        }
    )").exitCode, 15 + 130);
}

TEST(Codegen, SwitchDenseUsesJumpTable)
{
    const char *source = R"(
        int pick(int x) {
            switch (x) {
              case 0: return 100;
              case 1: return 101;
              case 2: return 102;
              case 3: return 103;
              case 4: return 104;
              case 5: return 105;
              default: return -1;
            }
        }
        int main() {
            return pick(0) + pick(3) + pick(5) + pick(9) + pick(-2);
        }
    )";
    // Verify a jump table was actually emitted.
    Program program = codegen::compile(source);
    EXPECT_FALSE(program.codeRelocs.empty());
    EXPECT_EQ(runProgram(program).exitCode, 100 + 103 + 105 - 1 - 1);
}

TEST(Codegen, SwitchSparseUsesCompareChain)
{
    const char *source = R"(
        int pick(int x) {
            switch (x) {
              case 1: return 7;
              case 1000: return 8;
              default: return 9;
            }
        }
        int main() { return pick(1) * 100 + pick(1000) * 10 + pick(3); }
    )";
    Program program = codegen::compile(source);
    EXPECT_TRUE(program.codeRelocs.empty());
    EXPECT_EQ(runProgram(program).exitCode, 789);
}

TEST(Codegen, SwitchFallthrough)
{
    EXPECT_EQ(compileAndRun(R"(
        int main() {
            int acc = 0;
            switch (2) {
              case 1: acc = acc + 1;
              case 2: acc = acc + 10;
              case 3: acc = acc + 100;
              case 4: acc = acc + 1000;
                break;
              case 5: acc = acc + 10000;
            }
            return acc;
        }
    )").exitCode, 1110);
}

TEST(Codegen, SwitchBreakInsideLoopContinue)
{
    EXPECT_EQ(compileAndRun(R"(
        int main() {
            int acc = 0;
            int i;
            for (i = 0; i < 6; i = i + 1) {
                switch (i % 3) {
                  case 0: acc = acc + 1; break;
                  case 1: continue;
                  default: acc = acc + 100; break;
                }
                acc = acc + 1000;
            }
            return acc;
        }
    )").exitCode, 2 + 200 + 4000);
}

TEST(Codegen, OutputSyscalls)
{
    ExecResult result = compileAndRun(R"(
        int main() {
            putc('h'); putc('i'); putc('\n');
            puti(123);
            puti(-45);
            return 0;
        }
    )");
    EXPECT_EQ(result.output, "hi\n123\n-45\n");
}

TEST(Codegen, ExitBuiltinStopsExecution)
{
    ExecResult result = compileAndRun(R"(
        int main() {
            puti(1);
            exit(77);
            puti(2);
            return 0;
        }
    )");
    EXPECT_EQ(result.exitCode, 77);
    EXPECT_EQ(result.output, "1\n");
}

TEST(Codegen, RuntimeLibrary)
{
    EXPECT_EQ(compileAndRun(R"(
        int main() {
            if (rt_abs(-9) != 9) return 1;
            if (rt_min(3, -2) != -2) return 2;
            if (rt_max(3, -2) != 3) return 3;
            if (rt_gcd(12, 18) != 6) return 4;
            if (rt_ilog2(1024) != 10) return 5;
            if (rt_popcount(0xff) != 8) return 6;
            if (rt_isqrt(289) != 17) return 7;
            if (rt_pow(3, 5) != 243) return 8;
            if (rt_fib(10) != 55) return 9;
            if (rt_sign(-3) != -1) return 10;
            if (rt_clamp(15, 0, 10) != 10) return 11;
            return 0;
        }
    )").exitCode, 0);
}

TEST(Codegen, DeterministicRandLcg)
{
    ExecResult a = compileAndRun(R"(
        int main() {
            rt_srand(99);
            int x = rt_rand();
            int y = rt_rand();
            puti(x); puti(y);
            return 0;
        }
    )");
    ExecResult b = compileAndRun(R"(
        int main() {
            rt_srand(99);
            int x = rt_rand();
            int y = rt_rand();
            puti(x); puti(y);
            return 0;
        }
    )");
    EXPECT_EQ(a.output, b.output);
    EXPECT_NE(a.output, "0\n0\n");
}

TEST(Codegen, SemanticErrors)
{
    EXPECT_THROW(compileAndRun("int main() { return zzz; }"),
                 std::runtime_error);
    EXPECT_THROW(compileAndRun("int main() { return nosuch(1); }"),
                 std::runtime_error);
    EXPECT_THROW(compileAndRun("int a[3]; int main() { return a; }"),
                 std::runtime_error);
    EXPECT_THROW(compileAndRun("int x; int main() { return x[0]; }"),
                 std::runtime_error);
    EXPECT_THROW(compileAndRun("int f() { return 0; } int f() { return 1; }"
                               " int main() { return 0; }"),
                 std::runtime_error);

    EXPECT_EQ(compileError("int g;\n"
                           "/* x\n   y */\n"
                           "int main() {\n"
                           "  int a = g;\n"
                           "  return a + zzz;\n"
                           "}\n"),
              "fatal: undefined variable 'zzz' at line 6");
    EXPECT_EQ(compileError("int a[3];\nint main() {\n  return a;\n}"),
              "fatal: array 'a' used without subscript at line 3");
    EXPECT_EQ(compileError("int x;\nint main() {\n  return x[0];\n}"),
              "fatal: subscript on non-array 'x' at line 3");
    EXPECT_EQ(compileError("int x;\nint main() {\n  x[0] = 1;\n"
                           "  return 0;\n}"),
              "fatal: subscript on non-array 'x' at line 3");
    EXPECT_EQ(compileError("int a[2];\nint main() {\n\n  a = 1;\n"
                           "  return 0;\n}"),
              "fatal: assignment to array 'a' without subscript at line 4");
    EXPECT_EQ(compileError("int f() { return 0; } int f() { return 1; }"
                           " int main() { return 0; }"),
              "fatal: duplicate function 'f'");
    EXPECT_EQ(compileError("int g; int g; int main() { return 0; }"),
              "fatal: duplicate global 'g'");
    EXPECT_EQ(compileError("int main() { int v; int v; return 0; }"),
              "fatal: duplicate local 'v' in function main");
    EXPECT_EQ(compileError("int f(int p) { int p; return 0; }"
                           " int main() { return 0; }"),
              "fatal: duplicate local 'p' in function f");
    EXPECT_EQ(compileError("int main() {\n  putc(1, 2);\n  return 0;\n}"),
              "fatal: builtin putc takes 1 argument, line 2");
    EXPECT_EQ(compileError("int main() {\n  while (1) { }\n"
                           "  continue;\n}"),
              "fatal: continue outside loop at line 4");
    EXPECT_EQ(compileError("int main() {\n  switch (1) { }\n}"),
              "fatal: switch with no cases, line 2");
    EXPECT_EQ(compileError("int f(int a, int b, int c, int d, int e,"
                           " int f, int g, int h, int i) { return 0; }"
                           " int main() { return 0; }"),
              "fatal: too many parameters in f");
}

TEST(Codegen, ProgramStructureIsWellFormed)
{
    Program program = codegen::compile(R"(
        int helper(int x) { return x + 1; }
        int main() { return helper(1); }
    )");
    // _start + 2 user functions + runtime library.
    ASSERT_GE(program.functions.size(), 3u);
    EXPECT_EQ(program.functions[0].name, "_start");
    EXPECT_EQ(program.entryIndex, 0u);
    EXPECT_GT(program.dataBase, Program::textBase + program.textBytes());

    // Functions tile .text contiguously.
    uint32_t expected = 0;
    for (const FunctionSymbol &fn : program.functions) {
        EXPECT_EQ(fn.body.first, expected);
        expected += fn.body.count;
    }
    EXPECT_EQ(expected, program.text.size());

    // Every non-_start function has a prologue and >= 1 epilogue.
    for (size_t i = 1; i < program.functions.size(); ++i) {
        EXPECT_GT(program.functions[i].prologue.count, 0u)
            << program.functions[i].name;
        EXPECT_FALSE(program.functions[i].epilogues.empty());
    }

    // The CFG builder accepts it.
    Cfg cfg = Cfg::build(program);
    EXPECT_GT(cfg.blocks().size(), 4u);
    uint32_t covered = 0;
    for (const InstRange &blk : cfg.blocks()) {
        EXPECT_EQ(blk.first, covered);
        covered += blk.count;
    }
    EXPECT_EQ(covered, program.text.size());
}

TEST(Codegen, StressManyLocalsSpillToStack)
{
    // 24 named scalars exceed the 18 callee-saved registers.
    std::string source = "int main() {\n";
    for (int i = 0; i < 24; ++i)
        source += "int v" + std::to_string(i) + " = " + std::to_string(i) +
                  ";\n";
    source += "int sum = 0;\n";
    for (int i = 0; i < 24; ++i)
        source += "sum = sum + v" + std::to_string(i) + ";\n";
    source += "return sum; }\n";
    EXPECT_EQ(compileAndRun(source).exitCode, 23 * 24 / 2);
}


TEST(Codegen, MixedSimpleAndComplexArgumentsStageCorrectly)
{
    // Stresses the parallel-move argument staging: simple arguments
    // (literals, register-resident locals) are materialized directly
    // into argument registers while complex ones come off the
    // expression stack -- in an order that must never clobber a
    // pending source.
    const char *source = R"(
        int probe8(int a, int b, int c, int d, int e, int f, int g,
                   int h) {
            return a + b * 10 + c * 100 + d * 1000 + e * 10000 +
                   f * 100000 + g * 1000000 + h * 10000000;
        }
        int id(int x) { return x; }
        int main() {
            int p = 1;
            int q = 4;
            int r = 7;
            // args: complex, simple, complex, simple-lit, complex,
            //       simple, complex, simple-lit
            return probe8(id(p), q, id(p + 1), 3, id(q + 1), r,
                          id(r + 1), 9) - 98754321 + 12345678;
        }
    )";
    // probe8(1,4,2,3,5,7,8,9) = 1 + 40 + 200 + 3000 + 50000 + 700000
    //                         + 8000000 + 90000000 = 98753241
    EXPECT_EQ(compileAndRun(source).exitCode,
              98753241 - 98754321 + 12345678);
}

TEST(Codegen, AllComplexArgumentsInOrder)
{
    const char *source = R"(
        int f4(int a, int b, int c, int d) {
            return a * 1000 + b * 100 + c * 10 + d;
        }
        int inc(int x) { return x + 1; }
        int main() {
            return f4(inc(0), inc(1), inc(2), inc(3));
        }
    )";
    EXPECT_EQ(compileAndRun(source).exitCode, 1234);
}

TEST(Codegen, ArgumentEvaluationOrderIsLeftToRight)
{
    const char *source = R"(
        int log = 0;
        int tick(int v) { log = log * 10 + v; return v; }
        int sink(int a, int b, int c) { return a + b + c; }
        int main() {
            sink(tick(1), tick(2), tick(3));
            return log;
        }
    )";
    EXPECT_EQ(compileAndRun(source).exitCode, 123);
}

TEST(Codegen, CallArgumentsUsingGlobalsAndArrays)
{
    const char *source = R"(
        int tab[4] = {10, 20, 30, 40};
        int g = 5;
        int f3(int a, int b, int c) { return a * 100 + b * 10 + c; }
        int main() {
            int i = 2;
            return f3(tab[i], g, tab[i + 1] / 10) - f3(0, 0, 0);
        }
    )";
    EXPECT_EQ(compileAndRun(source).exitCode, 3054);
}


TEST(MiniCParser, LexerErrorDiagnostics)
{
    EXPECT_THROW(codegen::parse("int main() { return 1 @ 2; }"),
                 std::runtime_error);
    EXPECT_THROW(codegen::parse("int main() { return 'ab'; }"),
                 std::runtime_error);
    EXPECT_THROW(codegen::parse("int main() { /* never closed"),
                 std::runtime_error);
    EXPECT_THROW(codegen::parse("int main() { return '\\q'; }"),
                 std::runtime_error);

    EXPECT_EQ(parseError("int main() { return 1 @ 2; }"),
              "fatal: unexpected character '@' at line 1");
    EXPECT_EQ(parseError("int main() { return 'ab'; }"),
              "fatal: bad char literal, line 1");
    EXPECT_EQ(parseError("int main() { /* never closed"),
              "fatal: unterminated comment at line 1");
    EXPECT_EQ(parseError("int main() { return '\\q'; }"),
              "fatal: bad escape '\\q' at line 1");
    // An unterminated comment reports the line it reached; a newline in
    // the last byte of the source is not counted.
    EXPECT_EQ(parseError("int main() {\n/* never\nclosed\n"),
              "fatal: unterminated comment at line 3");
    EXPECT_EQ(parseError("int main() {\n"
                         "  /* spans\n"
                         "     lines */ return 1;\n"
                         "  // trailing\n"
                         "  return 1 $ 2;\n"
                         "}\n"),
              "fatal: unexpected character '$' at line 5");
    // A lexer error wins over an earlier syntax error: the whole source
    // is tokenized before parsing starts.
    EXPECT_EQ(parseError("int main( {\n  return 1 # 2;\n}"),
              "fatal: unexpected character '#' at line 2");
    EXPECT_EQ(parseError("int main() {\n\n  return 0x;\n}"),
              "fatal: malformed numeric literal at line 3");
    EXPECT_EQ(parseError("int main() {\n  return 0x100000000;\n}"),
              "fatal: literal too large, line 2");
    EXPECT_EQ(parseError("int main() {\n  return '\\n;\n}"),
              "fatal: bad char literal, line 2");
    EXPECT_EQ(parseError("int main() { return '"),
              "fatal: unterminated char literal, line 1");
}

/** A literal past 64 bits is a user error, like one past 32 bits. */
TEST(MiniCParser, OverlongLiteralIsTooLarge)
{
    EXPECT_EQ(parseError("int main() {\n  return 99999999999999999999;\n}"),
              "fatal: literal too large, line 2");
    EXPECT_EQ(parseError("int x = 0x10000000000000000;"),
              "fatal: literal too large, line 1");
    // The value is the longest prefix of digits valid in the base; the
    // literal still takes every hex digit.
    auto unit = codegen::parse("int a = 12ab; int b = 0x1F;");
    EXPECT_EQ(unit.globals[0].init[0], 12);
    EXPECT_EQ(unit.globals[1].init[0], 31);
}

TEST(MiniCParser, ArraySizeMustBePositive)
{
    EXPECT_THROW(codegen::parse("int a[0]; int main() { return 0; }"),
                 std::runtime_error);

    EXPECT_EQ(parseError("int a[0]; int main() { return 0; }"),
              "fatal: array size must be positive, line 1");
    EXPECT_EQ(parseError("int main() {\n  /* a\n  b */ int b[0];\n"
                         "  return 0;\n}"),
              "fatal: array size must be positive, line 3");
}

} // namespace
