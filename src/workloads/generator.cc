#include "workloads/generator.hh"

#include <vector>

#include "support/logging.hh"
#include "support/rng.hh"

namespace codecomp::workloads {

namespace {

using codecomp::Rng;

/** Random arithmetic expression over @p vars, nesting at most @p depth. */
std::string
randExpr(Rng &rng, const std::vector<std::string> &vars, int depth)
{
    if (depth <= 0 || rng.chance(1, 4)) {
        if (rng.chance(2, 5))
            return std::to_string(rng.range(-64, 255));
        return vars[rng.below(vars.size())];
    }
    std::string lhs = randExpr(rng, vars, depth - 1);
    switch (rng.below(9)) {
      case 0:
        return "(" + lhs + " + " + randExpr(rng, vars, depth - 1) + ")";
      case 1:
        return "(" + lhs + " - " + randExpr(rng, vars, depth - 1) + ")";
      case 2:
        return "(" + lhs + " * " + std::to_string(rng.range(2, 13)) + ")";
      case 3:
        return "(" + lhs + " & " + std::to_string(rng.range(1, 1023)) + ")";
      case 4:
        return "(" + lhs + " | " + randExpr(rng, vars, depth - 1) + ")";
      case 5:
        return "(" + lhs + " ^ " + randExpr(rng, vars, depth - 1) + ")";
      case 6:
        return "(" + lhs + " << " + std::to_string(rng.range(1, 4)) + ")";
      case 7:
        return "(" + lhs + " >> " + std::to_string(rng.range(1, 4)) + ")";
      default:
        return "(" + lhs + " / " + std::to_string(rng.range(2, 9)) + ")";
    }
}

/** Argument list of @p arity expressions over @p vars. */
std::string
randArgs(Rng &rng, const std::vector<std::string> &vars, int arity)
{
    std::string out = "(";
    for (int i = 0; i < arity; ++i) {
        if (i)
            out += ", ";
        out += randExpr(rng, vars, 1);
    }
    return out + ")";
}

} // namespace

FillerCode
generateFiller(const GenSpec &spec, const std::string &prefix, int iters)
{
    CC_ASSERT(spec.loopTrip <= spec.arraySize, "loop trip exceeds array");
    Rng rng(spec.seed);
    FillerCode out;
    std::string &src = out.definitions;

    auto arr = [&prefix](int k) {
        return prefix + "_arr" + std::to_string(k);
    };
    auto leaf = [&prefix](int j) {
        return prefix + "_leaf" + std::to_string(j);
    };
    auto mid = [&prefix](int j) {
        return prefix + "_mid" + std::to_string(j);
    };
    auto dispatch = [&prefix](int j) {
        return prefix + "_dsp" + std::to_string(j);
    };

    // Global work arrays and a few scalars.
    for (int k = 0; k < spec.arrays; ++k)
        src += "int " + arr(k) + "[" + std::to_string(spec.arraySize) +
               "];\n";
    src += "int " + prefix + "_g0 = 17;\n";
    src += "int " + prefix + "_g1 = 29;\n";

    // Leaf functions: straight-line arithmetic with varied arity and
    // varied local counts (so register assignment and frame shapes
    // differ across the pool, as they do in real compiled code).
    std::vector<int> leaf_arity(spec.leafFuncs);
    for (int j = 0; j < spec.leafFuncs; ++j) {
        int arity = 1 + static_cast<int>(rng.below(3));
        leaf_arity[j] = arity;
        std::vector<std::string> vars;
        src += "int " + leaf(j) + "(";
        for (int a = 0; a < arity; ++a) {
            std::string p(1, static_cast<char>('a' + a));
            if (a)
                src += ", ";
            src += "int " + p;
            vars.push_back(p);
        }
        src += ") {\n";
        int locals = 1 + static_cast<int>(rng.below(4));
        for (int v = 0; v < locals; ++v) {
            std::string name = "t";
            name += std::to_string(v);
            src += "    int " + name + " = " +
                   randExpr(rng, vars, spec.exprDepth - 1) + ";\n";
            vars.push_back(name);
        }
        for (int stmt = 0; stmt < spec.stmtsPerLeaf; ++stmt) {
            const std::string &dst =
                vars[arity + rng.below(vars.size() - arity)];
            src += "    " + dst + " = " +
                   randExpr(rng, vars, spec.exprDepth) + ";\n";
        }
        src += "    return " + randExpr(rng, vars, 1) + ";\n}\n";
    }

    // Mid functions: loop over an array, mixing stores, loads, leaf
    // calls, and guarded updates. A random prefix of extra locals (and
    // an occasional scratch array) varies frames and register homes.
    for (int j = 0; j < spec.midFuncs; ++j) {
        int a0 = static_cast<int>(rng.below(spec.arrays));
        int a1 = static_cast<int>(rng.below(spec.arrays));
        src += "int " + mid(j) + "(int n) {\n";
        std::vector<std::string> vars = {"n"};
        int extras = static_cast<int>(rng.below(4));
        for (int e = 0; e < extras; ++e) {
            std::string name = "u";
            name += std::to_string(e);
            src += "    int " + name + " = " +
                   std::to_string(rng.range(-9, 99)) + ";\n";
            vars.push_back(name);
        }
        bool has_buf = rng.chance(1, 4);
        int buf_len = 4 + static_cast<int>(rng.below(12));
        if (has_buf)
            src += "    int buf[" + std::to_string(buf_len) + "];\n";
        src += "    int i;\n    int acc = " +
               std::to_string(rng.range(1, 97)) + ";\n";
        vars.push_back("i");
        vars.push_back("acc");
        src += "    for (i = 0; i < " + std::to_string(spec.loopTrip) +
               "; i = i + 1) {\n";
        src += "        " + arr(a0) + "[i] = " +
               randExpr(rng, vars, spec.exprDepth - 1) + ";\n";
        if (has_buf)
            src += "        buf[i % " + std::to_string(buf_len) +
                   "] = acc;\n";
        for (int stmt = 0; stmt < spec.stmtsPerMid; ++stmt) {
            switch (rng.below(5)) {
              case 0:
                src += "        acc = acc + " + arr(a1) + "[i];\n";
                break;
              case 1:
                if (spec.leafFuncs > 0) {
                    int target =
                        static_cast<int>(rng.below(spec.leafFuncs));
                    src += "        acc = acc + " + leaf(target) +
                           randArgs(rng, vars, leaf_arity[target]) + ";\n";
                    break;
                }
                [[fallthrough]];
              case 2:
                src += "        if (acc > " +
                       std::to_string(rng.range(512, 4096)) +
                       ") acc = acc - " +
                       std::to_string(rng.range(100, 999)) + ";\n";
                break;
              case 3:
                if (!vars.empty()) {
                    const std::string &dst = vars[rng.below(vars.size())];
                    if (dst != "i" && dst != "n") {
                        src += "        " + dst + " = " +
                               randExpr(rng, vars, spec.exprDepth) + ";\n";
                        break;
                    }
                }
                [[fallthrough]];
              default:
                src += "        acc = " +
                       randExpr(rng, vars, spec.exprDepth) + ";\n";
                break;
            }
        }
        src += "    }\n";
        if (has_buf)
            src += "    acc = acc + buf[" +
                   std::to_string(rng.below(buf_len)) + "];\n";
        src += "    " + prefix + "_g0 = " + prefix + "_g0 + acc;\n";
        src += "    return acc + " + prefix + "_g1;\n}\n";
    }

    // Dispatchers: dense switches over the mid pool.
    for (int j = 0; j < spec.dispatchFuncs; ++j) {
        src += "int " + dispatch(j) + "(int sel, int n) {\n";
        src += "    switch (sel) {\n";
        for (int c = 0; c < spec.switchCases; ++c) {
            int target = spec.midFuncs > 0
                             ? static_cast<int>(rng.below(spec.midFuncs))
                             : -1;
            src += "      case " + std::to_string(c) + ": return ";
            if (target >= 0)
                src += mid(target) + "(n + " + std::to_string(c) + ");\n";
            else
                src += "n + " + std::to_string(c * 3 + 1) + ";\n";
        }
        src += "      default: return n;\n    }\n}\n";
    }

    // Statements for main().
    std::string it = prefix + "_it";
    out.mainStmts += "    for (" + it + " = 0; " + it + " < " +
                     std::to_string(iters) + "; " + it + " = " + it +
                     " + 1) {\n";
    for (int j = 0; j < spec.dispatchFuncs; ++j)
        out.mainStmts += "        acc = rt_checksum(acc, " + dispatch(j) +
                         "(" + it + " % " +
                         std::to_string(spec.switchCases) + ", " + it +
                         "));\n";
    out.mainStmts += "    }\n";
    return out;
}

std::string
bigLoopFunction(const std::string &name, int stmts, uint64_t seed)
{
    Rng rng(seed);
    std::string src = "int " + name + "(int n) {\n";
    src += "    int x = n;\n    int y = 7;\n    int z = 13;\n";
    src += "    int i = 0;\n";
    src += "    while (i < 2) {\n";
    for (int stmt = 0; stmt < stmts; ++stmt) {
        switch (rng.below(5)) {
          case 0:
            src += "        x = x * " + std::to_string(rng.range(3, 31)) +
                   " + " + std::to_string(rng.range(1, 255)) + ";\n";
            break;
          case 1:
            src += "        y = y ^ (x >> " +
                   std::to_string(rng.range(1, 7)) + ");\n";
            break;
          case 2:
            src += "        z = (z + y) & " +
                   std::to_string(rng.range(255, 16383)) + ";\n";
            break;
          case 3:
            src += "        x = x - (z | " +
                   std::to_string(rng.range(1, 127)) + ");\n";
            break;
          default:
            src += "        y = y + x + z;\n";
            break;
        }
    }
    src += "        i = i + 1;\n    }\n";
    src += "    return x + y + z;\n}\n";
    return src;
}

} // namespace codecomp::workloads
