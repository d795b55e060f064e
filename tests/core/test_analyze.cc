/**
 * @file
 * Tests for the IR static analyzer: one deliberately broken model per
 * check family (asserting the exact check id), the suppression /
 * severity-override API, the shared constant folder and bound
 * analysis, and clean-corpus runs over the shipped tile and mesh
 * designs (which must produce zero errors).
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>

#include "core/analyze.h"
#include "core/lint.h"
#include "net/mesh.h"
#include "test_models.h"
#include "tile/cache.h"
#include "tile/dotprod.h"
#include "tile/proc.h"
#include "tile/tile.h"

namespace cmtl {
namespace {

bool
hasCheck(const std::vector<LintIssue> &issues, const std::string &check)
{
    for (const auto &issue : issues)
        if (issue.check == check)
            return true;
    return false;
}

const LintIssue *
findCheck(const std::vector<LintIssue> &issues, const std::string &check)
{
    for (const auto &issue : issues)
        if (issue.check == check)
            return &issue;
    return nullptr;
}

int
countErrors(const std::vector<LintIssue> &issues)
{
    int n = 0;
    for (const auto &issue : issues)
        if (issue.severity == LintSeverity::Error)
            ++n;
    return n;
}

// ------------------------------------------------- broken models

/** Comb if without else: 'out' holds its value when en is low. */
struct LatchModel : Model
{
    InPort en;
    OutPort out;

    LatchModel() : Model(nullptr, "top"), en(this, "en", 1),
                   out(this, "out", 8)
    {
        auto &b = combinational("comb");
        b.if_(rd(en), [&] { b.assign(out, 1); });
    }
};

TEST(Analyze, LatchInferredInCombWithoutElse)
{
    LatchModel top;
    auto elab = top.elaborate();
    auto issues = analyzeIr(*elab);

    const LintIssue *issue = findCheck(issues, "latch-inferred");
    ASSERT_NE(issue, nullptr) << LintTool::format(issues);
    EXPECT_EQ(issue->severity, LintSeverity::Error);
    // The finding names the signal and the offending path.
    EXPECT_NE(issue->message.find("top.out"), std::string::npos)
        << issue->message;
    EXPECT_NE(issue->message.find("top.en"), std::string::npos)
        << issue->message;
}

TEST(Analyze, NoLatchWhenBothBranchesAssign)
{
    struct M : Model
    {
        InPort en;
        OutPort out;
        M() : Model(nullptr, "top"), en(this, "en", 1),
              out(this, "out", 8)
        {
            auto &b = combinational("comb");
            b.if_(rd(en), [&] { b.assign(out, 1); },
                  [&] { b.assign(out, 2); });
        }
    } top;
    auto issues = analyzeIr(*top.elaborate());
    EXPECT_FALSE(hasCheck(issues, "latch-inferred"))
        << LintTool::format(issues);
}

TEST(Analyze, DefaultBeforeIfPreventsLatch)
{
    struct M : Model
    {
        InPort en;
        OutPort out;
        M() : Model(nullptr, "top"), en(this, "en", 1),
              out(this, "out", 8)
        {
            auto &b = combinational("comb");
            b.assign(out, 0);
            b.if_(rd(en), [&] { b.assign(out, 1); });
        }
    } top;
    auto issues = analyzeIr(*top.elaborate());
    EXPECT_FALSE(hasCheck(issues, "latch-inferred"))
        << LintTool::format(issues);
}

TEST(Analyze, SequentialBlocksNeverInferLatches)
{
    // Partial assignment is the whole point of sequential state.
    testmodels::Counter top(nullptr, "top", 8);
    auto issues = analyzeIr(*top.elaborate());
    EXPECT_FALSE(hasCheck(issues, "latch-inferred"))
        << LintTool::format(issues);
}

/** Swaps the temp definition after its use. */
struct TempOrderModel : Model
{
    InPort in_;
    OutPort out;

    TempOrderModel() : Model(nullptr, "top"), in_(this, "in_", 8),
                       out(this, "out", 8)
    {
        auto &b = combinational("comb");
        IrExpr t = b.let("t", rd(in_));
        b.assign(out, t);
        std::swap(b.block()->stmts[0], b.block()->stmts[1]);
    }
};

TEST(Analyze, TempReadBeforeWrite)
{
    TempOrderModel top;
    auto issues = analyzeIr(*top.elaborate());
    const LintIssue *issue = findCheck(issues, "temp-read-before-write");
    ASSERT_NE(issue, nullptr) << LintTool::format(issues);
    EXPECT_EQ(issue->severity, LintSeverity::Error);
    EXPECT_NE(issue->message.find("'t'"), std::string::npos)
        << issue->message;
}

TEST(Analyze, CombReadOfOwnWriteBeforeAssignment)
{
    struct M : Model
    {
        InPort in_;
        OutPort mid, out;
        M() : Model(nullptr, "top"), in_(this, "in_", 8),
              mid(this, "mid", 8), out(this, "out", 8)
        {
            auto &b = combinational("comb");
            b.assign(out, rd(mid)); // reads mid before writing it
            b.assign(mid, rd(in_));
        }
    } top;
    auto issues = analyzeIr(*top.elaborate());
    const LintIssue *issue = findCheck(issues, "comb-read-own-write");
    ASSERT_NE(issue, nullptr) << LintTool::format(issues);
    EXPECT_EQ(issue->severity, LintSeverity::Warning);
    EXPECT_NE(issue->message.find("top.mid"), std::string::npos)
        << issue->message;
}

TEST(Analyze, CombReadAfterOwnWriteIsClean)
{
    struct M : Model
    {
        InPort in_;
        OutPort mid, out;
        M() : Model(nullptr, "top"), in_(this, "in_", 8),
              mid(this, "mid", 8), out(this, "out", 8)
        {
            auto &b = combinational("comb");
            b.assign(mid, rd(in_));
            b.assign(out, rd(mid)); // mid fully assigned by now
        }
    } top;
    auto issues = analyzeIr(*top.elaborate());
    EXPECT_FALSE(hasCheck(issues, "comb-read-own-write"))
        << LintTool::format(issues);
}

/** Hand-builds a slice the IrExpr API would reject at build time. */
struct BadSliceModel : Model
{
    InPort in_;
    OutPort out;

    BadSliceModel() : Model(nullptr, "top"), in_(this, "in_", 8),
                      out(this, "out", 4)
    {
        auto &b = combinational("comb");
        IrNode n;
        n.kind = IrKind::Slice;
        n.nbits = 4;
        n.aux = 6; // bits [9:6] of an 8-bit operand
        n.arg[0] = rd(in_).view().id();
        b.assign(out, IrExpr(irArena(), irArena().add(n)));
    }
};

TEST(Analyze, SliceOutOfRange)
{
    BadSliceModel top;
    auto issues = analyzeIr(*top.elaborate());
    const LintIssue *issue = findCheck(issues, "slice-out-of-range");
    ASSERT_NE(issue, nullptr) << LintTool::format(issues);
    EXPECT_EQ(issue->severity, LintSeverity::Error);
}

TEST(Analyze, ConstantIndexBeyondDepthIsError)
{
    struct M : Model
    {
        OutPort out;
        MemArray arr;
        M() : Model(nullptr, "top"), out(this, "out", 8),
              arr(this, "arr", 8, 4)
        {
            auto &b = combinational("comb");
            b.assign(out, aread(arr, lit(3, 7))); // depth is 4
        }
    } top;
    auto issues = analyzeIr(*top.elaborate());
    const LintIssue *issue = findCheck(issues, "index-out-of-range");
    ASSERT_NE(issue, nullptr) << LintTool::format(issues);
    EXPECT_EQ(issue->severity, LintSeverity::Error);
}

TEST(Analyze, WideIndexMayExceedDepthIsWarning)
{
    struct M : Model
    {
        InPort idx;
        OutPort out;
        MemArray arr;
        M() : Model(nullptr, "top"), idx(this, "idx", 3),
              out(this, "out", 8), arr(this, "arr", 8, 4)
        {
            auto &b = combinational("comb");
            b.assign(out, aread(arr, rd(idx))); // bound 7 >= depth 4
        }
    } top;
    auto issues = analyzeIr(*top.elaborate());
    const LintIssue *issue = findCheck(issues, "index-may-exceed");
    ASSERT_NE(issue, nullptr) << LintTool::format(issues);
    EXPECT_EQ(issue->severity, LintSeverity::Warning);
    EXPECT_FALSE(hasCheck(issues, "index-out-of-range"));
}

TEST(Analyze, NarrowedIndexIsClean)
{
    struct M : Model
    {
        InPort idx;
        OutPort out;
        MemArray arr;
        M() : Model(nullptr, "top"), idx(this, "idx", 8),
              out(this, "out", 8), arr(this, "arr", 8, 4)
        {
            auto &b = combinational("comb");
            // Slicing down to 2 bits proves the index is in range.
            b.assign(out, aread(arr, rd(idx).slice(0, 2)));
        }
    } top;
    auto issues = analyzeIr(*top.elaborate());
    EXPECT_FALSE(hasCheck(issues, "index-may-exceed"))
        << LintTool::format(issues);
    EXPECT_FALSE(hasCheck(issues, "index-out-of-range"));
}

TEST(Analyze, TruncatingAssignIsFlaggedWithWidths)
{
    struct M : Model
    {
        InPort in_;
        OutPort out;
        M() : Model(nullptr, "top"), in_(this, "in_", 8),
              out(this, "out", 4)
        {
            auto &b = combinational("comb");
            b.assign(out, rd(in_)); // 8-bit value into 4-bit target
        }
    } top;
    auto issues = analyzeIr(*top.elaborate());
    const LintIssue *issue = findCheck(issues, "lossy-truncation");
    ASSERT_NE(issue, nullptr) << LintTool::format(issues);
    EXPECT_EQ(issue->severity, LintSeverity::Warning);
    EXPECT_NE(issue->message.find("8-bit"), std::string::npos)
        << issue->message;
    EXPECT_NE(issue->message.find("4 bits"), std::string::npos)
        << issue->message;
}

TEST(Analyze, ProvablyFittingAssignIsNotTruncation)
{
    struct M : Model
    {
        InPort in_;
        OutPort out;
        M() : Model(nullptr, "top"), in_(this, "in_", 8),
              out(this, "out", 4)
        {
            auto &b = combinational("comb");
            // Value bound 15 fits 4 bits even though widths differ.
            b.assign(out, rd(in_) & lit(8, 0xf));
        }
    } top;
    auto issues = analyzeIr(*top.elaborate());
    EXPECT_FALSE(hasCheck(issues, "lossy-truncation"))
        << LintTool::format(issues);
}

TEST(Analyze, ConstantFalseBranchIsDeadLogic)
{
    struct M : Model
    {
        InPort x;
        OutPort out;
        explicit M(bool short_circuit)
            : Model(nullptr, "top"), x(this, "x", 1), out(this, "out", 8)
        {
            auto &b = combinational("comb");
            // A false operand settles && whatever the other one reads.
            b.if_(short_circuit ? (lit(1, 0) && rd(x)) : lit(1, 0),
                  [&] { b.assign(out, 1); }, [&] { b.assign(out, 2); });
        }
    };
    for (bool short_circuit : {false, true}) {
        M top(short_circuit);
        auto issues = analyzeIr(*top.elaborate());
        const LintIssue *issue = findCheck(issues, "constant-condition");
        ASSERT_NE(issue, nullptr)
            << short_circuit << "\n" << LintTool::format(issues);
        EXPECT_EQ(issue->severity, LintSeverity::Warning);
        // The dead 'then' branch must not count as a missing assignment.
        EXPECT_FALSE(hasCheck(issues, "latch-inferred"))
            << LintTool::format(issues);
    }
}

TEST(Analyze, ConstantTrueSingleArmIfDoesNotLatch)
{
    struct M : Model
    {
        OutPort out;
        M() : Model(nullptr, "top"), out(this, "out", 8)
        {
            auto &b = combinational("comb");
            b.if_(lit(1, 1), [&] { b.assign(out, 1); });
        }
    } top;
    auto issues = analyzeIr(*top.elaborate());
    EXPECT_TRUE(hasCheck(issues, "constant-condition"))
        << LintTool::format(issues);
    // Condition is always true, so 'out' is assigned on every path.
    EXPECT_FALSE(hasCheck(issues, "latch-inferred"))
        << LintTool::format(issues);
}

TEST(Analyze, NonblockingAssignInCombIsError)
{
    struct M : Model
    {
        InPort in_;
        OutPort out;
        BlockBuilder *b = nullptr;
        M() : Model(nullptr, "top"), in_(this, "in_", 8),
              out(this, "out", 8)
        {
            b = &combinational("comb");
            b->assign(out, rd(in_));
        }
    } top;
    auto elab = top.elaborate();
    // The builder cannot produce this; corrupt the IR directly.
    top.b->block()->stmts[0].nonblocking = true;
    auto issues = analyzeIr(*elab);
    const LintIssue *issue = findCheck(issues, "nonblocking-in-comb");
    ASSERT_NE(issue, nullptr) << LintTool::format(issues);
    EXPECT_EQ(issue->severity, LintSeverity::Error);
}

TEST(Analyze, BlockingAssignInSeqIsError)
{
    struct M : Model
    {
        InPort in_;
        OutPort out;
        BlockBuilder *b = nullptr;
        M() : Model(nullptr, "top"), in_(this, "in_", 8),
              out(this, "out", 8)
        {
            b = &tickRtl("seq");
            b->assign(out, rd(in_));
        }
    } top;
    auto elab = top.elaborate();
    top.b->block()->stmts[0].nonblocking = false;
    auto issues = analyzeIr(*elab);
    const LintIssue *issue = findCheck(issues, "blocking-in-seq");
    ASSERT_NE(issue, nullptr) << LintTool::format(issues);
    EXPECT_EQ(issue->severity, LintSeverity::Error);
}

TEST(Analyze, ArrayWriteInCombIsError)
{
    struct M : Model
    {
        InPort in_;
        MemArray arr;
        BlockBuilder *b = nullptr;
        M() : Model(nullptr, "top"), in_(this, "in_", 8),
              arr(this, "arr", 8, 4)
        {
            b = &tickRtl("seq");
            b->writeArray(arr, lit(2, 0), rd(in_));
        }
    } top;
    auto elab = top.elaborate();
    // writeArray is seq-only at build time; flip the block after.
    top.b->block()->sequential = false;
    auto issues = analyzeIr(*elab);
    const LintIssue *issue = findCheck(issues, "awrite-in-comb");
    ASSERT_NE(issue, nullptr) << LintTool::format(issues);
    EXPECT_EQ(issue->severity, LintSeverity::Error);
}

// ------------------------------------------- suppression / severity

TEST(AnalyzeOptions, SuppressDropsAllFindingsOfACheck)
{
    LatchModel top;
    auto elab = top.elaborate();
    ASSERT_TRUE(hasCheck(analyzeIr(*elab), "latch-inferred"));

    AnalyzeOptions options;
    options.suppress("latch-inferred");
    EXPECT_FALSE(hasCheck(analyzeIr(*elab, options), "latch-inferred"));
}

TEST(AnalyzeOptions, SeverityOverridePromotesWarningToError)
{
    struct M : Model
    {
        InPort in_;
        OutPort out;
        M() : Model(nullptr, "top"), in_(this, "in_", 8),
              out(this, "out", 4)
        {
            auto &b = combinational("comb");
            b.assign(out, rd(in_));
        }
    } top;
    auto elab = top.elaborate();

    AnalyzeOptions options;
    options.setSeverity("lossy-truncation", LintSeverity::Error);
    auto issues = analyzeIr(*elab, options);
    const LintIssue *issue = findCheck(issues, "lossy-truncation");
    ASSERT_NE(issue, nullptr);
    EXPECT_EQ(issue->severity, LintSeverity::Error);
}

TEST(AnalyzeOptions, LintToolForwardsSuppressionToStructuralChecks)
{
    // A floating wire trips undriven-net unless suppressed.
    struct M : Model
    {
        Wire w;
        OutPort out;
        M() : Model(nullptr, "top"), w(this, "w", 8),
              out(this, "out", 8)
        {
            auto &b = combinational("comb");
            b.assign(out, rd(w));
        }
    } top;
    auto elab = top.elaborate();
    ASSERT_TRUE(hasCheck(LintTool().run(*elab), "undriven-net"));

    LintTool quiet;
    quiet.suppress("undriven-net");
    EXPECT_FALSE(hasCheck(quiet.run(*elab), "undriven-net"));
}

TEST(AnalyzeOptions, CatalogCoversEveryEmittedCheckId)
{
    // Every catalog entry has a non-empty id and summary, and ids are
    // unique — the suppression API is keyed on them.
    std::set<std::string> seen;
    for (const AnalyzeCheck &check : analyzeCheckCatalog()) {
        ASSERT_NE(check.id, nullptr);
        EXPECT_FALSE(std::string(check.id).empty());
        EXPECT_FALSE(std::string(check.summary).empty());
        EXPECT_TRUE(seen.insert(check.id).second)
            << "duplicate check id " << check.id;
    }
    EXPECT_GE(seen.size(), 11u);
}

// ------------------------------------------------- hierarchical nets

TEST(Analyze, StructuralFindingsNameHierarchicalPath)
{
    struct M : Model
    {
        OutPort out;
        testmodels::Register reg_;
        M() : Model(nullptr, "top"), out(this, "out", 8),
              reg_(this, "reg_", 8)
        {
            connect(reg_.out, out); // reg_.in_ left floating
        }
    } top;
    auto elab = top.elaborate();
    auto issues = LintTool().run(*elab);
    const LintIssue *issue = findCheck(issues, "undriven-net");
    ASSERT_NE(issue, nullptr) << LintTool::format(issues);
    // The finding reports the net's hierarchical model path.
    EXPECT_NE(issue->message.find("top.reg_.in_"), std::string::npos)
        << issue->message;
}

// --------------------------------------------- const fold / bounds

TEST(ConstFold, FoldsArithmeticWithSimulatorSemantics)
{
    auto v = irConstFold((lit(8, 3) + lit(8, 4)).view());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->toUint64(), 7u);

    // Wrap-around must match the simulator, not host arithmetic.
    v = irConstFold((lit(8, 255) + lit(8, 1)).view());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->toUint64(), 0u);

    v = irConstFold((lit(8, 5) == lit(8, 5)).view());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->nbits(), 1);
    EXPECT_EQ(v->toUint64(), 1u);

    v = irConstFold(mux(lit(1, 0), lit(8, 1), lit(8, 2)).view());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->toUint64(), 2u);
}

TEST(ConstFold, DoesNotFoldRuntimeState)
{
    struct M : Model
    {
        InPort in_;
        MemArray arr;
        M() : Model(nullptr, "top"), in_(this, "in_", 8),
              arr(this, "arr", 8, 4)
        {}
    } top;
    EXPECT_FALSE(irConstFold(rd(top.in_).view()).has_value());
    EXPECT_FALSE(
        irConstFold((rd(top.in_) + lit(8, 1)).view()).has_value());
    EXPECT_FALSE(
        irConstFold(aread(top.arr, lit(2, 0)).view()).has_value());
}

TEST(ConstFold, ReadsTheBoundResetNetAsOne)
{
    struct M : Model
    {
        InPort in_;
        M() : Model(nullptr, "top"), in_(this, "in_", 1) {}
    } top;
    auto elab = top.elaborate();
    const int r = top.reset.netId();
    EXPECT_FALSE(irConstFold(rd(top.reset).view()).has_value());
    auto v = irConstFold(rd(top.reset).view(), r);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->toUint64(), 1u);
    // Only the bound net folds.
    EXPECT_FALSE(irConstFold(rd(top.in_).view(), r).has_value());
    EXPECT_FALSE(
        irConstFold((rd(top.reset) && rd(top.in_)).view(), r).has_value());

    // One decisive operand settles || and &&.
    v = irConstFold((rd(top.reset) || rd(top.in_)).view(), r);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->toUint64(), 1u);
    v = irConstFold((rd(top.in_) && !rd(top.reset)).view(), r);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->toUint64(), 0u);

    // Concatenations fold; a mux's narrower arm is zero-extended.
    v = irConstFold(cat(rd(top.reset), lit(1, 0)).view(), r);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->toUint64(), 2u);
    v = irConstFold((~mux(rd(top.reset), lit(1, 1), lit(2, 0))).view(), r);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->nbits(), 2);
    EXPECT_EQ(v->toUint64(), 2u);
}

TEST(MaxBound, TracksConstantsWidthsAndRefinements)
{
    struct M : Model
    {
        InPort narrow, wide;
        M() : Model(nullptr, "top"), narrow(this, "narrow", 3),
              wide(this, "wide", 8)
        {}
    } top;

    // A literal is a node once it joins a tree.
    EXPECT_EQ(irMaxBound((rd(top.wide) + lit(8, 5)).view().arg(1)), 5u);
    EXPECT_EQ(irMaxBound(rd(top.narrow).view()), 7u);
    EXPECT_EQ(irMaxBound(rd(top.wide).view()), 255u);
    // Slices and masks tighten the bound below the width's maximum.
    EXPECT_EQ(irMaxBound(rd(top.wide).slice(0, 2).view()), 3u);
    EXPECT_EQ(irMaxBound((rd(top.wide) & lit(8, 0x7)).view()), 7u);
    // Comparisons are 1-bit.
    EXPECT_EQ(irMaxBound((rd(top.wide) == lit(8, 3)).view()), 1u);
}

// ------------------------------------------------- clean corpus

void
expectErrorFree(Model &model, const char *what)
{
    auto elab = model.elaborate();
    auto issues = LintTool().run(*elab);
    std::vector<LintIssue> errors;
    for (const auto &issue : issues)
        if (issue.severity == LintSeverity::Error)
            errors.push_back(issue);
    EXPECT_EQ(countErrors(issues), 0)
        << what << ":\n" << LintTool::format(errors);
}

TEST(AnalyzeCorpus, TileIsErrorFreeAtEveryLevel)
{
    {
        tile::Tile t("tile_fl", tile::Level::FL, tile::Level::FL,
                     tile::Level::FL);
        expectErrorFree(t, "tile FL");
    }
    {
        tile::Tile t("tile_cl", tile::Level::CL, tile::Level::CL,
                     tile::Level::CL);
        expectErrorFree(t, "tile CL");
    }
    {
        tile::Tile t("tile_rtl", tile::Level::RTL, tile::Level::RTL,
                     tile::Level::RTL);
        expectErrorFree(t, "tile RTL");
    }
}

TEST(AnalyzeCorpus, RtlComponentsAreErrorFree)
{
    {
        tile::CacheRTL c(nullptr, "cache", 16);
        expectErrorFree(c, "CacheRTL");
    }
    {
        tile::DotProductRTL d(nullptr, "dotprod");
        expectErrorFree(d, "DotProductRTL");
    }
    {
        tile::ProcRTL p(nullptr, "proc");
        expectErrorFree(p, "ProcRTL");
    }
    {
        tile::ProcRTL5 p(nullptr, "proc5");
        expectErrorFree(p, "ProcRTL5");
    }
}

TEST(AnalyzeCorpus, MeshNetworkIsErrorFree)
{
    net::MeshNetworkRTL mesh(nullptr, "mesh", 4, 16, 16, 2);
    expectErrorFree(mesh, "MeshNetworkRTL 2x2");
}

} // namespace
} // namespace cmtl
