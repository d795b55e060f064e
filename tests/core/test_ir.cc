#include <gtest/gtest.h>

#include <stdlib.h>

#include <deque>
#include <filesystem>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <thread>

#include "core/ir_bytecode.h"
#include "core/ir_cpp.h"
#include "core/jit_cpp.h"
#include "core/psim.h"
#include "core/sim.h"
#include "core/snap.h"
#include "net/traffic.h"
#include "test_models.h"

namespace cmtl {
namespace {

TEST(IrBuild, ExpressionWidthRules)
{
    testmodels::Register owner(nullptr, "m", 8);
    IrExpr a = rd(owner.in_);
    IrExpr b = lit(16, 0x1234);
    EXPECT_EQ((a + b).nbits(), 16); // max of operand widths
    EXPECT_EQ((a == b).nbits(), 1);
    EXPECT_EQ((a < b).nbits(), 1);
    EXPECT_EQ((a << b).nbits(), 8); // lhs width
    EXPECT_EQ((a && b).nbits(), 1);
    EXPECT_EQ((~a).nbits(), 8);
    EXPECT_EQ((!a).nbits(), 1);
    EXPECT_EQ(a.reduceXor().nbits(), 1);
    EXPECT_EQ(a.slice(2, 3).nbits(), 3);
    EXPECT_EQ(a(7, 4).nbits(), 4);
    EXPECT_EQ(a.bit(0).nbits(), 1);
    EXPECT_EQ(cat(a, b).nbits(), 24);
    EXPECT_EQ(mux(a == b, a, b).nbits(), 16);
    EXPECT_EQ(a.zext(20).nbits(), 20);
    EXPECT_EQ(a.sext(20).nbits(), 20);
}

TEST(IrBuild, SliceBoundsChecked)
{
    testmodels::Register owner(nullptr, "m", 8);
    IrExpr a = rd(owner.in_);
    EXPECT_THROW(a.slice(6, 4), std::out_of_range);
    EXPECT_THROW(a.slice(-1, 2), std::out_of_range);
}

TEST(IrBuild, InvalidExprRejected)
{
    testmodels::Register owner(nullptr, "m", 8);
    IrExpr bad;
    EXPECT_THROW(bad + rd(owner.in_), std::invalid_argument);
    EXPECT_THROW(mux(bad, rd(owner.in_), rd(owner.in_)),
                 std::invalid_argument);
}

TEST(IrBuild, AccessCollection)
{
    testmodels::MuxReg top(nullptr, "top", 8, 4);
    const IrBlock &comb = *top.mux_.ownIrBlocks().front();
    const IrBlockSummary sum = irSummarize(comb);
    EXPECT_EQ(sum.writes.size(), 1u);
    EXPECT_EQ(sum.writes[0], &top.mux_.out);
    EXPECT_EQ(sum.reads.size(), 5u); // sel + 4 inputs
}

TEST(IrBuild, LeafUsesAddNoNode)
{
    testmodels::Register owner(nullptr, "m", 8);
    const IrArena &arena = owner.irArena();
    const IrView in = rd(owner.in_).view();
    const IrView out = rd(owner.out).view();
    const size_t size = arena.size();
    EXPECT_EQ(in.arena(), &arena);
    EXPECT_EQ(in.kind(), IrKind::Ref);
    EXPECT_EQ(in.sig(), &owner.in_);
    EXPECT_EQ(rd(owner.in_).view().id(), in.id());
    EXPECT_EQ(rd(owner.out).view().id(), out.id());
    EXPECT_NE(in.id(), out.id());
    EXPECT_EQ(arena.size(), size);
    // A literal stays in its handle until it joins a tree.
    EXPECT_FALSE(lit(4, 3).view());
    EXPECT_FALSE(lit(40, 1000).view());
    EXPECT_EQ(arena.size(), size);
    // An operator adds its own node and its literal, and reads add none.
    const IrView sum = (rd(owner.in_) + lit(40, 1000)).view();
    EXPECT_EQ(arena.size(), size + 2);
    EXPECT_EQ(sum.arg(0).id(), in.id());
    EXPECT_EQ(sum.arg(1).value(), Bits(40, 1000));
    // A small narrow constant's node is shared from its second use on;
    // a larger one is made per use.
    const IrView three = (rd(owner.in_) + lit(8, 3)).view().arg(1);
    EXPECT_EQ(arena.size(), size + 4);
    EXPECT_EQ((rd(owner.out) - lit(8, 3)).view().arg(1).id(), three.id());
    EXPECT_EQ(arena.size(), size + 5);
    EXPECT_NE((rd(owner.out) - lit(7, 3)).view().arg(1).id(), three.id());
    EXPECT_NE((rd(owner.out) - lit(40, 1000)).view().arg(1).id(),
              sum.arg(1).id());
    EXPECT_EQ((rd(owner.in_) ^ lit(2, 5)).view().arg(1).value(), Bits(2, 1));
    const Bits wide = Bits::fromString(100, "0x123456789abcdef0123");
    EXPECT_EQ(cat(rd(owner.in_), lit(wide)).view().arg(1).value(), wide);
}

/** Builds a 4x4 RTL mesh; returns its arena size and its blocks' text. */
std::pair<size_t, std::string>
meshIr()
{
    net::MeshTrafficTop top("top", net::NetLevel::RTL, 16, 4, 0.30, 1);
    std::string text;
    auto elab = top.elaborate();
    for (const ElabBlock &blk : elab->blocks) {
        if (blk.ir)
            text += irToString(*blk.ir);
    }
    return {top.irArena().size(), text};
}

TEST(IrBuild, TreesBuildOnSeveralThreadsAtOnce)
{
    // Models may be built on several threads at once (SimServer jobs).
    // Each tree builds into its own arena, so each gets what one
    // thread alone builds: the same nodes and the same blocks.
    const std::pair<size_t, std::string> want = meshIr();
    std::vector<std::pair<size_t, std::string>> seen(4);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < seen.size(); ++i)
        threads.emplace_back([&seen, i] { seen[i] = meshIr(); });
    for (std::thread &t : threads)
        t.join();
    for (const auto &got : seen) {
        EXPECT_EQ(got.first, want.first);
        EXPECT_EQ(got.second, want.second);
    }
}

/** A child builds an expression over its port; its parent assigns it. */
class ChildExprTop : public Model
{
  public:
    struct Child : Model
    {
        InPort a;
        IrExpr plus1;

        explicit Child(Model *parent)
            : Model(parent, "child"), a(this, "a", 8), plus1(rd(a) + 1)
        {}
    };

    InPort x;
    OutPort out;
    Child child;

    ChildExprTop()
        : Model(nullptr, "top"), x(this, "x", 8), out(this, "out", 8),
          child(this)
    {
        connect(x, child.a);
        combinational("comb").assign(out, child.plus1 ^ rd(x));
    }
};

TEST(IrArena, ChildExpressionAssignedInTheParent)
{
    for (const char *backend : {"interp", "optinterp", "bytecode"}) {
        ChildExprTop top;
        EXPECT_EQ(&top.child.irArena(), &top.irArena());
        auto sim =
            makeSimulator(top.elaborate(), SimConfig::fromString(backend));
        for (uint64_t v : {0x00, 0x11, 0xff}) {
            top.x.setValue(v);
            sim->eval();
            EXPECT_EQ(top.out.u64(), ((v + 1) & 0xff) ^ v)
                << backend << " x=" << v;
        }
    }
}

/** Assigns expressions built before it, outside any model tree. */
class ConstOnlyTop : public Model
{
  public:
    OutPort narrow, wide;

    ConstOnlyTop(const IrExpr &n, const IrExpr &w)
        : Model(nullptr, "top"), narrow(this, "narrow", 8),
          wide(this, "wide", 72)
    {
        auto &c = combinational("comb");
        c.assign(narrow, n);
        c.assign(wide, w);
    }
};

TEST(IrArena, ConstantOnlyExpressionsBuild)
{
    const IrExpr n = ((lit(8, 3) + lit(8, 4)) ^ lit(8, 1)).zext(8);
    const Bits big = Bits::fromString(70, "0x2a0000000000000001");
    const IrExpr w = cat(lit(big), lit(2, 1));
    EXPECT_EQ(n.nbits(), 8);
    EXPECT_EQ(w.nbits(), 72);
    // They belong to no tree, so two trees may both use them.
    for (const char *backend : {"interp", "optinterp", "bytecode"}) {
        ConstOnlyTop top(n, w);
        auto sim =
            makeSimulator(top.elaborate(), SimConfig::fromString(backend));
        sim->eval();
        EXPECT_EQ(top.narrow.u64(), 6u) << backend;
        EXPECT_EQ(top.wide.value(), concat(big, Bits(2, 1))) << backend;
    }
}

TEST(IrArena, JoiningTwoTreesThrows)
{
    testmodels::Register a(nullptr, "a", 8);
    testmodels::Register b(nullptr, "b", 8);
    EXPECT_THROW(rd(a.in_) + rd(b.in_), std::logic_error);
    EXPECT_THROW(mux(rd(a.in_).bit(0), lit(8, 1), rd(b.in_)),
                 std::logic_error);
    EXPECT_THROW(cat({rd(a.in_), lit(4, 1), rd(b.in_)}), std::logic_error);
    EXPECT_THROW(a.combinational("late").assign(a.out, rd(b.in_)),
                 std::logic_error);
    // A constant-only operand joins either tree.
    EXPECT_NO_THROW(rd(a.in_) + (lit(8, 1) + lit(8, 2)));
    EXPECT_NO_THROW(rd(b.in_) + (lit(8, 1) + lit(8, 2)));
}

TEST(IrArena, MeshNodesAreInTopologicalOrder)
{
    net::MeshTrafficTop top("top", net::NetLevel::RTL, 256, 4, 0.30, 1);
    const IrArena &arena = top.irArena();
    // 26,880 Ref nodes, 28 shared constants and 1,280 temps among
    // them; every node is reachable from some block.
    EXPECT_EQ(arena.size(), 238108u);
    for (IrId id = 0; id < arena.size(); ++id) {
        for (IrId arg : arena.args(id))
            ASSERT_LT(arg, id);
    }
}

/**
 * A comb block that reads its output net through one shared Ref node
 * after a first blocking write, before a second one and after it:
 * out = {w + 1, w'} with w = a and then w' = w ^ 3.
 */
class SharedRefAcrossWrites : public Model
{
  public:
    InPort a;
    Wire w;
    OutPort out;
    SharedRefAcrossWrites()
        : Model(nullptr, "top"), a(this, "a", 8), w(this, "w", 8),
          out(this, "out", 16)
    {
        auto &c = combinational("comb");
        c.assign(w, rd(a));
        IrExpr first = c.let("first", rd(w) + 1);
        c.assign(w, rd(w) ^ lit(8, 3));
        c.assign(out, cat(first, rd(w)));
    }
};

TEST(IrBuild, SharedRefReadsTheValueAtEachUse)
{
    for (const char *backend :
         {"interp", "optinterp", "bytecode", "cpp-design"}) {
        if (std::string(backend) == "cpp-design" &&
            !CppJit::compilerAvailable())
            continue;
        SharedRefAcrossWrites top;
        SimConfig cfg = SimConfig::fromString(backend);
        cfg.jit_tiered = false;
        auto sim = makeSimulator(top.elaborate(), cfg);
        for (uint64_t v : {0x00, 0x11, 0xfe, 0x80}) {
            top.a.setValue(v);
            sim->eval();
            EXPECT_EQ(top.out.u64(), ((v + 1) & 0xff) << 8 | (v ^ 3))
                << backend << " a=" << v;
        }
    }
}

TEST(IrBuild, DumpContainsStructure)
{
    testmodels::Counter top(nullptr, "top", 8);
    std::string dump = irToString(*top.ownIrBlocks().front());
    EXPECT_NE(dump.find("tick_rtl"), std::string::npos);
    EXPECT_NE(dump.find("if"), std::string::npos);
    EXPECT_NE(dump.find("top.count"), std::string::npos);
}

// ----------------------------------------------------------------------
// ALU torture model: exercises every IR operator; used to prove all
// four execution backends agree bit-for-bit.

class AluTorture : public Model
{
  public:
    InPort a, b;
    OutPort res;

    AluTorture(int nbits)
        : Model(nullptr, "alu"), a(this, "a", nbits), b(this, "b", nbits),
          res(this, "res", nbits)
    {
        auto &c = combinational("comb");
        IrExpr ea = rd(a);
        IrExpr eb = rd(b);
        IrExpr sum = ea + eb;
        IrExpr t = c.let("t", (ea * eb) ^ (ea - eb));
        IrExpr shifted = (t << eb.slice(0, 3)) | (t >> ea.slice(0, 3));
        IrExpr cmp = mux(ea < eb, sum, shifted);
        IrExpr reduced =
            cat(cmp.reduceXor(), cmp.reduceOr()).zext(nbits);
        IrExpr logic = (~cmp & (ea | eb)) + reduced + sra(ea, lit(3, 2));
        IrExpr folded = c.let("folded", logic ^ t.sext(nbits));
        c.if_(ea == eb, [&] { c.assign(res, folded + 1); },
              [&] {
                  c.if_((ea > eb) && folded.reduceOr(),
                        [&] { c.assign(res, folded - eb); },
                        [&] { c.assign(res, mux(!eb, ea, folded)); });
              });
    }
};

class IrBackendEquiv : public ::testing::TestWithParam<int>
{};

TEST_P(IrBackendEquiv, AllBackendsAgreeOnTortureAlu)
{
    const int nbits = GetParam();
    std::mt19937_64 rng(nbits * 999 + 5);
    std::vector<std::pair<uint64_t, uint64_t>> stimuli;
    for (int i = 0; i < 200; ++i)
        stimuli.emplace_back(rng(), rng());
    stimuli.emplace_back(0, 0);
    stimuli.emplace_back(~uint64_t(0), ~uint64_t(0));
    stimuli.emplace_back(1, 0);

    std::vector<std::vector<uint64_t>> results;
    for (const testmodels::ModeParam &mode : testmodels::allModes()) {
        AluTorture alu(nbits);
        auto elab = alu.elaborate();
        SimulationTool sim(elab, mode);
        std::vector<uint64_t> outs;
        for (auto [x, y] : stimuli) {
            alu.a.setValue(Bits(nbits, x));
            alu.b.setValue(Bits(nbits, y));
            sim.eval();
            outs.push_back(alu.res.u64());
        }
        results.push_back(std::move(outs));
    }
    for (size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(results[i], results[0])
            << testmodels::modeName(testmodels::allModes()[i]);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, IrBackendEquiv,
                         ::testing::Values(4, 8, 13, 16, 32, 63, 64));

TEST(IrBytecode, SpecializableSubset)
{
    AluTorture alu(32);
    auto elab = alu.elaborate();
    ASSERT_EQ(elab->blocks.size(), 1u);
    EXPECT_TRUE(bcSpecializable(elab->blocks[0]));

    // A wide model is outside the subset.
    class WideModel : public Model
    {
      public:
        InPort in_;
        OutPort out;
        WideModel()
            : Model(nullptr, "w"), in_(this, "in_", 100),
              out(this, "out", 100)
        {
            auto &c = combinational("comb");
            c.assign(out, rd(in_));
        }
    };
    WideModel wide;
    auto welab = wide.elaborate();
    EXPECT_FALSE(bcSpecializable(welab->blocks[0]));
}

TEST(IrBytecode, ProgramsAreCompact)
{
    AluTorture alu(32);
    auto elab = alu.elaborate();
    ArenaStore store(*elab);
    BcBlock blk = bcCompile(elab->blocks[0], store);
    const BcProgram &prog = blk.prog;
    EXPECT_GT(prog.insts.size(), 10u);
    EXPECT_LT(prog.insts.size(), 200u);
    EXPECT_GT(prog.nscratch, 0);
    EXPECT_LT(prog.nscratch, 100);
    // a, b and res are the block's slots; only res is written back.
    EXPECT_EQ(prog.nslots, 3);
    EXPECT_EQ(blk.slots.size(), 3u);
    ASSERT_EQ(prog.written.size(), 1u);
    EXPECT_EQ(blk.slots[prog.written[0]], store.offset(alu.res.netId()));
    // Constants are operands, numbered by occurrence.
    EXPECT_EQ(static_cast<size_t>(prog.nconsts), blk.consts.size());
    EXPECT_GT(prog.nconsts, 0);
}

// ----------------------------------------------------------------------
// Frame semantics. bcRunBatch copies the slots of a batch of instances
// into a lane-major frame, runs their shared program there across all
// lanes and copies back only the slots the program may write. Each
// design below instantiates its block types more than once (instances
// share one program, each with its own slot and constant tables) and
// must stay bit-identical to optinterp, cycle by cycle, on every
// bytecode schedule.

/** Two instances of a leaf, driven from the test bench. */
template <class Leaf>
class Twin : public Model
{
  public:
    Leaf x, y;
    Twin() : Model(nullptr, "top"), x(this, "x"), y(this, "y") {}

    std::vector<Signal *>
    inputs()
    {
        std::vector<Signal *> ins = x.inputs();
        for (Signal *sig : y.inputs())
            ins.push_back(sig);
        return ins;
    }
};

/** A block that reads a net after writing it. */
class ReadAfterWrite : public Model
{
  public:
    InPort a;
    OutPort mid, out;
    std::vector<Signal *> inputs() { return {&a}; }

    ReadAfterWrite(Model *parent, const std::string &name)
        : Model(parent, name), a(this, "a", 12), mid(this, "mid", 12),
          out(this, "out", 12)
    {
        auto &c = combinational("comb");
        c.assign(mid, rd(a) + 3);
        c.assign(out, (rd(mid) * rd(a)) ^ (rd(mid) >> lit(4, 1)));
    }
};

/**
 * Writes under an If without an else: a skipped write must leave the
 * net as it was, on a comb net and on a register's next word.
 */
class SkippedWrite : public Model
{
  public:
    InPort en, d;
    OutPort lat, q;
    std::vector<Signal *> inputs() { return {&en, &d}; }

    SkippedWrite(Model *parent, const std::string &name)
        : Model(parent, name), en(this, "en", 1), d(this, "d", 10),
          lat(this, "lat", 10), q(this, "q", 10)
    {
        auto &c = combinational("comb");
        c.if_(rd(en), [&] { c.assign(lat, rd(d) + 1); });
        auto &t = tickRtl("seq");
        t.if_(!rd(en), [&] { t.assign(q, rd(d) ^ rd(q)); });
    }
};

/** Two blocks writing disjoint slices of one net. */
class SplitWriters : public Model
{
  public:
    InPort lo, hi;
    OutPort q;
    std::vector<Signal *> inputs() { return {&lo, &hi}; }

    SplitWriters(Model *parent, const std::string &name)
        : Model(parent, name), lo(this, "lo", 8), hi(this, "hi", 6),
          q(this, "q", 14)
    {
        auto &a = tickRtl("seq_lo");
        a.assignSlice(q, 0, 8, rd(lo) + rd(q).slice(8, 6).zext(8));
        auto &b = tickRtl("seq_hi");
        b.assignSlice(q, 8, 6, rd(hi) ^ rd(q).slice(0, 6));
    }
};

/** A tick block writing a net's next word and reading its current. */
class NextAndCurrent : public Model
{
  public:
    InPort d;
    OutPort acc, prev;
    std::vector<Signal *> inputs() { return {&d}; }

    NextAndCurrent(Model *parent, const std::string &name)
        : Model(parent, name), d(this, "d", 16), acc(this, "acc", 16),
          prev(this, "prev", 16)
    {
        auto &t = tickRtl("seq");
        t.assign(acc, rd(acc) + rd(d));
        // Reads the current word: acc's value before this edge.
        t.assign(prev, rd(acc));
    }
};

/** Array reads and writes whose indices need masking to the depth. */
class MaskedArray : public Model
{
  public:
    InPort waddr, wdata, wen, raddr;
    OutPort rdata;
    MemArray mem;
    std::vector<Signal *> inputs() { return {&waddr, &wdata, &wen, &raddr}; }

    MaskedArray(Model *parent, const std::string &name)
        : Model(parent, name), waddr(this, "waddr", 5),
          wdata(this, "wdata", 12), wen(this, "wen", 1),
          raddr(this, "raddr", 6), rdata(this, "rdata", 12),
          mem(this, "mem", 12, 8)
    {
        auto &t = tickRtl("seq");
        t.if_(rd(wen), [&] {
            t.writeArray(mem, rd(waddr) + 1, rd(wdata));
        });
        auto &c = combinational("comb");
        c.assign(rdata, aread(mem, rd(raddr)) ^ aread(mem, rd(raddr) + 3));
    }
};

/** Concats whose shift amounts are constant operands. */
class ConstConcat : public Model
{
  public:
    InPort a, b;
    OutPort out;
    std::vector<Signal *> inputs() { return {&a, &b}; }

    ConstConcat(Model *parent, const std::string &name)
        : Model(parent, name), a(this, "a", 7), b(this, "b", 9),
          out(this, "out", 29)
    {
        auto &c = combinational("comb");
        c.assign(out, cat({rd(a), lit(3, 5), rd(b).slice(2, 4), lit(1, 1),
                           rd(a).slice(0, 5), rd(b) + lit(9, 7)}) ^
                          cat(lit(20, 0x5a5a5), rd(b)));
    }
};

/** Block temps, read back after re-assignment and across branches. */
class Temps : public Model
{
  public:
    InPort a, b;
    OutPort out;
    std::vector<Signal *> inputs() { return {&a, &b}; }

    Temps(Model *parent, const std::string &name)
        : Model(parent, name), a(this, "a", 10), b(this, "b", 10),
          out(this, "out", 10)
    {
        auto &c = combinational("comb");
        IrExpr t = c.let("t", rd(a) + rd(b));
        IrExpr u = c.let("u", t * lit(10, 3));
        c.if_(t > u, [&] { c.setTemp(t, u - rd(a)); },
              [&] { c.setTemp(t, t ^ u); });
        c.assign(out, t + u);
    }
};

/**
 * Constants that differ between the two instances, and one that is
 * equal on both. The C++ kernel reads the differing ones from the
 * instance's constant row (the two shift amounts share one column) and
 * keeps the equal one a literal.
 */
class PerInstanceConstants : public Model
{
  public:
    InPort a;
    OutPort sum, rot;
    std::vector<Signal *> inputs() { return {&a}; }

    PerInstanceConstants(Model *parent, const std::string &name)
        : Model(parent, name), a(this, "a", 16), sum(this, "sum", 16),
          rot(this, "rot", 16)
    {
        const uint64_t k = name == "x" ? 0x1234 : 0x4321;
        const uint64_t s = name == "x" ? 3 : 9;
        auto &c = combinational("comb");
        c.assign(sum, (rd(a) + lit(16, k)) ^ lit(16, 0xabc));
        c.assign(rot, (rd(a) << lit(5, s)) | (rd(a) >> lit(5, s)));
    }
};

/** Shifts by amounts at and past 64, as literals and as values. */
class ShiftPastWidth : public Model
{
  public:
    InPort a, w, amt;
    OutPort lo, hi, lit_out;
    std::vector<Signal *> inputs() { return {&a, &w, &amt}; }

    ShiftPastWidth(Model *parent, const std::string &name)
        : Model(parent, name), a(this, "a", 8), w(this, "w", 64),
          amt(this, "amt", 7), lo(this, "lo", 8), hi(this, "hi", 64),
          lit_out(this, "lit_out", 64)
    {
        auto &c = combinational("comb");
        // amt spans 0..127: past the 8-bit and the 64-bit widths.
        c.assign(lo, (rd(a) << rd(amt)) ^ sra(rd(a), rd(amt)));
        c.assign(hi, (rd(w) << rd(amt)) ^ (rd(w) >> rd(amt)) ^
                         sra(rd(w), rd(amt)));
        c.assign(lit_out, (rd(w) << lit(7, 64)) | (rd(w) >> lit(7, 100)) |
                              (sra(rd(w), lit(7, 90)) ^
                               (rd(w) >> lit(7, 63))));
    }
};

/**
 * Two tick-block types, interleaved across two instances: `write`
 * stores to one memory, which takes effect at once, and `read` reads
 * the other instance's memory. x.read must run before y.write, and
 * y.read after x.write, whatever order batches the types.
 */
class TickHazard : public Model
{
  public:
    InPort waddr, wdata, raddr;
    OutPort q;
    std::vector<Signal *> inputs() { return {&waddr, &wdata, &raddr}; }

    TickHazard(Model *parent, const std::string &name, MemArray &own,
               MemArray &peer)
        : Model(parent, name), waddr(this, "waddr", 2),
          wdata(this, "wdata", 12), raddr(this, "raddr", 2),
          q(this, "q", 12)
    {
        auto &w = tickRtl("write");
        w.writeArray(own, rd(waddr), rd(wdata));
        auto &r = tickRtl("read");
        r.assign(q, aread(peer, rd(raddr)) + rd(q));
    }
};

class TickHazardTop : public Model
{
  public:
    MemArray mx, my;
    TickHazard x, y;

    TickHazardTop()
        : Model(nullptr, "top"), mx(this, "mx", 12, 4), my(this, "my", 12, 4),
          x(this, "x", mx, my), y(this, "y", my, mx)
    {}

    std::vector<Signal *>
    inputs()
    {
        std::vector<Signal *> ins = x.inputs();
        for (Signal *sig : y.inputs())
            ins.push_back(sig);
        return ins;
    }
};

/** One link of a chain of identical comb blocks. */
class Link : public Model
{
  public:
    InPort in;
    OutPort out;

    Link(Model *parent, const std::string &name)
        : Model(parent, name), in(this, "in", 16), out(this, "out", 16)
    {
        auto &c = combinational("comb");
        c.assign(out, (rd(in) * lit(16, 3)) ^ (rd(in) >> lit(16, 2)));
    }
};

/**
 * Links that each read the previous link's output: every link depends
 * on the one before it, so no two may share a batch.
 */
class ChainTop : public Model
{
  public:
    static constexpr int kLinks = 6;
    InPort in;
    std::vector<std::unique_ptr<Link>> links;

    ChainTop() : Model(nullptr, "top"), in(this, "in", 16)
    {
        for (int i = 0; i < kLinks; ++i) {
            links.push_back(
                std::make_unique<Link>(this, "l" + std::to_string(i)));
        }
        connect(in, links[0]->in);
        for (int i = 1; i < kLinks; ++i)
            connect(links[i - 1]->out, links[i]->in);
    }

    std::vector<Signal *> inputs() { return {&in}; }
};

/**
 * An accumulator with a comb output: one tick and one comb type. The
 * comb block's last constant differs per instance (a hash of the
 * name), so every chunk of a batch must load its own values of it.
 */
class Acc : public Model
{
  public:
    InPort d;
    OutPort acc, out;

    Acc(Model *parent, const std::string &name)
        : Model(parent, name), d(this, "d", 10), acc(this, "acc", 10),
          out(this, "out", 10)
    {
        uint64_t tag = 0;
        for (char ch : name)
            tag = tag * 31 + static_cast<uint8_t>(ch);
        auto &t = tickRtl("seq");
        t.assign(acc, rd(acc) + rd(d));
        auto &c = combinational("comb");
        c.assign(out, rd(acc) ^ (rd(d) << lit(4, 3)) ^ lit(10, tag & 0x3ff));
    }

    std::vector<Signal *> inputs() { return {&d}; }
};

/**
 * Independent instances of one leaf, two lane chunks and one more: a
 * batch of them crosses chunk boundaries and ends in a partial chunk.
 */
template <class Leaf, int N>
class Many : public Model
{
  public:
    std::vector<std::unique_ptr<Leaf>> leaves;

    Many() : Model(nullptr, "top")
    {
        for (int i = 0; i < N; ++i) {
            leaves.push_back(
                std::make_unique<Leaf>(this, "i" + std::to_string(i)));
        }
    }

    std::vector<Signal *>
    inputs()
    {
        std::vector<Signal *> ins;
        for (auto &leaf : leaves) {
            for (Signal *sig : leaf->inputs())
                ins.push_back(sig);
        }
        return ins;
    }
};

/**
 * An if/else in which only the taken side stores to memory. The
 * condition is a shared input XOR a per-instance constant, so the
 * instances split into two camps that take opposite sides every cycle.
 */
class BranchStore : public Model
{
  public:
    InPort sel, waddr, wdata, raddr;
    OutPort q;
    MemArray mem;

    BranchStore(Model *parent, const std::string &name, uint64_t flip)
        : Model(parent, name), sel(this, "sel", 1), waddr(this, "waddr", 3),
          wdata(this, "wdata", 12), raddr(this, "raddr", 3),
          q(this, "q", 12), mem(this, "mem", 12, 8)
    {
        auto &t = tickRtl("seq");
        t.if_(rd(sel) ^ lit(1, flip),
              [&] { t.writeArray(mem, rd(waddr), rd(wdata)); },
              [&] { t.assign(q, aread(mem, rd(raddr)) + rd(q)); });
    }
};

class BranchTop : public Model
{
  public:
    static constexpr int kInstances = 6;
    InPort sel;
    std::vector<std::unique_ptr<BranchStore>> insts;

    BranchTop() : Model(nullptr, "top"), sel(this, "sel", 1)
    {
        for (int i = 0; i < kInstances; ++i) {
            insts.push_back(std::make_unique<BranchStore>(
                this, "b" + std::to_string(i), i % 2));
            connect(sel, insts.back()->sel);
        }
    }

    std::vector<Signal *>
    inputs()
    {
        std::vector<Signal *> ins = {&sel};
        for (auto &b : insts) {
            ins.push_back(&b->waddr);
            ins.push_back(&b->wdata);
            ins.push_back(&b->raddr);
        }
        return ins;
    }
};

/** Bytecode and C++ schedules that must agree with optinterp. */
std::vector<std::pair<std::string, SimConfig>>
frameConfigs()
{
    std::vector<std::pair<std::string, SimConfig>> out;
    SimConfig cfg = SimConfig::fromString("bytecode");
    cfg.sched = SchedMode::Static;
    out.emplace_back("static", cfg);
    cfg.sched = SchedMode::Event;
    out.emplace_back("event", cfg);
    cfg = SimConfig::fromString("bytecode");
    cfg.threads = 2;
    out.emplace_back("parsim2", cfg);
    if (CppJit::compilerAvailable()) {
        out.emplace_back("cpp-block", SimConfig::fromString("cpp-block"));
        cfg = SimConfig::fromString("cpp-design");
        cfg.jit_tiered = false;
        out.emplace_back("cpp-design", cfg);
    }
    return out;
}

/** What a simulator reports about its programs and batches. */
struct FrameShape
{
    int programs = 0;
    std::vector<std::vector<int>> batches; //!< each batch's lanes
};

/** Random stimulus, the state digest after every cycle. */
template <class Top>
std::vector<uint64_t>
frameTrace(const SimConfig &cfg, FrameShape *shape = nullptr)
{
    Top top;
    auto sim = makeSimulator(top.elaborate(), cfg);
    if (shape) {
        shape->programs = sim->specStats().kernelTypes;
        for (const BcBatch &batch : sim->bytecodeBatches())
            shape->batches.push_back(batch.blocks);
    }
    std::vector<Signal *> ins = top.inputs();
    std::mt19937_64 rng(42);
    std::vector<uint64_t> trace;
    sim->reset();
    for (int cyc = 0; cyc < 200; ++cyc) {
        for (Signal *sig : ins)
            sig->setValue(Bits(sig->nbits(), rng()));
        sim->cycle();
        trace.push_back(stateDigest(*sim));
    }
    return trace;
}

/**
 * Every side of frameConfigs() agrees with optinterp on @p Top, and
 * every side reports @p programs kernels (all instances of one block
 * type share one). Returns each side's shape.
 */
template <class Top>
std::vector<std::pair<std::string, FrameShape>>
expectFrameSemantics(int programs)
{
    const auto golden = frameTrace<Top>(SimConfig::fromString("optinterp"));
    std::vector<std::pair<std::string, FrameShape>> shapes;
    for (const auto &[name, cfg] : frameConfigs()) {
        FrameShape shape;
        EXPECT_EQ(frameTrace<Top>(cfg, &shape), golden) << name;
        EXPECT_EQ(shape.programs, programs) << name;
        shapes.emplace_back(name, std::move(shape));
    }
    return shapes;
}

/** expectFrameSemantics for a design of two instances of each type. */
template <class Top>
void
expectFrameSemantics()
{
    Top top;
    expectFrameSemantics<Top>(
        static_cast<int>(top.elaborate()->blocks.size()) / 2);
}

TEST(BcFrame, ReadAfterWrite) { expectFrameSemantics<Twin<ReadAfterWrite>>(); }
TEST(BcFrame, SkippedWriteLeavesNet)
{
    expectFrameSemantics<Twin<SkippedWrite>>();
}
TEST(BcFrame, DisjointSliceWriters)
{
    expectFrameSemantics<Twin<SplitWriters>>();
}
TEST(BcFrame, TickNextAndCurrent)
{
    expectFrameSemantics<Twin<NextAndCurrent>>();
}
TEST(BcFrame, ArrayIndexMasking) { expectFrameSemantics<Twin<MaskedArray>>(); }
TEST(BcFrame, ConcatConstants) { expectFrameSemantics<Twin<ConstConcat>>(); }
TEST(BcFrame, BlockTemps) { expectFrameSemantics<Twin<Temps>>(); }
TEST(BcFrame, ShiftPastWidth) { expectFrameSemantics<Twin<ShiftPastWidth>>(); }
TEST(BcFrame, TickHazardOrder) { expectFrameSemantics<TickHazardTop>(); }

TEST(BcFrame, ChainSplitsIntoOneBatchPerLink)
{
    for (const auto &[name, shape] :
         expectFrameSemantics<ChainTop>(1)) {
        if (shape.batches.empty())
            continue; // cpp-block runs no bytecode
        EXPECT_EQ(shape.batches.size(), size_t(ChainTop::kLinks)) << name;
        for (const auto &lanes : shape.batches)
            EXPECT_EQ(lanes.size(), 1u) << name;
    }
}

TEST(BcFrame, BatchCrossesLaneChunks)
{
    constexpr int kN = 2 * kBcLanes + 1;
    for (const auto &[name, shape] :
         expectFrameSemantics<Many<Acc, kN>>(2)) {
        if (shape.batches.empty())
            continue;
        // Sequentially, each phase runs all instances as one batch.
        if (name == "static" || name == "event" || name == "cpp-design") {
            ASSERT_EQ(shape.batches.size(), 2u) << name;
            for (const auto &lanes : shape.batches)
                EXPECT_EQ(lanes.size(), size_t(kN)) << name;
        }
    }
}

TEST(BcFrame, DivergentBranchStoresOnOneSide)
{
    for (const auto &[name, shape] : expectFrameSemantics<BranchTop>(1)) {
        if (name == "static") {
            ASSERT_EQ(shape.batches.size(), 1u) << name;
        }
    }
}

TEST(BcFrame, MeshBatchesAreAntichains)
{
    // No lane of a batch may read or write a token that another lane
    // of the batch writes, on either kernel or a boxed host.
    for (auto [backend, threads] :
         {std::pair<const char *, int>{"bytecode", 1},
          {"bytecode", 2},
          {"interp+bytecode", 1}}) {
        net::MeshTrafficTop top("top", net::NetLevel::RTL, 256, 4, 0.30, 1);
        SimConfig cfg = SimConfig::fromString(backend);
        cfg.threads = threads;
        auto sim = makeSimulator(top.elaborate(), cfg);
        const auto &blocks = sim->elaboration().blocks;
        ASSERT_FALSE(sim->bytecodeBatches().empty());
        int conflicts = 0;
        std::set<int> seen;
        for (const BcBatch &batch : sim->bytecodeBatches()) {
            std::map<int, int> writer;
            for (int b : batch.blocks) {
                EXPECT_TRUE(seen.insert(b).second) << "block " << b;
                for (int tok : blocks[b].writes)
                    conflicts += !writer.emplace(tok, b).second;
            }
            for (int b : batch.blocks) {
                for (int tok : blocks[b].reads) {
                    auto it = writer.find(tok);
                    conflicts += it != writer.end() && it->second != b;
                }
            }
        }
        EXPECT_EQ(conflicts, 0) << backend << " threads " << threads;
        EXPECT_EQ(seen.size(),
                  static_cast<size_t>(sim->specStats().numSpecialized))
            << backend << " threads " << threads;
        // Sequentially, the 16x16 mesh runs 6 batches a cycle.
        if (threads == 1) {
            EXPECT_EQ(sim->bytecodeBatches().size(), 6u) << backend;
        }
    }
}

TEST(BcFrame, PerInstanceConstants)
{
    expectFrameSemantics<Twin<PerInstanceConstants>>();

    // One kernel. The constant equal on both instances stays a literal;
    // the two that differ become two row columns, since both shift
    // amounts hold the same per-instance values.
    Twin<PerInstanceConstants> top;
    auto elab = top.elaborate();
    ArenaStore store(*elab);
    BcModule mod(*elab, store, {0, 1});
    CppProgram prog = cppEmitProgram(mod);
    EXPECT_EQ(prog.kernels.size(), 1u);
    EXPECT_NE(prog.source.find("^ 0xabcull"), std::string::npos)
        << prog.source;
    EXPECT_NE(prog.source.find("const uint64_t c1 = consts[1];"),
              std::string::npos)
        << prog.source;
    EXPECT_EQ(prog.source.find("c2 = "), std::string::npos) << prog.source;
}

/**
 * One model type whose instances differ only in parameters: the width
 * of its nets, the depth of its array, whether its output block is
 * registered, and one literal.
 */
class ShapeCell : public Model
{
  public:
    InPort a, b;
    OutPort out;
    MemArray mem;

    ShapeCell(Model *parent, const std::string &name, int width, int depth,
              bool registered, uint64_t k)
        : Model(parent, name), a(this, "a", width), b(this, "b", width),
          out(this, "out", width), mem(this, "mem", width, depth)
    {
        auto &w = tickRtl("fill");
        w.writeArray(mem, rd(b), rd(a) ^ rd(out));
        auto &f = registered ? tickRtl("f") : combinational("f");
        f.assign(out, (rd(a) + rd(b) + lit(width, k)) ^ aread(mem, rd(a)));
    }
};

/**
 * Instances of ShapeCell that must get a shape of their own: wider
 * nets, a deeper array (the ALoad's index mask), both read ports tied
 * to one net (one slot for two reads), a nonblocking target. And one,
 * `lit5`, that differs from `base` only in a literal.
 */
class ShapeTop : public Model
{
  public:
    InPort x, y, x16, y16;
    ShapeCell base, lit5, wide, deep, tied, reg;

    ShapeTop()
        : Model(nullptr, "top"), x(this, "x", 8), y(this, "y", 8),
          x16(this, "x16", 16), y16(this, "y16", 16),
          base(this, "base", 8, 4, false, 3),
          lit5(this, "lit5", 8, 4, false, 5),
          wide(this, "wide", 16, 4, false, 3),
          deep(this, "deep", 8, 8, false, 3),
          tied(this, "tied", 8, 4, false, 3),
          reg(this, "reg", 8, 4, true, 3)
    {
        for (ShapeCell *c : {&base, &lit5, &deep, &reg}) {
            connect(x, c->a);
            connect(y, c->b);
        }
        connect(x16, wide.a);
        connect(y16, wide.b);
        connect(x, tied.a);
        connect(x, tied.b);
    }

    std::vector<Signal *> inputs() { return {&x, &y, &x16, &y16}; }
};

TEST(BcFrame, ShapesSplitAndShare)
{
    ShapeTop top;
    auto elab = top.elaborate();
    std::map<std::string, int> at;
    for (size_t b = 0; b < elab->blocks.size(); ++b)
        at[elab->blocks[b].name] = static_cast<int>(b);
    auto shape = [&](const std::string &blk) {
        return elab->blocks[at.at("top." + blk)].shape;
    };
    EXPECT_EQ(shape("lit5.f"), shape("base.f"));
    EXPECT_EQ(shape("lit5.fill"), shape("base.fill"));
    EXPECT_EQ(shape("reg.fill"), shape("base.fill"));
    for (const char *cell : {"wide", "deep", "tied", "reg"}) {
        EXPECT_NE(shape(std::string(cell) + ".f"), shape("base.f")) << cell;
    }
    for (const char *cell : {"wide", "deep", "tied"}) {
        EXPECT_NE(shape(std::string(cell) + ".fill"), shape("base.fill"))
            << cell;
    }
    EXPECT_EQ(elab->operands(elab->blocks[at.at("top.tied.f")]).size() + 1,
              elab->operands(elab->blocks[at.at("top.base.f")]).size());

    // Shapes that compile alike share a program: a registered output
    // is only a different slot. The literal is a column of it.
    ArenaStore store(*elab);
    std::vector<int> all(elab->blocks.size());
    std::iota(all.begin(), all.end(), 0);
    const BcModule mod(*elab, store, all);
    auto prog = [&](const std::string &blk) {
        return mod.programOf(at.at("top." + blk));
    };
    EXPECT_EQ(prog("lit5.f"), prog("base.f"));
    EXPECT_EQ(prog("reg.f"), prog("base.f"));
    const BcInstance &b3 = mod.instance(at.at("top.base.f"));
    const BcInstance &b5 = mod.instance(at.at("top.lit5.f"));
    ASSERT_EQ(b3.prog->nconsts, 1);
    EXPECT_EQ(b3.consts[0], 3u);
    EXPECT_EQ(b5.consts[0], 5u);
    EXPECT_EQ(mod.instance(at.at("top.reg.f")).consts[0], 3u);

    expectFrameSemantics<ShapeTop>(mod.numPrograms());
}

/**
 * Every lane opcode, once writing over its a operand and once over its
 * b operand. An operand computed into scratch that dies at the op frees
 * its word, and the op's result takes the lowest free word: a's when a
 * is computed and b is a slot, b's when b is computed and a is a slot.
 * A trailing Add keeps each op's result in scratch rather than
 * forwarding it into the output. A Jz on the per-lane select splits
 * the lanes, and the tick block stores to the instance's array.
 */
class LaneOps : public Model
{
  public:
    InPort a, b, n, m, s, c, i, d;
    std::deque<OutPort> outs;
    OutPort q, r;
    MemArray mem;

    LaneOps(Model *parent, const std::string &name)
        : Model(parent, name), a(this, "a", 64), b(this, "b", 64),
          n(this, "n", 8), m(this, "m", 8), s(this, "s", 7),
          c(this, "c", 1), i(this, "i", 3), d(this, "d", 12),
          q(this, "q", 12), r(this, "r", 64), mem(this, "mem", 12, 8)
    {
        auto &comb = combinational("ops");
        uint64_t k = 1;
        auto out = [&](const IrExpr &e) {
            outs.emplace_back(this, "o" + std::to_string(outs.size()), 64);
            comb.assign(outs.back(), e + lit(64, k++));
        };
        // Each constant differs, even at 8 bits, so no two expressions
        // number alike.
        auto K = [&](int nbits) { return lit(nbits, k++); };
        using Op = IrExpr (*)(const IrExpr &, const IrExpr &);
        auto both = [&](Op op, Signal &x, Signal &y) {
            out(op(rd(x) + K(x.nbits()), rd(y)));
            out(op(rd(x), rd(y) + K(y.nbits())));
        };
        for (Op op : std::vector<Op>{
                 [](const IrExpr &x, const IrExpr &y) { return x + y; },
                 [](const IrExpr &x, const IrExpr &y) { return x - y; },
                 [](const IrExpr &x, const IrExpr &y) { return x * y; },
                 [](const IrExpr &x, const IrExpr &y) { return x & y; },
                 [](const IrExpr &x, const IrExpr &y) { return x | y; },
                 [](const IrExpr &x, const IrExpr &y) { return x ^ y; }})
            both(op, a, b);
        for (Op op : std::vector<Op>{
                 [](const IrExpr &x, const IrExpr &y) { return x << y; },
                 [](const IrExpr &x, const IrExpr &y) { return x >> y; },
                 [](const IrExpr &x, const IrExpr &y) { return sra(x, y); }}) {
            both(op, a, s);
            both(op, d, s);
        }
        for (Op op : std::vector<Op>{
                 [](const IrExpr &x, const IrExpr &y) { return x == y; },
                 [](const IrExpr &x, const IrExpr &y) { return x != y; },
                 [](const IrExpr &x, const IrExpr &y) { return x < y; },
                 [](const IrExpr &x, const IrExpr &y) { return x <= y; },
                 [](const IrExpr &x, const IrExpr &y) { return x > y; },
                 [](const IrExpr &x, const IrExpr &y) { return x >= y; },
                 [](const IrExpr &x, const IrExpr &y) { return x && y; },
                 [](const IrExpr &x, const IrExpr &y) { return x || y; }})
            both(op, n, m);
        for (Signal *x : std::vector<Signal *>{&a, &n}) {
            auto v = [&] { return rd(*x) + K(x->nbits()); };
            out(~v());
            out(!v());
            out(v().reduceOr());
            out(v().reduceAnd());
            out(v().reduceXor());
            out(v().slice(1, 2));
            out(v().sext(64));
        }
        out(mux(rd(c), rd(a) + K(64), rd(b)));
        out(mux(rd(c), rd(a), rd(b) + K(64)));
        // A Mov: the first part of a concat, a load whose value may
        // have more bits than the part, lands in the load's word.
        out(cat(aread(mem, rd(i) + K(3)), rd(n)));
        comb.if_(rd(c), [&] { out(rd(a) - K(64)); },
                 [&] { out(rd(b) + K(64)); });
        comb.assignSlice(outs.front(), 8, 12, rd(d) + K(12));

        auto &seq = tickRtl("seq");
        seq.writeArray(mem, rd(i), rd(d));
        seq.assign(q, aread(mem, rd(i) ^ K(3)));
        seq.assign(r, rd(r) + rd(a));
    }
};

/**
 * A directory of its own under the temp dir ($TMPDIR, else /tmp) for
 * kernels compiled without the cache, removed with its contents
 * however the test ends.
 */
class KernelDir
{
  public:
    KernelDir()
    {
        std::string path =
            (std::filesystem::temp_directory_path() / "cmtl_kernels_XXXXXX")
                .string();
        if (!::mkdtemp(path.data()))
            throw std::runtime_error("mkdtemp failed for " + path);
        path_ = path;
    }
    ~KernelDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    KernelDir(const KernelDir &) = delete;
    KernelDir &operator=(const KernelDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST(BcFrame, InPlaceLaneOpsMatchTheKernel)
{
    constexpr int kN = 65;
    Many<LaneOps, kN> top;
    auto elab = top.elaborate();
    ArenaStore store(*elab);
    std::vector<int> all(elab->blocks.size());
    std::iota(all.begin(), all.end(), 0);
    BcModule mod(*elab, store, all);
    ASSERT_EQ(mod.numPrograms(), 2);

    // The programs really run every lane opcode over its own operand.
    std::set<Bc> over_a, over_b;
    for (int p = 0; p < mod.numPrograms(); ++p) {
        const BcProgram &prog = *mod.instance(mod.instancesOf(p)[0]).prog;
        for (const BcInst &in : prog.insts) {
            if (!bcWritesDst(in.op))
                continue;
            if (in.dst == in.a)
                over_a.insert(in.op);
            if (bcReadsB(in.op) && in.dst == in.b)
                over_b.insert(in.op);
        }
    }
    for (int op = static_cast<int>(Bc::Mov); op <= static_cast<int>(Bc::ALoad);
         ++op) {
        const Bc bc = static_cast<Bc>(op);
        if (bc != Bc::SetSlice) { // it writes into the slot it reads
            EXPECT_TRUE(over_a.count(bc)) << "op " << op;
        }
        if (bcReadsB(bc) && bc != Bc::AStore) {
            EXPECT_TRUE(over_b.count(bc)) << "op " << op;
        }
    }

    const KernelDir dir;
    std::optional<CppProgram> cpp;
    std::optional<CppJitLibrary> lib;
    if (CppJit::compilerAvailable()) {
        cpp = cppEmitProgram(mod);
        CppJit jit(dir.path(), false);
        lib = jit.compile(cpp->source, mod.numPrograms());
    }
    std::mt19937_64 rng(7);
    std::vector<uint64_t> frame(mod.frameWords(), 0);
    for (int lanes : {1, 2, 3, 31, 32, 33, 65}) {
        for (int p = 0; p < mod.numPrograms(); ++p) {
            const std::vector<int> blocks(mod.instancesOf(p).begin(),
                                          mod.instancesOf(p).begin() + lanes);
            ArenaStore init(*elab);
            for (size_t net = 0; net < elab->nets.size(); ++net) {
                const int nbits = init.nbits(static_cast<int>(net));
                init.write(static_cast<int>(net), Bits(nbits, rng()));
                init.writeNext(static_cast<int>(net), Bits(nbits, rng()));
            }
            for (auto &leaf : top.leaves) {
                for (uint64_t at = 0; at < 8; ++at)
                    init.arrayWrite(leaf->mem.arrayId(), at, Bits(12, rng()));
            }
            const std::string ctx = "program " + std::to_string(p) +
                                    ", " + std::to_string(lanes) + " lanes";
            // One batch against each lane run on its own.
            ArenaStore batched = init, alone = init;
            bcRunBatch(mod.batch(blocks), batched.data(), frame.data());
            for (int blk : blocks)
                bcRunBatch(mod.batch({blk}), alone.data(), frame.data());
            const size_t words = static_cast<size_t>(
                init.arrayOffset(top.leaves.back()->mem.arrayId()) + 8);
            auto arena = [&](const ArenaStore &st) {
                return std::vector<uint64_t>(st.data(), st.data() + words);
            };
            EXPECT_EQ(arena(batched), arena(alone)) << ctx;
            if (!lib)
                continue;
            ArenaStore native = init;
            const CppBatch call = cppBatch(*cpp, mod, blocks);
            lib->kernel(p)(native.data(), call.rows.data(),
                           call.consts.data(), call.n);
            EXPECT_EQ(arena(batched), arena(native)) << ctx;
        }
    }
}

// ----------------------------------------------------------------------
// The per-module optimization pass. Each test pins one rewrite's limit
// on a block built to tempt it, by the shape of the optimized program
// and by running it once, on the VM and as an emitted kernel, against
// known inputs.

/**
 * The optimized program of a one-block design, run once on either
 * engine: the VM, or the kernel the C++ emitter makes of it.
 */
struct OneBlock
{
    std::shared_ptr<Elaboration> elab;
    ArenaStore store;
    BcModule mod;

    explicit OneBlock(Model &top)
        : elab(top.elaborate()), store(*elab), mod(*elab, store, {0})
    {
        EXPECT_EQ(elab->blocks.size(), 1u);
    }

    const BcProgram &prog() const { return *mod.instance(0).prog; }

    void
    set(Signal &sig, uint64_t v)
    {
        store.write(sig.netId(), Bits(sig.nbits(), v));
    }

    uint64_t
    get(Signal &sig) const
    {
        return store.read(sig.netId()).toUint64();
    }

    void
    run(bool native)
    {
        if (!native) {
            std::vector<uint64_t> frame(mod.frameWords(), 0);
            bcRunBatch(mod.batch({0}), store.data(), frame.data());
            return;
        }
        CppProgram prog = cppEmitProgram(mod);
        const CppBatch call = cppBatch(prog, mod, {0});
        const KernelDir dir;
        CppJit jit(dir.path(), false);
        jit.compile(prog.source, 1).kernel(0)(store.data(), call.rows.data(),
                                              call.consts.data(), call.n);
    }
};

/** The engines a OneBlock can run on here. */
std::vector<bool>
engines()
{
    if (CppJit::compilerAvailable())
        return {false, true};
    return {false};
}

int
countOps(const BcProgram &prog, Bc op)
{
    return static_cast<int>(std::count_if(
        prog.insts.begin(), prog.insts.end(),
        [op](const BcInst &in) { return in.op == op; }));
}

/** Recomputes x ^ b after each kind of write to x, and a ^ b twice. */
class RecomputeAfterWrite : public Model
{
  public:
    InPort a, b;
    OutPort x, y, p, q, r, s, u, v, n;

    RecomputeAfterWrite()
        : Model(nullptr, "top"), a(this, "a", 8), b(this, "b", 8),
          x(this, "x", 8), y(this, "y", 8), p(this, "p", 8),
          q(this, "q", 8), r(this, "r", 8), s(this, "s", 8),
          u(this, "u", 8), v(this, "v", 8), n(this, "n", 8)
    {
        auto &c = combinational("comb");
        c.assign(x, rd(a) + 1);
        c.assign(p, rd(x) ^ rd(b));
        c.assign(x, rd(a) + 2); // a whole write to x
        c.assign(q, rd(x) ^ rd(b));
        c.assign(y, rd(a));
        c.assign(r, rd(y) ^ rd(b));
        c.assignSlice(y, 0, 4, rd(b).slice(0, 4)); // a partial write
        c.assign(s, rd(y) ^ rd(b));
        c.assign(u, rd(a) ^ rd(b));
        c.assign(v, rd(b) ^ rd(a)); // nothing in between
        // p's value: its Xor read x before x was written again.
        c.assign(n, (rd(a) + 1) ^ rd(b));
    }
};

TEST(BcOpt, NoMergeAcrossWriteToReadSlot)
{
    RecomputeAfterWrite top;
    OneBlock blk(top);
    // p, q, r and s each need their own Xor; u and v share one, and n
    // reuses p's.
    EXPECT_EQ(countOps(blk.prog(), Bc::Xor), 5);
    for (bool native : engines()) {
        blk.set(top.a, 0x35);
        blk.set(top.b, 0x9c);
        blk.run(native);
        EXPECT_EQ(blk.get(top.p), 0x36u ^ 0x9c) << native;
        EXPECT_EQ(blk.get(top.q), 0x37u ^ 0x9c) << native;
        EXPECT_EQ(blk.get(top.r), 0x35u ^ 0x9c) << native;
        EXPECT_EQ(blk.get(top.s), 0x3cu ^ 0x9c) << native;
        EXPECT_EQ(blk.get(top.u), 0x35u ^ 0x9c) << native;
        EXPECT_EQ(blk.get(top.v), 0x35u ^ 0x9c) << native;
        EXPECT_EQ(blk.get(top.n), 0x36u ^ 0x9c) << native;
    }
}

/** Computes a + b before a branch, in each arm and after the join. */
class AcrossBranches : public Model
{
  public:
    InPort a, b, c1, c2;
    OutPort p, q, s, r;

    AcrossBranches()
        : Model(nullptr, "top"), a(this, "a", 8), b(this, "b", 8),
          c1(this, "c1", 1), c2(this, "c2", 1), p(this, "p", 8),
          q(this, "q", 8), s(this, "s", 8), r(this, "r", 8)
    {
        auto &c = combinational("comb");
        c.assign(p, rd(a) + rd(b));
        c.if_(rd(c1), [&] { c.assign(q, rd(a) + rd(b)); },
              [&] { c.assign(q, rd(a) - rd(b)); });
        c.if_(rd(c2), [&] { c.assign(s, rd(a) ^ rd(b)); },
              [&] { c.assign(s, rd(a) + rd(b)); });
        c.assign(r, rd(a) + rd(b)); // after a join
    }
};

TEST(BcOpt, NoMergeAcrossJzOrJoin)
{
    AcrossBranches top;
    OneBlock blk(top);
    // Before the first Jz, after it, in the second else arm, and after
    // the join that arm falls into.
    EXPECT_EQ(countOps(blk.prog(), Bc::Add), 4);
    for (bool native : engines()) {
        for (uint64_t cond : {0, 1}) {
            blk.set(top.a, 0x35);
            blk.set(top.b, 0x21);
            blk.set(top.c1, cond);
            blk.set(top.c2, cond);
            blk.run(native);
            EXPECT_EQ(blk.get(top.p), 0x56u) << cond << native;
            EXPECT_EQ(blk.get(top.q), cond ? 0x56u : 0x14u) << cond;
            EXPECT_EQ(blk.get(top.s), cond ? 0x14u : 0x56u) << cond;
            EXPECT_EQ(blk.get(top.r), 0x56u) << cond << native;
        }
    }
}

/** An expression read only by a SetSlice, next to a forwardable one. */
class SliceTarget : public Model
{
  public:
    InPort a, b;
    OutPort y, w;

    SliceTarget()
        : Model(nullptr, "top"), a(this, "a", 4), b(this, "b", 4),
          y(this, "y", 8), w(this, "w", 4)
    {
        auto &c = combinational("comb");
        c.assign(y, rd(a).zext(8));
        c.assignSlice(y, 4, 4, rd(a) + rd(b));
        c.assign(w, rd(a) ^ rd(b));
    }
};

TEST(BcOpt, NoForwardIntoSetSlice)
{
    SliceTarget top;
    OneBlock blk(top);
    const BcProgram &prog = blk.prog();
    const int scratch = prog.scratchBase() + prog.ntemps;
    ASSERT_EQ(countOps(prog, Bc::SetSlice), 1);
    for (const BcInst &in : prog.insts) {
        if (in.op == Bc::Add || in.op == Bc::SetSlice) {
            EXPECT_GE(in.op == Bc::Add ? in.dst : in.a, scratch);
        }
        if (in.op == Bc::Xor) {
            EXPECT_LT(in.dst, prog.nslots); // forwarded into w
        }
    }
    for (bool native : engines()) {
        blk.set(top.a, 0x9);
        blk.set(top.b, 0xc);
        blk.run(native);
        EXPECT_EQ(blk.get(top.y), 0x59u) << native;
        EXPECT_EQ(blk.get(top.w), 0x5u) << native;
    }
}

/** Loads of one address before and after a store to the array. */
class LoadStoreLoad : public Model
{
  public:
    InPort i, j, d;
    OutPort q1, q2, q3;
    MemArray mem;

    LoadStoreLoad()
        : Model(nullptr, "top"), i(this, "i", 3), j(this, "j", 3),
          d(this, "d", 8), q1(this, "q1", 8), q2(this, "q2", 8),
          q3(this, "q3", 8), mem(this, "mem", 8, 8)
    {
        auto &t = tickRtl("seq");
        t.assign(q1, aread(mem, rd(i)));
        t.writeArray(mem, rd(j), rd(d));
        t.assign(q2, aread(mem, rd(i)));
        t.assign(q3, aread(mem, rd(i)));
    }
};

TEST(BcOpt, NoLoadMergedPastStore)
{
    LoadStoreLoad top;
    OneBlock blk(top);
    // q2 and q3 share a load; q1's comes before the store.
    EXPECT_EQ(countOps(blk.prog(), Bc::ALoad), 2);
    for (bool native : engines()) {
        blk.store.arrayWrite(top.mem.arrayId(), 5, Bits(8, 0x11));
        blk.set(top.i, 5);
        blk.set(top.j, 5);
        blk.set(top.d, 0x77);
        blk.run(native);
        auto next = [&](Signal &q) {
            return blk.store.readNext(q.netId()).toUint64();
        };
        EXPECT_EQ(next(top.q1), 0x11u) << native;
        EXPECT_EQ(next(top.q2), 0x77u) << native;
        EXPECT_EQ(next(top.q3), 0x77u) << native;
    }
}

/**
 * Logic ops and selects on operands a bitwise shortcut gets wrong: LAnd
 * and LOr of nonzero values that share no bit, a Mux whose select has
 * only its top bit set, and a Mux with a load arm whose index is wider
 * than the array's depth.
 */
class SelectsOnTruth : public Model
{
  public:
    InPort a, b, sel, i, y;
    OutPort land, lor, pick, load;
    MemArray mem;

    SelectsOnTruth()
        : Model(nullptr, "top"), a(this, "a", 8), b(this, "b", 8),
          sel(this, "sel", 64), i(this, "i", 8), y(this, "y", 8),
          land(this, "land", 1), lor(this, "lor", 1),
          pick(this, "pick", 8), load(this, "load", 8),
          mem(this, "mem", 8, 4)
    {
        auto &c = combinational("comb");
        c.assign(land, rd(a) && rd(b));
        c.assign(lor, rd(a) || rd(b));
        c.assign(pick, mux(rd(sel), rd(a), rd(b)));
        c.assign(load, mux(rd(sel), aread(mem, rd(i)), rd(y)));
    }
};

TEST(BcOpt, SelectsAndLogicOpsTestTruth)
{
    SelectsOnTruth top;
    OneBlock blk(top);
    EXPECT_EQ(countOps(blk.prog(), Bc::Mux), 2);
    EXPECT_EQ(countOps(blk.prog(), Bc::ALoad), 1);
    struct Case
    {
        uint64_t a, b, sel, land, lor, pick, load;
    };
    // The load reads mem[0xfe & 3] even when its arm is not taken.
    const Case cases[] = {
        {2, 4, uint64_t(1) << 63, 1, 1, 2, 0x5c},
        {2, 4, 0, 1, 1, 4, 0x33},
        {2, 0, uint64_t(1) << 63, 0, 1, 2, 0x5c},
        {0, 4, 0, 0, 1, 4, 0x33},
        {0, 0, uint64_t(1) << 63, 0, 0, 0, 0x5c},
    };
    for (bool native : engines()) {
        for (const Case &k : cases) {
            blk.store.arrayWrite(top.mem.arrayId(), 2, Bits(8, 0x5c));
            blk.set(top.a, k.a);
            blk.set(top.b, k.b);
            blk.set(top.sel, k.sel);
            blk.set(top.i, 0xfe);
            blk.set(top.y, 0x33);
            blk.run(native);
            const std::string ctx = std::to_string(k.a) + "," +
                                    std::to_string(k.b) + "," +
                                    std::to_string(k.sel) + " native " +
                                    std::to_string(native);
            EXPECT_EQ(blk.get(top.land), k.land) << ctx;
            EXPECT_EQ(blk.get(top.lor), k.lor) << ctx;
            EXPECT_EQ(blk.get(top.pick), k.pick) << ctx;
            EXPECT_EQ(blk.get(top.load), k.load) << ctx;
        }
    }
}

/** Uses its per-instance constant k twice, and one constant all share. */
class LaneConst : public Model
{
  public:
    InPort a;
    OutPort p;
    const uint64_t k;

    LaneConst(Model *parent, const std::string &name, uint64_t k)
        : Model(parent, name), a(this, "a", 8), p(this, "p", 8), k(k)
    {
        auto &c = combinational("comb");
        c.assign(p, ((rd(a) + lit(8, k)) ^ (rd(a) & lit(8, k))) +
                        lit(8, 0x5a));
    }
};

TEST(BcOpt, VaryingConstantsStayPerLane)
{
    class Top : public Model
    {
      public:
        std::vector<std::unique_ptr<LaneConst>> leaves;
        Top() : Model(nullptr, "top")
        {
            for (uint64_t k : {0x11, 0x22, 0x33}) {
                leaves.push_back(std::make_unique<LaneConst>(
                    this, "l" + std::to_string(k), k));
            }
        }
    } top;
    auto elab = top.elaborate();
    ArenaStore store(*elab);
    ASSERT_EQ(elab->blocks.size(), 3u);
    BcModule mod(*elab, store, {0, 1, 2});
    ASSERT_EQ(mod.numPrograms(), 1);
    const BcProgram &prog = *mod.instance(0).prog;
    // Both occurrences of k share one column; 0x5a is an immediate.
    EXPECT_EQ(prog.nconsts, 1);
    EXPECT_EQ(prog.imms, std::vector<uint64_t>{0x5a});
    for (auto &leaf : top.leaves)
        store.write(leaf->a.netId(), Bits(8, 0x0f));
    std::vector<uint64_t> frame(mod.frameWords(), 0);
    bcRunBatch(mod.batch({0, 1, 2}), store.data(), frame.data());
    for (auto &leaf : top.leaves) {
        const uint64_t k = leaf->k;
        EXPECT_EQ(store.read(leaf->p.netId()).toUint64(),
                  (((0x0f + k) ^ (0x0f & k)) + 0x5a) & 0xff)
            << k;
    }
}

/** Ops on immediates alone, Muxes on an immediate select, ifs on one. */
class ImmediateOperands : public Model
{
  public:
    InPort a, b;
    OutPort x, y, z, w, v, u;

    ImmediateOperands()
        : Model(nullptr, "top"), a(this, "a", 8), b(this, "b", 8),
          x(this, "x", 8), y(this, "y", 8), z(this, "z", 8),
          w(this, "w", 8), v(this, "v", 8), u(this, "u", 8)
    {
        auto &c = combinational("comb");
        c.assign(x, (lit(8, 0x35) + lit(8, 0x21)) ^ rd(a));
        c.assign(y, mux(lit(1, 1), rd(a), rd(b)) + rd(b));
        c.assign(z, mux(lit(8, 3) == lit(8, 4), rd(a), rd(b)));
        c.assign(w, mux(lit(1, 1), lit(8, 0x11), lit(8, 0x22)) << lit(8, 2));
        c.if_(lit(1, 0), [&] { c.assign(v, rd(a)); },
              [&] { c.assign(v, rd(b) - lit(8, 1)); });
        c.if_(lit(1, 1), [&] { c.assign(u, rd(a) | rd(b)); });
    }
};

TEST(BcOpt, ImmediateOperandsFold)
{
    ImmediateOperands top;
    OneBlock blk(top);
    // x's Add, every Mux, w's shift and both Jz fold; y's Add, v's Sub
    // and u's Or remain, and w is a Mov of an immediate.
    EXPECT_EQ(countOps(blk.prog(), Bc::Add), 1);
    EXPECT_EQ(countOps(blk.prog(), Bc::Mux), 0);
    EXPECT_EQ(countOps(blk.prog(), Bc::Shl), 0);
    EXPECT_EQ(countOps(blk.prog(), Bc::Eq), 0);
    EXPECT_EQ(countOps(blk.prog(), Bc::Jz), 0);
    EXPECT_EQ(countOps(blk.prog(), Bc::Sub), 1);
    EXPECT_EQ(countOps(blk.prog(), Bc::Or), 1);
    for (bool native : engines()) {
        blk.set(top.a, 0x9c);
        blk.set(top.b, 0x47);
        blk.run(native);
        EXPECT_EQ(blk.get(top.x), 0x56u ^ 0x9c) << native;
        EXPECT_EQ(blk.get(top.y), (0x9cu + 0x47) & 0xff) << native;
        EXPECT_EQ(blk.get(top.z), 0x47u) << native;
        EXPECT_EQ(blk.get(top.w), 0x44u) << native;
        EXPECT_EQ(blk.get(top.v), 0x46u) << native;
        EXPECT_EQ(blk.get(top.u), 0x9cu | 0x47) << native;
    }
}

TEST(BcOpt, MeshProgramsStayCompact)
{
    // Lane-instructions per cycle, counted statically (a batch runs
    // each instruction of its program once per lane), and the largest
    // frame, on the 16x16 RTL mesh.
    net::MeshTrafficTop top("top", net::NetLevel::RTL, 256, 4, 0.30, 1);
    auto sim =
        makeSimulator(top.elaborate(), SimConfig::fromString("bytecode"));
    size_t lane_insts = 0;
    int frame = 0;
    for (const BcBatch &batch : sim->bytecodeBatches()) {
        lane_insts += batch.prog->insts.size() * batch.nlanes;
        frame = std::max(frame, batch.prog->frameSize());
    }
    // 2,560 of them Mov an immediate into a net: stores, which do not
    // fold.
    EXPECT_LE(lane_insts, 176640u);
    EXPECT_LE(frame, 64);
}

} // namespace
} // namespace cmtl
