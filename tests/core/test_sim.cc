#include <gtest/gtest.h>

#include <cctype>
#include <deque>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "core/psim.h"
#include "core/sim.h"
#include "test_models.h"

namespace cmtl {
namespace {

using testmodels::allModes;
using testmodels::Counter;
using testmodels::modeName;
using testmodels::Mux;
using testmodels::MuxReg;
using testmodels::Register;

class SimModes : public ::testing::TestWithParam<testmodels::ModeParam>
{};

TEST_P(SimModes, RegisterDelaysByOneCycle)
{
    auto top = std::make_unique<Register>(nullptr, "top", 8);
    auto elab = top->elaborate();
    SimulationTool sim(elab, GetParam());

    top->in_.setValue(uint64_t(0xab));
    EXPECT_EQ(top->out.u64(), 0u);
    sim.cycle();
    EXPECT_EQ(top->out.u64(), 0xabu);
    top->in_.setValue(uint64_t(0xcd));
    EXPECT_EQ(top->out.u64(), 0xabu); // not yet clocked
    sim.cycle();
    EXPECT_EQ(top->out.u64(), 0xcdu);
}

TEST_P(SimModes, MuxIsCombinational)
{
    auto top = std::make_unique<Mux>(nullptr, "top", 8, 4);
    auto elab = top->elaborate();
    SimulationTool sim(elab, GetParam());

    for (int i = 0; i < 4; ++i)
        top->in_[i].setValue(uint64_t(0x10 + i));
    for (int i = 0; i < 4; ++i) {
        top->sel.setValue(uint64_t(i));
        sim.eval();
        EXPECT_EQ(top->out.u64(), 0x10u + i);
    }
}

TEST_P(SimModes, MuxRegComposition)
{
    // Paper Figure 4's test bench, across every execution mode.
    auto top = std::make_unique<MuxReg>(nullptr, "top", 8, 4);
    auto elab = top->elaborate();
    SimulationTool sim(elab, GetParam());

    for (int i = 0; i < 4; ++i)
        top->in_[i].setValue(uint64_t(0x40 + i));
    for (int i = 0; i < 4; ++i) {
        top->sel.setValue(uint64_t(i));
        sim.cycle();
        EXPECT_EQ(top->out.u64(), 0x40u + i);
    }
}

TEST_P(SimModes, CounterWithResetAndEnable)
{
    auto top = std::make_unique<Counter>(nullptr, "top", 8);
    auto elab = top->elaborate();
    SimulationTool sim(elab, GetParam());

    top->en.setValue(uint64_t(1));
    sim.cycle(3);
    EXPECT_EQ(top->count.u64(), 3u);
    top->en.setValue(uint64_t(0));
    sim.cycle(5);
    EXPECT_EQ(top->count.u64(), 3u);
    sim.reset();
    EXPECT_EQ(top->count.u64(), 0u);
    top->en.setValue(uint64_t(1));
    sim.cycle();
    EXPECT_EQ(top->count.u64(), 1u);
    EXPECT_EQ(sim.numCycles(), 10u);
}

TEST_P(SimModes, CounterWrapsAtWidth)
{
    auto top = std::make_unique<Counter>(nullptr, "top", 4);
    auto elab = top->elaborate();
    SimulationTool sim(elab, GetParam());
    top->en.setValue(uint64_t(1));
    sim.cycle(20);
    EXPECT_EQ(top->count.u64(), 4u); // 20 mod 16
}

TEST_P(SimModes, LambdaTickAccumulator)
{
    // FL-style model: arbitrary host code in a tick block.
    class Accum : public Model
    {
      public:
        InPort in_;
        OutPort sum;
        Accum()
            : Model(nullptr, "accum"), in_(this, "in_", 16),
              sum(this, "sum", 16)
        {
            tickFl("logic", [this] {
                sum.setNext(sum.value() + in_.value());
            }, {&sum});
        }
    };
    auto top = std::make_unique<Accum>();
    auto elab = top->elaborate();
    SimulationTool sim(elab, GetParam());

    top->in_.setValue(uint64_t(10));
    sim.cycle(3);
    EXPECT_EQ(top->sum.u64(), 30u);
    top->in_.setValue(uint64_t(5));
    sim.cycle();
    EXPECT_EQ(top->sum.u64(), 35u);
}

TEST_P(SimModes, MixedIrAndLambdaPipeline)
{
    // Lambda tick produces values consumed by IR comb and registered
    // by IR tick: exercises specialization boundaries.
    class Mixed : public Model
    {
      public:
        Wire stage0, stage1;
        OutPort out;
        uint64_t n = 0;
        Mixed()
            : Model(nullptr, "mixed"), stage0(this, "stage0", 32),
              stage1(this, "stage1", 32), out(this, "out", 32)
        {
            tickFl("produce", [this] { stage0.setNext(++n); }, {&stage0});
            auto &c = combinational("triple");
            c.assign(stage1, rd(stage0) * lit(32, 3));
            auto &t = tickRtl("capture");
            t.assign(out, rd(stage1));
        }
    };
    auto top = std::make_unique<Mixed>();
    auto elab = top->elaborate();
    SimulationTool sim(elab, GetParam());

    sim.cycle(5);
    // After 5 cycles: stage0 = 5 (just flopped), out = 3 * 4.
    EXPECT_EQ(top->stage0.u64(), 5u);
    EXPECT_EQ(top->out.u64(), 12u);
}

TEST_P(SimModes, WideSignalsFallBackGracefully)
{
    // 80-bit datapath: outside the specializable subset, must still
    // simulate correctly in every mode.
    class WidePass : public Model
    {
      public:
        InPort in_;
        OutPort out;
        WidePass()
            : Model(nullptr, "wide"), in_(this, "in_", 80),
              out(this, "out", 80)
        {
            auto &b = tickRtl("seq");
            b.assign(out, rd(in_) + lit(80, 1));
        }
    };
    auto top = std::make_unique<WidePass>();
    auto elab = top->elaborate();
    SimulationTool sim(elab, GetParam());
    if (specializes(GetParam().backend())) {
        EXPECT_EQ(sim.specStats().numSpecialized, 0);
    }

    Bits wide = Bits::fromWords(80, {~uint64_t(0), 0xff});
    top->in_.setValue(wide);
    sim.cycle();
    Bits expect = wide + Bits(80, 1);
    EXPECT_EQ(top->out.value(), expect);
}

TEST_P(SimModes, SliceAssignmentMergesFields)
{
    class SliceWriter : public Model
    {
      public:
        InPort lo, hi;
        OutPort out;
        SliceWriter()
            : Model(nullptr, "slicer"), lo(this, "lo", 8),
              hi(this, "hi", 8), out(this, "out", 16)
        {
            auto &b = combinational("comb");
            b.assignSlice(out, 0, 8, rd(lo));
            b.assignSlice(out, 8, 8, rd(hi));
        }
    };
    auto top = std::make_unique<SliceWriter>();
    auto elab = top->elaborate();
    SimulationTool sim(elab, GetParam());
    top->lo.setValue(uint64_t(0x34));
    top->hi.setValue(uint64_t(0x12));
    sim.eval();
    EXPECT_EQ(top->out.u64(), 0x1234u);
}

TEST_P(SimModes, SpecializationStatsAreReported)
{
    auto top = std::make_unique<MuxReg>(nullptr, "top", 8, 4);
    auto elab = top->elaborate();
    SimulationTool sim(elab, GetParam());
    const SpecStats &stats = sim.specStats();
    EXPECT_EQ(stats.numBlocks, 2);
    if (!specializes(GetParam().backend())) {
        EXPECT_EQ(stats.numSpecialized, 0);
    } else {
        EXPECT_EQ(stats.numSpecialized, 2);
        EXPECT_GE(stats.codegenSeconds, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SimModes, ::testing::ValuesIn(allModes()),
    [](const ::testing::TestParamInfo<testmodels::ModeParam> &info) {
        return modeName(info.param);
    });

// ----------------------------------------------------------------------
// Cross-mode equivalence: every mode must produce the identical cycle-
// by-cycle trace for a pseudo-random composite design.

TEST(SimEquivalence, AllModesProduceIdenticalTraces)
{
    auto run = [](const SimConfig &cfg) {
        auto top = std::make_unique<MuxReg>(nullptr, "top", 8, 4);
        auto elab = top->elaborate();
        SimulationTool sim(elab, cfg);
        std::vector<uint64_t> trace;
        uint64_t seed = 123456789;
        for (int i = 0; i < 50; ++i) {
            seed = seed * 6364136223846793005ull + 1442695040888963407ull;
            for (int p = 0; p < 4; ++p)
                top->in_[p].setValue((seed >> (8 * p)) & 0xff);
            top->sel.setValue((seed >> 33) & 0x3);
            sim.cycle();
            trace.push_back(top->out.u64());
        }
        return trace;
    };

    auto modes = allModes();
    auto golden = run(modes[0]);
    for (size_t i = 1; i < modes.size(); ++i)
        EXPECT_EQ(run(modes[i]), golden) << modeName(modes[i]);
}

/**
 * A default value, then a field override: out = a; out[4:8] = f. The
 * slice assign re-reads `out` after the block's own full write. The
 * lambda version does the same in host code, declaring `out` as both
 * a read and a write.
 */
class SliceOverride : public Model
{
  public:
    InPort a, f;
    OutPort out;

    explicit SliceOverride(bool lambda)
        : Model(nullptr, "top"), a(this, "a", 16), f(this, "f", 4),
          out(this, "out", 16)
    {
        if (lambda) {
            combLambda(
                "comb",
                [this] {
                    out.setValue(a.u64());
                    out.setValue((out.u64() & ~uint64_t(0xf0)) |
                                 f.u64() << 4);
                },
                {&a, &f, &out}, {&out});
            return;
        }
        auto &b = combinational("comb");
        b.assign(out, rd(a));
        b.assignSlice(out, 4, 4, rd(f));
    }
};

template <bool Lambda>
std::vector<uint64_t>
sliceTrace(const SimConfig &cfg)
{
    SliceOverride top(Lambda);
    SimulationTool sim(top.elaborate(), cfg);
    std::vector<uint64_t> trace;
    for (auto [a, f] : {std::pair<uint64_t, uint64_t>{0x1234, 0xa},
                        {0x1234, 0x3},
                        {0xffff, 0x0}}) {
        top.a.setValue(a);
        top.f.setValue(f);
        sim.eval();
        trace.push_back(top.out.u64());
    }
    EXPECT_EQ(trace.front(), 0x12a4u) << cfg;
    return trace;
}

TEST(SimEquivalence, EventAndStaticSchedulesAgree)
{
    auto counterTrace = [](const SimConfig &cfg) {
        Counter top(nullptr, "top", 8);
        SimulationTool sim(top.elaborate(), cfg);
        top.en.setValue(uint64_t(1));
        std::vector<uint64_t> trace;
        for (int i = 0; i < 20; ++i) {
            if (i == 10)
                top.en.setValue(uint64_t(0));
            sim.cycle();
            trace.push_back(top.count.u64());
        }
        return trace;
    };

    // Every backend under both schedules (cpp-design runs only the
    // static one) traces each design identically.
    for (auto trace :
         {+counterTrace, &sliceTrace<false>, &sliceTrace<true>}) {
        std::vector<uint64_t> golden;
        for (const BackendName &row : backendNames()) {
            const bool native = nativeBlocks(row.backend) ||
                                row.backend == Backend::CppDesign;
            if (native && !CppJit::compilerAvailable())
                continue;
            for (SchedMode sched : {SchedMode::Event, SchedMode::Static}) {
                if (row.backend == Backend::CppDesign &&
                    sched == SchedMode::Event)
                    continue;
                SimConfig cfg;
                cfg.backend = row.backend;
                cfg.sched = sched;
                std::vector<uint64_t> got = trace(cfg);
                if (golden.empty())
                    golden = got;
                EXPECT_EQ(got, golden)
                    << row.name
                    << (sched == SchedMode::Event ? " event" : " static");
            }
        }
    }
}

TEST(SimLifecycle, AccessDetachesOnDestruction)
{
    auto top = std::make_unique<Register>(nullptr, "top", 8);
    auto elab = top->elaborate();
    {
        SimulationTool sim(elab);
        top->in_.setValue(uint64_t(1));
    }
    EXPECT_THROW(top->in_.value(), std::logic_error);
}

TEST(SimLifecycle, FailedConstructionDetachesSignals)
{
    // A constructor that throws leaves no signal attached to the
    // half-built simulator. Here the JIT cache directory cannot be
    // created, because its parent is a regular file.
    const std::string file =
        (std::filesystem::temp_directory_path() /
         ("cmtl_not_a_dir_" + std::to_string(::getpid())))
            .string();
    std::ofstream(file) << "x";
    for (int threads : {1, 2}) {
        Register top(nullptr, "top", 8);
        auto elab = top.elaborate();
        SimConfig cfg = SimConfig::fromString("cpp-block");
        cfg.threads = threads;
        cfg.jit_cache_dir = file + "/cache";
        EXPECT_THROW((void)makeSimulator(elab, cfg), std::runtime_error)
            << "threads " << threads;
        EXPECT_EQ(top.in_.access(), nullptr) << "threads " << threads;
    }
    std::filesystem::remove(file);
}

TEST(SimLifecycle, CycleHooksFire)
{
    auto top = std::make_unique<Register>(nullptr, "top", 8);
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    int fired = 0;
    sim.onCycleEnd([&](uint64_t) { ++fired; });
    sim.cycle(7);
    EXPECT_EQ(fired, 7);
}

// ----------------------------------------------- slot-bound signals

/** A tick lambda that stores a host word into an 8-bit register. */
class HostReg : public Model
{
  public:
    OutPort q;
    uint64_t word = 0;
    bool as_bits = false; //!< store through setNext(Bits(16, word))

    HostReg() : Model(nullptr, "host"), q(this, "q", 8)
    {
        tickFl(
            "store",
            [this] {
                if (as_bits)
                    q.setNext(Bits(16, word));
                else
                    q.setNext(word);
            },
            {&q});
    }
};

TEST(SimSlotBinding, AccessThrowsOnceTheSimulatorIsGone)
{
    HostReg top;
    auto elab = top.elaborate();
    {
        SimulationTool sim(elab, SimConfig::fromString("optinterp"));
        ASSERT_TRUE(top.q.slotBound());
        // The lambda declares q, so its setNext stores the bound
        // next-phase word directly, masked to the width.
        top.as_bits = true;
        top.word = 0x1234;
        sim.cycle();
        EXPECT_EQ(top.q.u64(), 0x34u);
        top.as_bits = false;
        top.word = 0x1ff;
        sim.cycle();
        EXPECT_EQ(top.q.value(), Bits(8, 0xff));
        EXPECT_EQ(sim.layoutStats().slot_bound_signals,
                  static_cast<int>(elab->signals.size()));
    }
    EXPECT_FALSE(top.q.slotBound());
    EXPECT_THROW(top.q.u64(), std::logic_error);
    EXPECT_THROW(top.q.value(), std::logic_error);
    EXPECT_THROW(top.q.setNext(uint64_t(1)), std::logic_error);
    EXPECT_THROW(top.q.setNext(Bits(8, 1)), std::logic_error);
}

TEST(SimSlotBinding, DestroyingTheOlderSimulatorKeepsTheNewerBinding)
{
    auto top = std::make_unique<Register>(nullptr, "top", 8);
    auto elab = top->elaborate();
    const SimConfig cfg = SimConfig::fromString("bytecode");
    auto older = std::make_unique<SimulationTool>(elab, cfg);
    SimulationTool newer(elab, cfg);
    EXPECT_EQ(older->layoutStats().slot_bound_signals, 0);
    older.reset();

    ASSERT_TRUE(top->in_.slotBound());
    top->in_.setValue(uint64_t(7));
    newer.cycle();
    EXPECT_EQ(top->out.u64(), 7u);
    EXPECT_EQ(newer.readNet(top->out.netId()), Bits(8, 7));
    EXPECT_EQ(newer.layoutStats().slot_bound_signals,
              static_cast<int>(elab->signals.size()));
}

TEST(SimSlotBinding, ParSimBindsCoordinatorSignals)
{
    auto top = std::make_unique<MuxReg>(nullptr, "top");
    auto elab = top->elaborate();
    SimConfig cfg = SimConfig::fromString("bytecode");
    auto seq = std::make_unique<SimulationTool>(elab, cfg);
    ASSERT_TRUE(top->sel.slotBound());

    // ParSim rebinds every narrow signal to its home replica's word,
    // and destroying the older sequential kernel leaves that binding.
    cfg.threads = 2;
    auto par = makeSimulator(elab, cfg);
    seq.reset();
    for (const Signal *sig : elab->signals)
        EXPECT_TRUE(sig->slotBound()) << sig->fullName();
    EXPECT_EQ(par->layoutStats().slot_bound_signals,
              static_cast<int>(elab->signals.size()));

    top->in_[2].setValue(uint64_t(0x5a));
    top->sel.setValue(uint64_t(2));
    par->cycle();
    EXPECT_EQ(top->out.u64(), 0x5au);
    EXPECT_EQ(par->readNet(top->out.netId()), Bits(8, 0x5a));
}

/** A comb lambda's blocking write feeds an IR comb block. */
class CombLambdaChain : public Model
{
  public:
    InPort in_;
    Wire mid;
    OutPort out;

    CombLambdaChain()
        : Model(nullptr, "chain"), in_(this, "in_", 16),
          mid(this, "mid", 16), out(this, "out", 16)
    {
        combLambda(
            "inc", [this] { mid.setValue(in_.u64() + 1); }, {&in_},
            {&mid});
        auto &c = combinational("dbl");
        c.assign(out, rd(mid) * lit(16, 2));
    }
};

TEST(SimSlotBinding, CombLambdaSetValueWakesReaders)
{
    SimConfig event = SimConfig::fromString("optinterp");
    event.sched = SchedMode::Event;
    std::vector<SimConfig> cfgs = {event,
                                   SimConfig::fromString("optinterp"),
                                   SimConfig::fromString("bytecode")};
    for (const SimConfig &cfg : cfgs) {
        const std::string ctx =
            cfg.toString() +
            (cfg.sched == SchedMode::Event ? " event" : " static");
        CombLambdaChain top;
        SimulationTool sim(top.elaborate(), cfg);
        ASSERT_TRUE(top.in_.slotBound()) << ctx;
        top.in_.setValue(uint64_t(1));
        sim.eval();
        EXPECT_EQ(top.out.u64(), 4u) << ctx;
        top.in_.setValue(uint64_t(5));
        sim.eval();
        EXPECT_EQ(top.out.u64(), 12u) << ctx;
        // An idle cycle, then a write the next cycle must propagate.
        sim.cycle();
        top.in_.setValue(uint64_t(20));
        sim.cycle();
        EXPECT_EQ(top.out.u64(), 42u) << ctx;
    }
}

/**
 * A comb lambda between an input and an IR comb block, and a tick
 * lambda that accumulates the IR block's output into a register an IR
 * tick block reads.
 */
class LambdaMix : public Model
{
  public:
    InPort in_;
    Wire mid, acc;
    OutPort out, q;

    LambdaMix()
        : Model(nullptr, "mix"), in_(this, "in_", 16),
          mid(this, "mid", 16), acc(this, "acc", 16), out(this, "out", 16),
          q(this, "q", 16)
    {
        combLambda(
            "inc", [this] { mid.setValue(in_.u64() + 1); }, {&in_},
            {&mid});
        auto &c = combinational("dbl");
        c.assign(out, rd(mid) * lit(16, 2));
        tickFl(
            "accumulate", [this] { acc.setNext(acc.u64() + out.u64()); },
            {&acc});
        auto &t = tickRtl("seq");
        t.assign(q, rd(acc) ^ rd(in_));
    }
};

TEST(SimSlotBinding, ParSimLeavesCombLambdaSignalsVirtual)
{
    auto trace = [](int threads, std::vector<uint64_t> &out) {
        LambdaMix top;
        SimConfig cfg = SimConfig::fromString("bytecode");
        cfg.threads = threads;
        auto sim = makeSimulator(top.elaborate(), cfg);
        const std::string ctx = "threads " + std::to_string(threads);
        if (threads > 1) {
            // Worker threads run the comb lambda against their own
            // replica, so what it reads or writes stays virtual.
            EXPECT_FALSE(top.in_.slotBound()) << ctx;
            EXPECT_FALSE(top.mid.slotBound()) << ctx;
            for (Signal *sig :
                 std::vector<Signal *>{&top.acc, &top.out, &top.q})
                EXPECT_TRUE(sig->slotBound()) << ctx << sig->name();
            EXPECT_EQ(sim->layoutStats().slot_bound_signals,
                      static_cast<int>(sim->elaboration().signals.size()) -
                          2)
                << ctx;
        }
        for (int c = 0; c < 24; ++c) {
            top.in_.setValue(uint64_t(c * 37 + 5));
            sim->cycle();
            for (Signal *sig :
                 std::vector<Signal *>{&top.mid, &top.acc, &top.out, &top.q})
                out.push_back(sig->u64());
        }
    };
    std::vector<uint64_t> golden;
    trace(1, golden);
    for (int threads : {2, 4}) {
        std::vector<uint64_t> got;
        trace(threads, got);
        EXPECT_EQ(got, golden) << "threads " << threads;
    }
}

// ------------------------------------------ tick lambda declarations

/** The backends and thread counts every tick-lambda test runs on. */
std::vector<SimConfig>
tickLambdaConfigs()
{
    std::vector<SimConfig> cfgs;
    for (const char *backend :
         {"interp", "optinterp", "bytecode", "cpp-design", "interp+bytecode",
          "interp+cpp-block"})
        cfgs.push_back(SimConfig::fromString(backend));
    // ParSim takes the arena-hosted backends.
    for (const char *backend : {"optinterp", "bytecode", "cpp-design"}) {
        cfgs.push_back(SimConfig::fromString(backend));
        cfgs.back().threads = 2;
    }
    for (SimConfig &cfg : cfgs)
        cfg.jit_tiered = false;
    return cfgs;
}

class SimTickLambda : public ::testing::TestWithParam<SimConfig>
{
  protected:
    void
    SetUp() override
    {
        const Backend b = GetParam().backend;
        if ((b == Backend::CppDesign || nativeBlocks(b)) &&
            !CppJit::compilerAvailable())
            GTEST_SKIP() << "no host compiler";
    }
};

/**
 * A tick lambda that declares @c ok and, once @c target is set, also
 * writes it: @c stray, which no block declares, or @c reg, which an IR
 * tick block flops.
 */
class StrayWrite : public Model
{
  public:
    InPort in_;
    Wire ok, stray;
    OutPort reg;
    Signal *target = nullptr;

    StrayWrite()
        : Model(nullptr, "stray"), in_(this, "in_", 8), ok(this, "ok", 8),
          stray(this, "stray_net", 8), reg(this, "reg", 8)
    {
        tickFl(
            "drive",
            [this] {
                ok.setNext(in_.u64() + 1);
                if (target)
                    target->setNext(uint64_t(1));
            },
            {&ok});
        auto &t = tickRtl("capture");
        t.assign(reg, rd(ok));
    }
};

TEST_P(SimTickLambda, UndeclaredWriteThrows)
{
    for (bool ir_flop : {false, true}) {
        StrayWrite top;
        auto sim = makeSimulator(top.elaborate(), GetParam());
        top.in_.setValue(uint64_t(4));
        sim->cycle(3);
        EXPECT_EQ(top.reg.u64(), 5u);
        Signal &target = ir_flop ? static_cast<Signal &>(top.reg)
                                 : static_cast<Signal &>(top.stray);
        top.target = &target;
        try {
            sim->cycle();
            ADD_FAILURE() << "no throw writing " << target.fullName();
        } catch (const std::logic_error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("stray.drive"), std::string::npos) << msg;
            EXPECT_NE(msg.find(target.fullName()), std::string::npos)
                << msg;
        }
        // A test bench may not write a next value either.
        top.target = nullptr;
        EXPECT_THROW(target.setNext(uint64_t(2)), std::logic_error);
    }
}

/**
 * Two tick lambdas: @c owner declares @c held, and @c other declares
 * @c mine and, once @c poach is set, also writes @c held. On the arena
 * backends @c held's next word is slot-bound for @c owner.
 */
class TwoWriters : public Model
{
  public:
    InPort in_;
    Wire held, mine;
    OutPort out;
    bool poach = false;

    TwoWriters()
        : Model(nullptr, "two"), in_(this, "in_", 8), held(this, "held", 8),
          mine(this, "mine", 8), out(this, "out", 8)
    {
        tickFl(
            "owner", [this] { held.setNext(in_.u64() + 1); }, {&held});
        tickFl(
            "other",
            [this] {
                mine.setNext(in_.u64() + 2);
                if (poach)
                    held.setNext(uint64_t(7));
            },
            {&mine});
        combinational("mix").assign(out, rd(held) ^ rd(mine));
    }
};

TEST_P(SimTickLambda, OtherWritersOfADeclaredNetThrow)
{
    TwoWriters top;
    auto sim = makeSimulator(top.elaborate(), GetParam());
    top.in_.setValue(uint64_t(4));
    sim->cycle(2);
    EXPECT_EQ(top.out.u64(), 5u ^ 6u);
    // A test bench may not write the declared net's next value...
    EXPECT_THROW(top.held.setNext(uint64_t(2)), std::logic_error);
    EXPECT_THROW(top.held.setNext(Bits(8, 2)), std::logic_error);
    sim->cycle();
    EXPECT_EQ(top.held.u64(), 5u);
    // ...and neither may a lambda that does not declare it.
    top.poach = true;
    try {
        sim->cycle();
        ADD_FAILURE() << "no throw writing two.held";
    } catch (const std::logic_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("two.other"), std::string::npos) << msg;
        EXPECT_NE(msg.find("two.held"), std::string::npos) << msg;
    }
}

/**
 * A tick lambda that non-blocking-writes @c a from the first cycle and
 * starts writing @c b, its arena neighbour, only after @p late cycles.
 * Both are declared, so both are flops from the start.
 */
class LateFlop : public Model
{
  public:
    InPort in_;
    Wire a, b;
    OutPort out;
    uint64_t n = 0;

    explicit LateFlop(uint64_t late)
        : Model(nullptr, "late"), in_(this, "in_", 8), a(this, "a", 16),
          b(this, "b", 16), out(this, "out", 16)
    {
        tickFl(
            "drive",
            [this, late] {
                ++n;
                a.setNext(n * 3 + in_.u64());
                if (n > late)
                    b.setNext(n * 5);
            },
            {&a, &b});
        auto &t = tickRtl("sum");
        t.assign(out, rd(a) + rd(b));
    }
};

TEST_P(SimTickLambda, LateWritesMatchTheInterpreterTrace)
{
    auto trace = [](const SimConfig &cfg) {
        LateFlop top(6);
        auto sim = makeSimulator(top.elaborate(), cfg);
        std::vector<uint64_t> out;
        for (int c = 0; c < 20; ++c) {
            top.in_.setValue(uint64_t(c * 7));
            sim->cycle();
            out.push_back(top.out.u64());
            out.push_back(top.a.u64());
            out.push_back(top.b.u64());
        }
        return out;
    };
    const std::vector<uint64_t> golden =
        trace(SimConfig::fromString("interp"));
    // b only starts moving after cycle 6.
    EXPECT_EQ(golden[3 * 5 + 2], 0u);
    EXPECT_EQ(golden.back(), 20u * 5);
    EXPECT_EQ(trace(GetParam()), golden);
}

INSTANTIATE_TEST_SUITE_P(
    , SimTickLambda, ::testing::ValuesIn(tickLambdaConfigs()),
    [](const ::testing::TestParamInfo<SimConfig> &info) {
        std::string name = info.param.toString() + "_t" +
                           std::to_string(info.param.threads);
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// ------------------------------------------------- corner net widths

/**
 * Nets at the arena's corner widths: 1, 3 and 17 bits sit in the low
 * part of one word, 64 fills a word exactly and 65 spans two. Every
 * port is mirrored through a register so both comb and flopped values
 * cross the store's write -> flop -> read path.
 */
class WidthsTop : public Model
{
  public:
    InPort in1, in1b, in3, in17, in64, in65;
    OutPort out1, out1b, out3, out17, out64, out65;

    explicit WidthsTop(const std::string &name)
        : Model(nullptr, name), in1(this, "in1", 1),
          in1b(this, "in1b", 1), in3(this, "in3", 3),
          in17(this, "in17", 17), in64(this, "in64", 64),
          in65(this, "in65", 65), out1(this, "out1", 1),
          out1b(this, "out1b", 1), out3(this, "out3", 3),
          out17(this, "out17", 17), out64(this, "out64", 64),
          out65(this, "out65", 65)
    {
        auto &b = tickRtl("regs");
        b.assign(out1, rd(in1));
        b.assign(out1b, rd(in1b));
        b.assign(out3, rd(in3));
        b.assign(out17, rd(in17));
        b.assign(out64, rd(in64));
        b.assign(out65, rd(in65));
    }

    std::string typeName() const override { return "WidthsTop"; }
};

TEST(SimWidths, CornerWidthValuesRoundTrip)
{
    const Bits wide65 = Bits::fromWords(65, {0xdeadbeefcafef00dull, 1});
    for (const char *backend : {"interp", "optinterp", "bytecode"}) {
        WidthsTop top("top");
        SimulationTool sim(top.elaborate(), SimConfig::fromString(backend));
        sim.reset();
        sim.pokeNet(top.in1.netId(), Bits(1, 1));
        sim.pokeNet(top.in1b.netId(), Bits(1, 0));
        sim.pokeNet(top.in3.netId(), Bits(3, 5));
        sim.pokeNet(top.in17.netId(), Bits(17, 0x1ffff));
        sim.pokeNet(top.in64.netId(), Bits(64, 0xa5a5a5a5a5a5a5a5ull));
        sim.pokeNet(top.in65.netId(), wide65);
        sim.cycle(2);

        EXPECT_EQ(sim.readNet(top.out1.netId()), Bits(1, 1)) << backend;
        EXPECT_EQ(sim.readNet(top.out1b.netId()), Bits(1, 0)) << backend;
        EXPECT_EQ(sim.readNet(top.out3.netId()), Bits(3, 5)) << backend;
        EXPECT_EQ(sim.readNet(top.out17.netId()), Bits(17, 0x1ffff))
            << backend;
        EXPECT_EQ(sim.readNet(top.out64.netId()),
                  Bits(64, 0xa5a5a5a5a5a5a5a5ull))
            << backend;
        EXPECT_EQ(sim.readNet(top.out65.netId()), wide65) << backend;

        // Rewriting one net leaves its arena neighbours untouched.
        sim.pokeNet(top.in1.netId(), Bits(1, 0));
        EXPECT_EQ(sim.readNet(top.in1b.netId()), Bits(1, 0)) << backend;
        EXPECT_EQ(sim.readNet(top.in3.netId()), Bits(3, 5)) << backend;
        sim.pokeNet(top.in3.netId(), Bits(3, 2));
        EXPECT_EQ(sim.readNet(top.in3.netId()), Bits(3, 2)) << backend;
        EXPECT_EQ(sim.readNet(top.in17.netId()), Bits(17, 0x1ffff))
            << backend;
    }
}

} // namespace
} // namespace cmtl
