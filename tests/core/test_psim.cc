/**
 * ParSim parallel-vs-sequential equivalence.
 *
 * The contract under test: ParSimulationTool is bit-identical to
 * SimulationTool at any thread count, on every backend it supports —
 * verified on the mesh RTL/CLSpec networks and the multi-tile system by
 * lockstepping a parallel and a sequential simulator over identically
 * constructed designs and comparing every net, the VCD byte stream, and
 * end-to-end workload results.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/ir_bytecode.h"
#include "core/ir_cpp.h"
#include "core/jit_cpp.h"
#include "core/partition.h"
#include "core/psim.h"
#include "core/sim.h"
#include "core/snap.h"
#include "core/store.h"
#include "core/vcd.h"
#include "fuzz/fuzz.h"
#include "net/mesh.h"
#include "net/traffic.h"
#include "tile/multitile.h"
#include "tile/proc.h"
#include "tile/programs.h"
#include "tile/tile.h"

namespace cmtl {
namespace {

using net::MeshTrafficTop;
using net::NetLevel;

SimConfig
parCfg(Backend backend, int threads)
{
    SimConfig cfg;
    cfg.backend = backend;
    cfg.threads = threads;
    return cfg;
}

void
expectSameState(Simulator &seq, Simulator &par, const std::string &ctx)
{
    const auto &nets = seq.elaboration().nets;
    for (const Net &net : nets) {
        ASSERT_EQ(seq.readNet(net.id), par.readNet(net.id))
            << ctx << ": net " << net.name << " diverged at cycle "
            << seq.numCycles();
    }
}

// ------------------------------------------------- mesh equivalence

void
runMeshEquiv(NetLevel level, int nrouters, Backend backend, int threads,
             int cycles)
{
    const double rate = 0.25;
    const uint64_t seed = 7;
    auto ta = std::make_unique<MeshTrafficTop>("top", level, nrouters, 4,
                                               rate, seed);
    auto tb = std::make_unique<MeshTrafficTop>("top", level, nrouters, 4,
                                               rate, seed);
    auto ea = ta->elaborate();
    auto eb = tb->elaborate();
    SimulationTool seq(ea, parCfg(backend, 1));
    ParSimulationTool par(eb, parCfg(backend, threads));

    std::ostringstream ctx;
    ctx << "level=" << static_cast<int>(level) << " backend=" << backend
        << " threads=" << threads;

    // Every comb-driven net a tick block reads is poked halfway through
    // the run: the next cycle's pre-tick settle must overwrite each with
    // its driver's value on both kernels.
    std::vector<char> tick_read(ea->nets.size() + ea->arrays.size(), 0);
    for (const ElabBlock &blk : ea->blocks) {
        if (isTick(blk.kind))
            for (int token : blk.reads)
                tick_read[token] = 1;
    }
    std::vector<int> comb_nets;
    for (const ElabBlock &blk : ea->blocks) {
        if (blk.kind != BlockKind::CombIr)
            continue;
        for (int token : blk.writes) {
            if (token < static_cast<int>(ea->nets.size()) &&
                tick_read[token])
                comb_nets.push_back(token);
        }
    }
    ASSERT_FALSE(comb_nets.empty());

    seq.reset();
    par.reset();
    for (int c = 0; c < cycles; ++c) {
        if (c == cycles / 2) {
            for (int net : comb_nets) {
                Bits v = ~seq.readNet(net);
                seq.pokeNet(net, v);
                par.pokeNet(net, v);
            }
        }
        seq.cycle();
        par.cycle();
        if (c == cycles / 2 || c % 16 == 15)
            expectSameState(seq, par, ctx.str());
    }
    expectSameState(seq, par, ctx.str());
    EXPECT_EQ(ta->stats().generated, tb->stats().generated);
    EXPECT_EQ(ta->stats().received, tb->stats().received);
    EXPECT_EQ(ta->stats().latency_sum, tb->stats().latency_sum);
    EXPECT_EQ(ta->inFlight(), tb->inFlight());
    EXPECT_GT(tb->stats().received, 0u) << "degenerate scenario";
}

class PsimMeshRtl
    : public ::testing::TestWithParam<std::tuple<int, Backend>>
{};

TEST_P(PsimMeshRtl, BitIdenticalOn8x8)
{
    auto [threads, backend] = GetParam();
    runMeshEquiv(NetLevel::RTL, 64, backend, threads, 96);
}

TEST_P(PsimMeshRtl, BitIdenticalOn4x4ClSpec)
{
    auto [threads, backend] = GetParam();
    runMeshEquiv(NetLevel::CLSpec, 16, backend, threads, 128);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndSpec, PsimMeshRtl,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(Backend::OptInterp,
                                         Backend::Bytecode)));

TEST(PsimMeshRtl, BitIdenticalWithCppSpec)
{
    if (!CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";
    runMeshEquiv(NetLevel::RTL, 16, Backend::CppBlock, 2, 64);
}

// -------------------------------------------------- VCD equivalence

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(PsimVcd, ByteIdenticalWaveforms)
{
    const std::string seq_path = ::testing::TempDir() + "psim_seq.vcd";
    const std::string par_path = ::testing::TempDir() + "psim_par.vcd";
    for (int threads : {2, 4}) {
        auto ta = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL,
                                                   16, 4, 0.3, 11);
        auto tb = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL,
                                                   16, 4, 0.3, 11);
        {
            SimulationTool seq(ta->elaborate(),
                               parCfg(Backend::OptInterp, 1));
            VcdWriter vcd(seq, seq_path);
            seq.reset();
            seq.cycle(80);
            vcd.close();
        }
        {
            ParSimulationTool par(tb->elaborate(),
                                  parCfg(Backend::Bytecode, threads));
            VcdWriter vcd(par, par_path);
            par.reset();
            par.cycle(80);
            vcd.close();
        }
        std::string a = slurp(seq_path);
        std::string b = slurp(par_path);
        ASSERT_FALSE(a.empty());
        EXPECT_EQ(a, b) << "VCD streams differ at threads=" << threads;
    }
    std::remove(seq_path.c_str());
    std::remove(par_path.c_str());
}

// --------------------------------------------- multitile equivalence

TEST(PsimMultiTile, MvmultBitIdentical)
{
    using namespace tile;
    Workload w = makeMvmultMultiTile(4, /*use_accel=*/false);

    auto makeSys = [&] {
        auto sys = std::make_unique<MultiTileSystem>(
            "sys", std::vector<std::array<Level, 3>>{
                       {Level::CL, Level::CL, Level::CL},
                       {Level::CL, Level::CL, Level::CL},
                       {Level::CL, Level::CL, Level::CL},
                       {Level::CL, Level::CL, Level::CL}});
        sys->loadProgram(w.image);
        loadMvmultData(sys->memNode(), w);
        return sys;
    };

    auto sys_a = makeSys();
    auto sys_b = makeSys();
    SimulationTool seq(sys_a->elaborate(), parCfg(Backend::Bytecode, 1));
    ParSimulationTool par(sys_b->elaborate(),
                          parCfg(Backend::Bytecode, 4));

    seq.reset();
    par.reset();
    uint64_t cycles = 0;
    const uint64_t max_cycles = 3000000;
    while (!sys_a->allHalted() && cycles < max_cycles) {
        seq.cycle(256);
        par.cycle(256);
        cycles += 256;
        ASSERT_EQ(sys_a->allHalted(), sys_b->allHalted())
            << "halt divergence at cycle " << cycles;
    }
    ASSERT_TRUE(sys_a->allHalted()) << "deadlock after " << cycles;
    seq.cycle(500);
    par.cycle(500);
    expectSameState(seq, par, "multitile");

    auto expect = expectedMvmult(w);
    for (int t = 0; t < sys_b->numTiles(); ++t) {
        uint32_t base =
            w.out_addr + static_cast<uint32_t>(t) * w.n * 4;
        for (int r = 0; r < w.n; ++r) {
            ASSERT_EQ(sys_b->memNode().readWord(
                          base + static_cast<uint32_t>(r) * 4),
                      expect[r])
                << "tile " << t << " row " << r;
        }
    }
}

// ------------------------------------------ next-phase writes at home

/** makeSimulator on bytecode: the sequential kernel at 1 thread. */
std::unique_ptr<Simulator>
bytecodeSim(Model &top, int threads)
{
    SimConfig cfg = SimConfig::fromString("bytecode");
    cfg.threads = threads;
    return makeSimulator(top.elaborate(), cfg);
}

/**
 * ParSim writes a next value to the net's home replica only, the one
 * that flops it. The 8x8 RTL and CL meshes and the CL tile end in the
 * sequential run's state at 2 and 4 threads, and so do the meshes
 * resumed from a snapshot taken halfway, whose restore writes every
 * flop's next value.
 */
TEST(PsimNextWrites, DigestsAndSnapshotsMatchTheSequentialRun)
{
    for (NetLevel level : {NetLevel::RTL, NetLevel::CL}) {
        auto run = [level](int threads, bool resume) {
            MeshTrafficTop top("top", level, 64, 4, 0.3, 1);
            auto sim = bytecodeSim(top, threads);
            sim->reset();
            sim->cycle(150);
            if (resume) {
                const SimSnapshot snap = snapSave(*sim);
                MeshTrafficTop fresh("top", level, 64, 4, 0.3, 1);
                auto again = bytecodeSim(fresh, threads);
                snapRestore(*again, snap);
                again->cycle(150);
                return stateDigest(*again);
            }
            sim->cycle(150);
            return stateDigest(*sim);
        };
        const uint64_t want = run(1, false);
        for (int threads : {2, 4}) {
            const std::string ctx = std::string(level == NetLevel::RTL
                                                    ? "rtl"
                                                    : "cl") +
                                    " threads " + std::to_string(threads);
            EXPECT_EQ(run(threads, false), want) << ctx;
            EXPECT_EQ(run(threads, true), want) << ctx << " resumed";
        }
    }
    auto tileDigest = [](int threads) {
        using namespace tile;
        const Workload w = makeMvmultScalar(4, 4);
        Tile t("tile", Level::CL, Level::CL, Level::CL);
        t.loadProgram(w.image);
        loadMvmultData(t.mem(), w);
        auto sim = bytecodeSim(t, threads);
        sim->reset();
        sim->cycle(2000);
        EXPECT_TRUE(t.proc().numInsts() > 0) << threads;
        return stateDigest(*sim);
    };
    const uint64_t want = tileDigest(1);
    for (int threads : {2, 4})
        EXPECT_EQ(tileDigest(threads), want) << "tile threads " << threads;
}

// ------------------------------------------------ partition sanity

TEST(Partition, InvariantsOnMeshRtl)
{
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 64,
                                                4, 0.2, 3);
    auto elab = top->elaborate();
    for (int n : {1, 2, 4, 8}) {
        PartitionPlan plan = partitionDesign(*elab, n);
        ASSERT_GE(plan.nislands, 1);
        ASSERT_LE(plan.nislands, n);

        // Every assignable block lands in exactly one island.
        std::vector<int> seen(elab->blocks.size(), 0);
        for (const PartitionIsland &isl : plan.islands) {
            for (int b : isl.combBlocks)
                ++seen[b];
            for (int b : isl.tickBlocks)
                ++seen[b];
        }
        for (int b : plan.lambdaTicks)
            ++seen[b];
        for (size_t b = 0; b < elab->blocks.size(); ++b)
            ASSERT_EQ(seen[b], 1) << "block " << elab->blocks[b].name;

        // Superstep levels are nondecreasing within an island, and the
        // mesh (registered queue outputs) must need at most two
        // supersteps regardless of island count.
        for (const PartitionIsland &isl : plan.islands) {
            for (size_t k = 1; k < isl.combLevels.size(); ++k)
                ASSERT_LE(isl.combLevels[k - 1], isl.combLevels[k]);
        }
        ASSERT_LE(plan.nlevels, 2) << "mesh settle depth regressed";

        // Ownership: owned tokens point back at their island.
        for (size_t i = 0; i < plan.islands.size(); ++i) {
            for (int t : plan.islands[i].ownedTokens)
                ASSERT_EQ(plan.ownerOf[t], static_cast<int>(i));
        }
        ASSERT_GE(plan.imbalance(), 1.0);
        if (plan.nislands > 1) {
            ASSERT_GT(plan.cutTokens, 0);
        }

        std::string report = partitionReport(*elab, plan);
        EXPECT_NE(report.find("island"), std::string::npos);
    }
}

TEST(Partition, BalancesMeshAcrossIslands)
{
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 64,
                                                4, 0.2, 3);
    auto elab = top->elaborate();
    PartitionPlan plan = partitionDesign(*elab, 4);
    ASSERT_EQ(plan.nislands, 4);
    // 64 identical routers into 4 islands: near-perfect balance.
    EXPECT_LT(plan.imbalance(), 1.25);
}

TEST(Partition, ClampsAndCompactsDegenerateIslandCounts)
{
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 4,
                                                4, 0.2, 3);
    auto elab = top->elaborate();
    // Far more islands than atomic clusters: the plan must clamp to
    // the effective count, keep every island non-empty, and report a
    // finite imbalance instead of dividing by empty islands.
    PartitionPlan plan = partitionDesign(*elab, 512);
    EXPECT_EQ(plan.requestedIslands, 512);
    ASSERT_GE(plan.nislands, 1);
    ASSERT_LE(plan.nislands, plan.nclusters);
    ASSERT_EQ(static_cast<int>(plan.islands.size()), plan.nislands);
    for (const PartitionIsland &isl : plan.islands) {
        EXPECT_GT(isl.combBlocks.size() + isl.tickBlocks.size(), 0u);
        EXPECT_GT(isl.weight, 0);
    }
    double imb = plan.imbalance();
    EXPECT_GE(imb, 1.0);
    EXPECT_TRUE(std::isfinite(imb));
    std::string report = partitionReport(*elab, plan);
    EXPECT_NE(report.find("requested 512"), std::string::npos);
}

// ------------------------------------ per-block summary invariants

/**
 * Per-node facts of a model tree's whole arena, from one forward pass.
 * A node's operands come before it, so its tree size (every use of a
 * shared node counted) and whether every node, referenced net and
 * array of its tree fits one arena word follow from theirs.
 */
struct ArenaFacts
{
    const IrArena &arena;
    std::vector<long> size;
    std::vector<char> fits;

    ArenaFacts(const IrArena &a, const ArenaStore &store) : arena(a)
    {
        for (IrId id = 0; id < arena.size(); ++id) {
            const IrNode &n = arena[id];
            long sz = 1;
            bool ok = n.nbits <= 64 && (n.kind != IrKind::Ref ||
                                        store.narrow(n.sig->netId()));
            for (IrId arg : arena.args(id)) {
                EXPECT_LT(arg, id) << "operand after its user";
                sz += size[arg];
                ok = ok && fits[arg];
            }
            size.push_back(sz);
            fits.push_back(ok);
        }
    }

    long
    treeCount(IrView e) const
    {
        return e ? size[e.id()] : 0;
    }

    /** Statements plus expression nodes, each use of a node counted. */
    long
    treeCount(const std::vector<IrStmt> &stmts) const
    {
        long n = 0;
        for (const IrStmt &s : stmts) {
            n += 1 + treeCount(s.rhs) + treeCount(s.cond) +
                 treeCount(s.thenBody) + treeCount(s.elseBody);
        }
        return n;
    }

    bool
    fitsWord(IrView e) const
    {
        return !e || fits[e.id()];
    }

    bool
    fitsWord(const std::vector<IrStmt> &stmts, const ArenaStore &store) const
    {
        for (const IrStmt &s : stmts) {
            if (s.sig && !store.narrow(s.sig->netId()))
                return false;
            if (!fitsWord(s.rhs) || !fitsWord(s.cond) ||
                !fitsWord(s.thenBody, store) || !fitsWord(s.elseBody, store))
                return false;
        }
        return true;
    }
};

/** The partition weight the summary must equal. */
long
referenceWeight(const ElabBlock &blk, const ArenaFacts &facts)
{
    return blk.ir ? std::max<long>(1, facts.treeCount(blk.ir->stmts)) : 16;
}

bool
referenceSpecializable(const ElabBlock &blk, const ArenaFacts &facts,
                       const ArenaStore &store)
{
    if (!blk.ir)
        return false;
    for (const IrTemp &t : blk.ir->temps) {
        if (t.nbits > 64)
            return false;
    }
    return facts.fitsWord(blk.ir->stmts, store);
}

/** Checks every block of @p top; returns its IR blocks over 64 bits. */
int
expectSummaryMatchesTreeWalk(Model &top, const std::string &what)
{
    auto elab = top.elaborate();
    ArenaStore store(*elab);
    const ArenaFacts facts(top.irArena(), store);
    int wide = 0;
    for (const ElabBlock &blk : elab->blocks) {
        if (blk.ir) {
            EXPECT_EQ(blk.ir->arena, &top.irArena())
                << what << " " << blk.name;
        }
        EXPECT_EQ(blk.weight, referenceWeight(blk, facts))
            << what << " " << blk.name;
        EXPECT_EQ(bcSpecializable(blk),
                  referenceSpecializable(blk, facts, store))
            << what << " " << blk.name;
        wide += blk.ir && !bcSpecializable(blk);
    }
    return wide;
}

TEST(ElabSummary, WeightAndWidthMatchATreeWalk)
{
    for (int nrouters : {64, 256}) {
        MeshTrafficTop mesh("top", NetLevel::RTL, nrouters, 4, 0.3, 1);
        expectSummaryMatchesTreeWalk(mesh,
                                     "mesh" + std::to_string(nrouters));
    }
    tile::ProcRTL5 proc(nullptr, "proc");
    expectSummaryMatchesTreeWalk(proc, "ProcRTL5");
    int wide = 0;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        fuzz::FuzzSpec spec;
        spec.seed = seed;
        fuzz::FuzzDesign top(spec);
        wide += expectSummaryMatchesTreeWalk(
            top, "fuzz seed " + std::to_string(seed));
    }
    // The generator's 65-96-bit nets keep the other side covered.
    EXPECT_GT(wide, 0);
}

/**
 * BcModule compiles one block per shape and builds every other block's
 * tables from its elaboration record. Checks that against a compile of
 * every specialized block of @p top: each block's program is the one
 * interning the compiled programs in module order gives, its slot row
 * is the compiled slot table, its literals are the compiled constants,
 * and each constant column holds one compiled constant operand on
 * every instance of its program. The optimizer then sees what it would
 * see with every block compiled. Returns the module's program count.
 */
int
expectStampedTablesMatchACompile(Model &top, const std::string &what)
{
    auto elab = top.elaborate();
    ArenaStore store(*elab);
    std::vector<int> blocks;
    for (size_t b = 0; b < elab->blocks.size(); ++b) {
        if (bcSpecializable(elab->blocks[b]))
            blocks.push_back(static_cast<int>(b));
    }
    const BcModule mod(*elab, store, blocks);
    std::vector<BcProgram> progs;
    std::vector<std::vector<uint64_t>> consts(elab->blocks.size());
    for (int b : blocks) {
        const std::string ctx = what + " " + elab->blocks[b].name;
        BcBlock want = bcCompile(elab->blocks[b], store);
        int prog = 0;
        while (prog < static_cast<int>(progs.size()) &&
               !(progs[prog].nslots == want.prog.nslots &&
                 progs[prog].nconsts == want.prog.nconsts &&
                 progs[prog].insts == want.prog.insts))
            ++prog;
        if (prog == static_cast<int>(progs.size()))
            progs.push_back(want.prog);
        EXPECT_EQ(mod.programOf(b), prog) << ctx;
        const BcInstance &got = mod.instance(b);
        EXPECT_EQ(std::vector<int32_t>(got.slots,
                                       got.slots + got.prog->nslots),
                  want.slots)
            << ctx;
        EXPECT_EQ(elab->literals(elab->blocks[b]), want.consts) << ctx;
        consts[b] = std::move(want.consts);
    }
    EXPECT_EQ(mod.numPrograms(), static_cast<int>(progs.size())) << what;
    for (int p = 0; p < mod.numPrograms(); ++p) {
        const std::vector<int> &members = mod.instancesOf(p);
        const BcProgram &prog = *mod.instance(members[0]).prog;
        for (int k = 0; k < prog.nconsts; ++k) {
            bool found = false;
            for (size_t j = 0; j < consts[members[0]].size() && !found; ++j) {
                found = true;
                for (int b : members)
                    found = found && mod.instance(b).consts[k] == consts[b][j];
            }
            EXPECT_TRUE(found) << what << " program " << p << " column " << k;
        }
    }
    return mod.numPrograms();
}

TEST(ElabSummary, StampedTablesMatchACompileOfEveryBlock)
{
    // Program counts as compiling every block gave them.
    for (int nrouters : {16, 64, 256}) {
        MeshTrafficTop mesh("top", NetLevel::RTL, nrouters, 4, 0.3, 1);
        EXPECT_EQ(expectStampedTablesMatchACompile(
                      mesh, "mesh" + std::to_string(nrouters)),
                  6);
    }
    tile::ProcRTL5 proc(nullptr, "proc");
    EXPECT_EQ(expectStampedTablesMatchACompile(proc, "ProcRTL5"), 5);
    using tile::Level;
    tile::MultiTileSystem multitile(
        "sys", std::vector<std::array<Level, 3>>(
                   4, {Level::RTL, Level::RTL, Level::RTL}));
    EXPECT_EQ(expectStampedTablesMatchACompile(multitile, "multitile"), 11);
    const int fuzz_programs[] = {4, 3, 2, 4, 3, 3, 7, 3, 5, 1, 5, 2, 1,
                                 5, 1, 6, 5, 3, 2, 3, 1, 3, 4, 2, 1};
    for (uint64_t seed = 1; seed <= 25; ++seed) {
        fuzz::FuzzSpec spec;
        spec.seed = seed;
        fuzz::FuzzDesign top(spec);
        EXPECT_EQ(expectStampedTablesMatchACompile(
                      top, "fuzz seed " + std::to_string(seed)),
                  fuzz_programs[seed - 1]);
    }
}

/**
 * The 8x8 mesh's translation unit and its state after 300 cycles. The
 * state is the one compiling every block gave, so stamping changes no
 * bit of it; the TU is pinned as emitted from the stamped module with
 * Mux, LAnd and LOr as eager selects.
 */
TEST(ElabSummary, StampedMeshKeepsItsKernelsAndState)
{
    MeshTrafficTop mesh("top", NetLevel::RTL, 64, 4, 0.3, 1);
    auto elab = mesh.elaborate();
    ArenaStore store(*elab);
    std::vector<int> blocks;
    for (size_t b = 0; b < elab->blocks.size(); ++b) {
        if (bcSpecializable(elab->blocks[b]))
            blocks.push_back(static_cast<int>(b));
    }
    const std::string source =
        cppEmitProgram(BcModule(*elab, store, blocks)).source;
    uint64_t fnv = 0xcbf29ce484222325ull;
    for (char c : source) {
        fnv ^= static_cast<uint8_t>(c);
        fnv *= 0x100000001b3ull;
    }
    EXPECT_EQ(source.size(), 16359u);
    EXPECT_EQ(fnv, 0x0595ff62595f65f6ull);
    for (int threads : {1, 2}) {
        MeshTrafficTop top("top", NetLevel::RTL, 64, 4, 0.3, 1);
        SimConfig cfg = SimConfig::fromString("bytecode");
        cfg.threads = threads;
        auto sim = makeSimulator(top.elaborate(), cfg);
        sim->reset();
        sim->cycle(300);
        EXPECT_EQ(stateDigest(*sim), 0xcbbbb7478c7eb6a4ull) << threads;
    }
}

/**
 * BcModule compiles the first block of each shape and no other: a
 * record changed on any later block of a shape reaches the module's
 * tables unchecked, and one changed on the first block throws.
 */
TEST(ElabSummary, ModuleCompilesOneBlockPerShape)
{
    MeshTrafficTop mesh("top", NetLevel::RTL, 256, 4, 0.3, 1);
    auto elab = mesh.elaborate();
    ArenaStore store(*elab);
    std::vector<int> blocks;
    std::vector<std::vector<int>> of_shape(elab->irShapes.size());
    for (size_t b = 0; b < elab->blocks.size(); ++b) {
        const ElabBlock &blk = elab->blocks[b];
        if (!bcSpecializable(blk))
            continue;
        blocks.push_back(static_cast<int>(b));
        of_shape[blk.shape].push_back(static_cast<int>(b));
    }
    const int programs = BcModule(*elab, store, blocks).numPrograms();
    EXPECT_EQ(programs, 6);
    int shapes = 0;
    for (const std::vector<int> &members : of_shape)
        shapes += !members.empty();
    EXPECT_LE(shapes, 2 * programs);

    for (const std::vector<int> &members : of_shape) {
        if (members.size() < 2)
            continue;
        // Point a net operand at the net's other phase word.
        int32_t *later = &elab->irOperands[elab->blocks[members[1]].operandsAt];
        int i = 0;
        while (later[i] < 0)
            ++i;
        later[i] ^= 1;
        {
            const BcModule mod(*elab, store, blocks);
            EXPECT_EQ(mod.instance(members[1]).slots[i],
                      store.operandWord(later[i]));
        }
        later[i] ^= 1;
        const ElabBlock &first = elab->blocks[members[0]];
        elab->irOperands[first.operandsAt + i] ^= 1;
        EXPECT_THROW(BcModule(*elab, store, blocks), std::logic_error);
        elab->irOperands[first.operandsAt + i] ^= 1;
        if (!elab->literals(first).empty()) {
            uint64_t &base =
                elab->irLiterals[elab->irShapes[first.shape].literalsAt];
            ++base;
            EXPECT_THROW(BcModule(*elab, store, blocks), std::logic_error);
            --base;
        }
    }
    EXPECT_EQ(BcModule(*elab, store, blocks).numPrograms(), programs);
}

/**
 * Literal records are one base per shape, its first block's, and per
 * block only the literals that differ from it. Pinned on the 16x16
 * mesh, where whole records deduplicated took 32,058 words.
 */
TEST(ElabSummary, LiteralsAreShapeBasesAndPatches)
{
    MeshTrafficTop mesh("top", NetLevel::RTL, 256, 4, 0.3, 1);
    auto elab = mesh.elaborate();
    std::vector<char> seen(elab->irShapes.size(), 0);
    size_t literals = 0;
    for (const ElabBlock &blk : elab->blocks) {
        if (!blk.ir)
            continue;
        literals += elab->irShapes[blk.shape].literals;
        if (!seen[blk.shape]++) {
            EXPECT_EQ(blk.patches, 0) << blk.name;
        }
        for (int i = blk.patchesAt; i < blk.patchesAt + blk.patches; ++i) {
            const IrLiteralPatch &p = elab->irLiteralPatches[i];
            EXPECT_NE(p.value,
                      elab->irLiterals[elab->irShapes[blk.shape].literalsAt +
                                       p.at])
                << blk.name;
        }
    }
    // 183 base words and 4,800 two-word patches: 9,783 words.
    EXPECT_EQ(literals, 101120u);
    EXPECT_EQ(elab->irLiterals.size(), 183u);
    EXPECT_EQ(elab->irLiteralPatches.size(), 4800u);
}

/** FNV-1a over the words and strings the set-up pins hash. */
struct SetupHash
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    byte(uint8_t b)
    {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    void
    word(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }
    void
    ints(const std::vector<int> &v)
    {
        word(v.size());
        for (int x : v)
            word(static_cast<uint64_t>(x));
    }
    void
    text(const std::string &s)
    {
        word(s.size());
        for (char c : s)
            byte(static_cast<uint8_t>(c));
    }
};

/**
 * What elaboration and partitioning make of one design, as hashes:
 * the design fingerprint (net ids, names, widths and flop classes),
 * combOrder, tickOrder, netReaders, each block's name, reads and
 * writes, and the partition plan and its report at 2 and 4 islands.
 */
std::string
setupPins(Model &top)
{
    auto elab = top.elaborate();
    SetupHash comb, tick, readers, blocks;
    comb.ints(elab->combOrder);
    tick.ints(elab->tickOrder);
    readers.word(elab->netReaders.size());
    for (const std::vector<int> &r : elab->netReaders)
        readers.ints(r);
    for (const ElabBlock &blk : elab->blocks) {
        blocks.text(blk.name);
        blocks.ints(blk.reads);
        blocks.ints(blk.writes);
    }
    char buf[160];
    std::snprintf(buf, sizeof buf, "%016llx %016llx %016llx %016llx %016llx",
                  static_cast<unsigned long long>(designFingerprint(*elab)),
                  static_cast<unsigned long long>(comb.h),
                  static_cast<unsigned long long>(tick.h),
                  static_cast<unsigned long long>(readers.h),
                  static_cast<unsigned long long>(blocks.h));
    std::string out = buf;
    for (int nislands : {2, 4}) {
        const PartitionPlan plan = partitionDesign(*elab, nislands);
        SetupHash p;
        p.text(partitionReport(*elab, plan));
        for (const PartitionIsland &isl : plan.islands) {
            p.ints(isl.combBlocks);
            p.ints(isl.combLevels);
            p.ints(isl.tickBlocks);
            p.ints(isl.ownedTokens);
            p.ints(isl.flopNets);
        }
        p.ints(plan.ownerOf);
        for (const std::vector<int> &r : plan.readerIslands)
            p.ints(r);
        p.ints(plan.lambdaTicks);
        std::snprintf(buf, sizeof buf, " %016llx",
                      static_cast<unsigned long long>(p.h));
        out += buf;
    }
    return out;
}

/**
 * Elaboration and partitioning number, name and order everything as
 * they did when they kept hash maps and per-token lists: pinned on
 * the meshes, a tile, the multi-tile system and generated designs.
 * stateDigest, which hashes in place, equals the snapshot's digest on
 * every kernel.
 */
TEST(Elaboration, DenseSetupKeepsIdsOrderAndPlans)
{
    using tile::Level;
    std::vector<std::pair<std::string, std::unique_ptr<Model>>> designs;
    for (NetLevel level : {NetLevel::RTL, NetLevel::CL}) {
        for (int nrouters : {16, 64, 256}) {
            designs.emplace_back(
                std::string(net::netLevelName(level)) +
                    std::to_string(nrouters),
                std::make_unique<MeshTrafficTop>("top", level, nrouters, 4,
                                                 0.3, 1));
        }
    }
    designs.emplace_back("tile CL", std::make_unique<tile::Tile>(
                                        "tile", Level::CL, Level::CL,
                                        Level::CL));
    designs.emplace_back(
        "multitile RTL",
        std::make_unique<tile::MultiTileSystem>(
            "sys", std::vector<std::array<Level, 3>>(
                       4, {Level::RTL, Level::RTL, Level::RTL})));
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        fuzz::FuzzSpec spec;
        spec.seed = seed;
        designs.emplace_back("fuzz seed " + std::to_string(seed),
                             std::make_unique<fuzz::FuzzDesign>(spec));
    }
    const char *const pinned[] = {
        "f8325f60ee8e3517 8944158a88f55a61 b9d2b803750a7df7 165667e4dfd8598f "
        "46c817550d553a7b 2589826aa8cfd15c ac625826189b78ab",
        "7c1f57ce529198f5 036835ec37e5e985 6b864c8f2e8f7728 e77eeace001e61f7 "
        "0fc0a6028873f0cb d464400f5d0ac270 f2c4b751daff284f",
        "0dba6685bf46c5b7 a1defd7146558a25 b7d45c2efc3a1520 bdefe642f4456c43 "
        "9d066914c26a9302 22fab76bdc029606 4b247da51f403548",
        "81b85caa9e42b8a9 a8c7f832281a39c5 db0d76276963aa24 8216dee1a75092af "
        "7155d579a02e1cf8 f2d7d5032607ba3e 0da4333162e52a78",
        "acdb25ef5a1288e0 a8c7f832281a39c5 f7ec140f2c9b6624 934ac26990bf23d8 "
        "96e08a4a7f97b542 1d5868ee29486ce0 d1dc989b64b518a2",
        "64ab15adcf95b766 a8c7f832281a39c5 d19a2bddcae9dd84 dee976fedc9ca90a "
        "c61f9dbdfc496847 622c1745f5fb4d45 f5c65c4c61c7160f",
        "ee1530a61791db0c a8c7f832281a39c5 c16c997e7ca8c1a2 57ae22d8e3fa7fa9 "
        "84c2f1defdf45d74 7a5a1676f24d7cf9 b7e650dd05e17247",
        "2e181c5672b60b72 1d71e612b5f656a1 9bf8697b5441a87a e7457f5cc398b820 "
        "4734edccfd3b176b 2680092ff7fac4f7 63d990282e170d59",
        "52795d93d6b3c74c d95e0e4b00d4954b 7d381219680e1748 5a2377b9eba977fa "
        "c721dbb3d30722bf b75fde779b57be39 678b35d96febccbd",
        "1c445aa2b38b84ca 591880d1681bf68f 26c2060f24db40c7 809bba2b17175098 "
        "cc5f16c45d89aeba f3a23477fa1def6e 7a6fc23a80efdc0c",
        "a5e37d268894a844 3c5dea073d5099cf 26c2060f24db40c7 ef2a527f817ff6d5 "
        "b458909e1d6ea1cd 716b56efc8c47464 44c5084d352ab860",
        "39fe5bc149949afe 591880d1681bf68f 26c2060f24db40c7 c6fe16acf7fe14df "
        "754cab26b94ad030 ba35ee6cfc1e5ef1 12a5d46486188211",
        "2132976ec42dad1c 19c04b37f5d20b2c f951a021588d5ec5 fb48100a53a5dbd1 "
        "84067c0dedc47dd7 f87265bdecac0a48 54b3c3d36a567217",
        "b40022003a2dc10f e209eebc2013f1e8 f3aad17dcd069120 fb33baa06b160313 "
        "9a143d361b921c5e 3ed84cea786c8733 631e1758c3c938ff",
        "37072557f5d46a27 c9fbfa811eb466ee 815953ab6dfc742c 46da55ac8acd3a32 "
        "6a3d7820ad34591c 6f59e3e96f8bfc06 5dfdf116702813af",
        "693e53ef53a59068 e209eebc2013f1e8 f3aad17dcd069120 5e61252871c833d7 "
        "3b1f21e6b940bae8 165811d603c34e82 8080037c96958de1",
        "c57a0f1025853f35 6906a9171f126848 f3aad17dcd069120 53220f64ac120452 "
        "4a200c331e9e84a0 86614fe080884bd7 f1db00f74b57c6e1",
        "917b1f9f8f926575 591880d1681bf68f 26c2060f24db40c7 e21239d6c685681a "
        "5d83454375a057ae 45e7f742152a69f1 c6976c94ab1a78e0",
    };
    ASSERT_EQ(std::size(pinned), designs.size());
    for (size_t i = 0; i < designs.size(); ++i)
        EXPECT_EQ(setupPins(*designs[i].second), pinned[i])
            << designs[i].first;

    // A mesh carries model host state, a generated design arrays and
    // wide nets.
    std::vector<std::string> kernels = {"interp", "optinterp", "bytecode"};
    if (CppJit::compilerAvailable())
        kernels.push_back("cpp-design");
    for (const std::string &kernel : kernels) {
        for (int threads : {1, 2}) {
            if (kernel == "interp" && threads == 2)
                continue; // ParSim needs an arena-hosted backend
            SimConfig cfg = SimConfig::fromString(kernel);
            cfg.threads = threads;
            const std::string ctx = kernel + " t" + std::to_string(threads);
            MeshTrafficTop mesh("top", NetLevel::RTL, 16, 4, 0.3, 1);
            auto msim = makeSimulator(mesh.elaborate(), cfg);
            msim->reset();
            msim->cycle(100);
            EXPECT_EQ(stateDigest(*msim), snapSave(*msim).digest()) << ctx;
            fuzz::FuzzSpec spec;
            spec.seed = 3;
            fuzz::FuzzDesign top(spec);
            StimTape tape = fuzz::makeFuzzStim(spec);
            auto fsim = makeSimulator(top.elaborate(), cfg);
            while (tape.applyTo(*fsim))
                fsim->cycle();
            EXPECT_EQ(stateDigest(*fsim), snapSave(*fsim).digest()) << ctx;
        }
    }
}

TEST(Partition, PlansFollowTheTreeCountWeight)
{
    // {routers, islands, cut tokens}: the cut sizes the tree-count
    // weight gives, pinned so that any change to the weight shows.
    const int expected[][3] = {
        {64, 2, 337}, {64, 4, 433}, {256, 2, 1057}, {256, 4, 1249}};
    for (const auto &[nrouters, nislands, cut] : expected) {
        MeshTrafficTop mesh("top", NetLevel::RTL, nrouters, 4, 0.3, 1);
        auto elab = mesh.elaborate();
        Elaboration reference = *elab;
        const ArenaFacts facts(mesh.irArena(), ArenaStore(*elab));
        for (ElabBlock &blk : reference.blocks)
            blk.weight = referenceWeight(blk, facts);
        const PartitionPlan plan = partitionDesign(*elab, nislands);
        const PartitionPlan want = partitionDesign(reference, nislands);
        const std::string ctx = std::to_string(nrouters) + " routers, " +
                                std::to_string(nislands) + " islands";
        ASSERT_EQ(plan.nislands, want.nislands) << ctx;
        for (int i = 0; i < plan.nislands; ++i) {
            EXPECT_EQ(plan.islands[i].combBlocks, want.islands[i].combBlocks)
                << ctx;
            EXPECT_EQ(plan.islands[i].tickBlocks, want.islands[i].tickBlocks)
                << ctx;
            EXPECT_EQ(plan.islands[i].weight, want.islands[i].weight) << ctx;
        }
        EXPECT_EQ(plan.nlevels, want.nlevels) << ctx;
        EXPECT_EQ(plan.nlevels, 2) << ctx;
        EXPECT_EQ(plan.cutTokens, want.cutTokens) << ctx;
        EXPECT_EQ(plan.cutTokens, cut) << ctx;
    }
}

TEST(Psim, RejectsUnsupportedConfigs)
{
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16,
                                                4, 0.2, 3);
    auto elab = top->elaborate();
    for (const char *boxed :
         {"interp", "interp+bytecode", "interp+cpp-block"}) {
        SimConfig cfg = SimConfig::fromString(boxed);
        cfg.threads = 2;
        try {
            ParSimulationTool par(elab, cfg);
            ADD_FAILURE() << boxed << " accepted";
        } catch (const std::logic_error &e) {
            EXPECT_EQ(std::string(e.what()),
                      std::string("ParSim needs an arena-hosted backend; "
                                  "got '") +
                          boxed + "'");
        }
    }
    SimConfig cfg;
    cfg.sched = SchedMode::Event;
    cfg.threads = 2;
    EXPECT_THROW(ParSimulationTool(elab, cfg), std::logic_error);
}

TEST(Psim, FactoryDispatchesOnThreadCount)
{
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16,
                                                4, 0.2, 3);
    SimConfig cfg;
    cfg.threads = 2;
    auto sim = makeSimulator(top->elaborate(), cfg);
    EXPECT_NE(dynamic_cast<ParSimulationTool *>(sim.get()), nullptr);

    auto top2 = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16,
                                                 4, 0.2, 3);
    cfg.threads = 1;
    auto sim2 = makeSimulator(top2->elaborate(), cfg);
    EXPECT_NE(dynamic_cast<SimulationTool *>(sim2.get()), nullptr);
}

} // namespace
} // namespace cmtl
