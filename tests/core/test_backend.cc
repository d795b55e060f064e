/**
 * Unified Backend API: cross-backend golden equivalence.
 *
 * The contract under test: every backend the `SimConfig::fromString`
 * front door can name — tree-walk interpreter, optimized interpreter,
 * bytecode, per-block compiled C++, per-batch compiled C++ with
 * tiered warm-up, and the boxed-host hybrids — simulates the same
 * design to byte-identical state and byte-identical VCD streams, at
 * any supported thread count, including across the bytecode->native
 * tier boundary of cpp-design. Plus: canonical-name round-trips,
 * report/SimScope naming, SimOptions CLI parsing, and the JIT cache LRU
 * size cap.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <set>
#include <thread>
#include <typeinfo>

#include "core/ir_bytecode.h"
#include "core/ir_cpp.h"
#include "core/jit_cpp.h"
#include "core/psim.h"
#include "core/scope.h"
#include "core/sim.h"
#include "core/snap.h"
#include "core/stats.h"
#include "core/vcd.h"
#include "net/traffic.h"
#include "stdlib/options.h"
#include "tile/multitile.h"

namespace cmtl {
namespace {

using net::MeshTrafficTop;
using net::NetLevel;

bool
needsCompiler(const std::string &backend)
{
    return backend.find("cpp") != std::string::npos;
}

/** All canonical backend names the front door accepts. */
std::vector<std::string>
allBackends()
{
    return {"interp",     "optinterp",       "bytecode",
            "cpp-block",  "cpp-design",      "interp+bytecode",
            "interp+cpp-block"};
}

// ------------------------------------------------ name round-trips

TEST(BackendNames, FromStringToStringRoundTrips)
{
    // The name table lists every enumerator in order: a row missing or
    // out of place breaks the index check, a bad name the round trip.
    std::set<std::string> seen;
    size_t i = 0;
    for (const BackendName &row : backendNames()) {
        EXPECT_EQ(static_cast<size_t>(row.backend), i++) << row.name;
        EXPECT_TRUE(seen.insert(row.name).second) << row.name;
        SimConfig cfg = SimConfig::fromString(row.name);
        EXPECT_EQ(cfg.backend, row.backend) << row.name;
        EXPECT_EQ(cfg.toString(), row.name);
        std::ostringstream os;
        os << row.backend;
        EXPECT_EQ(os.str(), row.name);
    }
    const std::vector<std::string> names = allBackends();
    EXPECT_EQ(seen, std::set<std::string>(names.begin(), names.end()));
}

TEST(BackendNames, RemovedAliasesThrow)
{
    EXPECT_THROW(SimConfig::fromString("cpp"), std::invalid_argument);
    EXPECT_THROW(SimConfig::fromString("interp+cpp"),
                 std::invalid_argument);
}

TEST(BackendNames, UnknownNameThrows)
{
    EXPECT_THROW(SimConfig::fromString("pypy"), std::invalid_argument);
    EXPECT_THROW(SimConfig::fromString(""), std::invalid_argument);
}

// -------------------------------------------- report/scope naming

TEST(BackendNames, SimulatorReportAndScopeNameTheBackend)
{
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 4,
                                                4, 0.2, 3);
    SimulationTool sim(top->elaborate(),
                       SimConfig::fromString("optinterp"));
    EXPECT_NE(simulatorReport(sim).find("backend optinterp"),
              std::string::npos);

    SimScope scope(sim);
    sim.cycle(8);
    std::string snap = scope.snapshot().encode();
    scope.detach();
    EXPECT_NE(snap.find("\"backend\":\"optinterp\""), std::string::npos)
        << snap;
}

// --------------------------------------- cross-backend equivalence

void
expectSameState(Simulator &a, Simulator &b, const std::string &ctx)
{
    const auto &nets = a.elaboration().nets;
    for (const Net &net : nets) {
        ASSERT_EQ(a.readNet(net.id), b.readNet(net.id))
            << ctx << ": net " << net.name << " diverged at cycle "
            << a.numCycles();
    }
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

SimConfig
backendCfg(const std::string &backend, int threads)
{
    SimConfig cfg = SimConfig::fromString(backend);
    cfg.threads = threads;
    return cfg;
}

class BackendEquiv
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
  protected:
    void
    SetUp() override
    {
        auto [backend, threads] = GetParam();
        if (needsCompiler(backend) && !CppJit::compilerAvailable())
            GTEST_SKIP() << "no host compiler";
        // The parallel kernel requires dense arena storage; boxed
        // (interp-hosted) backends exist only on the sequential one.
        if (threads > 1 &&
            boxedHost(backendCfg(backend, threads).backend))
            GTEST_SKIP() << "boxed backends are sequential-only";
    }
};

TEST_P(BackendEquiv, MeshRtlStateAndVcdMatchGolden)
{
    auto [backend, threads] = GetParam();
    const int nrouters = 16, cycles = 200;
    auto makeTop = [&] {
        return std::make_unique<MeshTrafficTop>("top", NetLevel::RTL,
                                                nrouters, 4, 0.3, 11);
    };
    // Unique per parameterization: ctest may run tests in parallel.
    const std::string tag =
        backend + "_t" + std::to_string(threads) + "_" +
        std::to_string(::getpid());
    const std::string golden_path =
        ::testing::TempDir() + "backend_golden_" + tag + ".vcd";
    const std::string path =
        ::testing::TempDir() + "backend_run_" + tag + ".vcd";

    // Golden: the boxed tree-walk interpreter, the semantic reference.
    auto gt = makeTop();
    auto golden = makeSimulator(gt->elaborate(), backendCfg("interp", 1));
    {
        VcdWriter vcd(*golden, golden_path);
        golden->reset();
        golden->cycle(cycles);
        vcd.close();
    }

    auto tt = makeTop();
    auto sim = makeSimulator(tt->elaborate(),
                             backendCfg(backend, threads));
    {
        VcdWriter vcd(*sim, path);
        sim->reset();
        sim->cycle(cycles);
        vcd.close();
    }

    std::string ctx = backend + " threads=" + std::to_string(threads);
    EXPECT_EQ(sim->numCycles(), golden->numCycles());
    expectSameState(*golden, *sim, ctx);
    std::string a = slurp(golden_path), b = slurp(path);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "VCD streams differ: " << ctx;
    std::remove(golden_path.c_str());
    std::remove(path.c_str());
}

TEST_P(BackendEquiv, MultiTileStateMatchesGolden)
{
    using namespace tile;
    auto [backend, threads] = GetParam();
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
    auto golden =
        makeSimulator(sys_a->elaborate(), backendCfg("interp", 1));
    auto sim =
        makeSimulator(sys_b->elaborate(), backendCfg(backend, threads));

    golden->reset();
    sim->reset();
    const int cycles = 2000;
    golden->cycle(cycles);
    sim->cycle(cycles);

    std::string ctx = backend + " threads=" + std::to_string(threads);
    EXPECT_EQ(sim->numCycles(), golden->numCycles());
    expectSameState(*golden, *sim, ctx);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendEquiv,
    ::testing::Combine(::testing::ValuesIn(allBackends()),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>> &i) {
        std::string name = std::get<0>(i.param) + "_t" +
                           std::to_string(std::get<1>(i.param));
        for (char &c : name) {
            if (c == '-' || c == '+')
                c = '_';
        }
        return name;
    });

// --------------------------------------------- mid-run tier swap

namespace fs = std::filesystem;

/** A fresh, empty directory for a test's private JIT cache. */
fs::path
freshCacheDir(const std::string &tag)
{
    fs::path dir = fs::path(::testing::TempDir()) /
                   (tag + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Libraries CppJit has published into the private cache @p dir. */
long
publishedLibraries(const fs::path &dir)
{
    return std::count_if(fs::directory_iterator(dir), {},
                         [](const fs::directory_entry &e) {
                             return e.path().extension() == ".so";
                         });
}

/**
 * Force a genuine mid-run bytecode->native swap: with the on-disk
 * cache disabled the background g++ run takes real wall time, so the
 * first cycles provably execute on the bytecode warm-up tier. The
 * simulation must agree with the reference every cycle, the swap must
 * land at a cycle boundary > 0, and the cycle count must be exactly
 * the number of cycles driven.
 */
TEST(BackendTierSwap, MidRunSwapKeepsStateAndCycleCount)
{
    if (!CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";

    auto ta = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16,
                                               4, 0.3, 5);
    auto tb = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16,
                                               4, 0.3, 5);
    auto golden =
        makeSimulator(ta->elaborate(), backendCfg("optinterp", 1));

    SimConfig cfg = SimConfig::fromString("cpp-design");
    cfg.jit_cache = false; // force a real (slow) background compile
    SimulationTool sim(tb->elaborate(), cfg);
    ASSERT_TRUE(sim.tierPending()) << "compile finished suspiciously "
                                      "fast; cannot exercise the swap";
    ASSERT_TRUE(sim.specStats().tiered);
    ASSERT_EQ(sim.specStats().tierSwapCycle, -1);

    golden->reset();
    sim.reset();
    uint64_t driven = sim.numCycles(); // reset() itself runs a cycle
    uint64_t warm = 0;
    // Warm-up tier: lockstep until the background compile lands.
    while (sim.tierPending() && warm < 2000000) {
        golden->cycle(32);
        sim.cycle(32);
        driven += 32;
        warm += 32;
        expectSameState(*golden, sim, "warm-up tier");
    }
    ASSERT_FALSE(sim.tierPending()) << "compile never finished";
    ASSERT_GT(warm, 0u) << "no cycles ran on the warm-up tier";

    // Native tier: the swap happened at a cycle boundary mid-run.
    int64_t swap = sim.specStats().tierSwapCycle;
    EXPECT_GT(swap, 0);
    EXPECT_LE(swap, static_cast<int64_t>(driven) + 32);

    golden->cycle(200);
    sim.cycle(200);
    driven += 200;
    EXPECT_EQ(sim.numCycles(), driven);
    EXPECT_EQ(sim.numCycles(), golden->numCycles());
    expectSameState(*golden, sim, "native tier");
}

/** Same forcing on the parallel kernel: every island switches at once. */
TEST(BackendTierSwap, ParSimMidRunSwapBitIdentical)
{
    if (!CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";

    auto ta = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16,
                                               4, 0.3, 9);
    auto tb = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16,
                                               4, 0.3, 9);
    auto golden =
        makeSimulator(ta->elaborate(), backendCfg("optinterp", 1));

    const fs::path dir = freshCacheDir("parsim_swap");
    SimConfig cfg = backendCfg("cpp-design", 4);
    cfg.jit_cache = false;
    cfg.jit_cache_dir = dir;
    ParSimulationTool sim(tb->elaborate(), cfg);
    ASSERT_TRUE(sim.tierPending());

    golden->reset();
    sim.reset();
    uint64_t driven = sim.numCycles(); // reset() itself runs a cycle
    uint64_t warm = 0;
    while (sim.tierPending() && warm < 2000000) {
        golden->cycle(32);
        sim.cycle(32);
        driven += 32;
        warm += 32;
        expectSameState(*golden, sim, "parsim warm-up tier");
    }
    ASSERT_FALSE(sim.tierPending()) << "compile never finished";
    EXPECT_GT(sim.specStats().tierSwapCycle, 0);
    // Every island's units share one translation unit: one library,
    // each block kernel emitted once, and a real compile, not a hit
    // (the cache was disabled above).
    EXPECT_EQ(publishedLibraries(dir), 1);
    EXPECT_EQ(sim.specStats().kernelTypes, 6);
    EXPECT_FALSE(sim.specStats().cacheHit);
    EXPECT_GT(sim.specStats().compileSeconds, 0.0);

    golden->cycle(200);
    sim.cycle(200);
    driven += 200;
    EXPECT_EQ(sim.numCycles(), driven);
    expectSameState(*golden, sim, "parsim native tier");
    fs::remove_all(dir);
}

// ------------------------------------------------ per-type kernels

std::unique_ptr<MeshTrafficTop>
makeKernelMesh()
{
    return std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16, 4, 0.3,
                                            11);
}

/** Every NetStats field of a run equals the golden run's. */
void
expectSameNetStats(const net::NetStats &a, const net::NetStats &b,
                   const std::string &label)
{
    EXPECT_GT(a.received, 0u);
    EXPECT_EQ(b.cycles, a.cycles) << label;
    EXPECT_EQ(b.generated, a.generated) << label;
    EXPECT_EQ(b.injected, a.injected) << label;
    EXPECT_EQ(b.received, a.received) << label;
    EXPECT_EQ(b.latency_sum, a.latency_sum) << label;
    EXPECT_EQ(b.latency_max, a.latency_max) << label;
}

/** The module both kernels build: the specialized blocks in order. */
BcModule
specializedModule(const Elaboration &elab, const ArenaStore &store)
{
    std::vector<int> specialized;
    for (size_t b = 0; b < elab.blocks.size(); ++b) {
        if (bcSpecializable(elab.blocks[b]))
            specialized.push_back(static_cast<int>(b));
    }
    return BcModule(elab, store, specialized);
}

/**
 * Instances of one block type share a compiled kernel. The C++ is
 * emitted from the bytecode module, one `cmtl_k<p>` per program, and
 * every router's route_comb shares one kernel: its coordinates come
 * from the instance's constant row. Batched runs of one kernel stay
 * bit-identical to optinterp on both C++ backends.
 */
TEST(BackendKernels, MeshEmitsOneKernelPerBlockType)
{
    if (!CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";
    auto top = makeKernelMesh();
    auto elab = top->elaborate();
    ArenaStore store(*elab);
    const BcModule mod = specializedModule(*elab, store);
    EXPECT_EQ(mod.numPrograms(), 6);
    const CppProgram prog = cppEmitProgram(mod);
    ASSERT_EQ(prog.kernels.size(), 6u);
    std::set<int> route_progs;
    for (size_t b = 0; b < elab->blocks.size(); ++b) {
        const std::string &name = elab->blocks[b].name;
        if (mod.programOf(static_cast<int>(b)) >= 0 && name.size() > 11 &&
            name.compare(name.size() - 11, 11, ".route_comb") == 0)
            route_progs.insert(mod.programOf(static_cast<int>(b)));
    }
    ASSERT_EQ(route_progs.size(), 1u);
    EXPECT_EQ(mod.instancesOf(*route_progs.begin()).size(), 16u);
    for (int p = 0; p < 6; ++p) {
        EXPECT_NE(prog.source.find("extern \"C\" void cmtl_k" +
                                   std::to_string(p) + "("),
                  std::string::npos)
            << p;
    }
    EXPECT_EQ(prog.source.find("cmtl_k6"), std::string::npos);

    // With the first slot as every instance's base, the shared reset
    // net (arena word 0) would be every tick kernel's base, and every
    // other slot of it tabled.
    int first_slot_tabled = 0;
    for (int p = 0; p < mod.numPrograms(); ++p) {
        const std::vector<int> &blocks = mod.instancesOf(p);
        const int32_t *first = mod.instance(blocks[0]).slots;
        for (int s = 1; s < mod.instance(blocks[0]).prog->nslots; ++s) {
            bool fixed = true;
            for (int b : blocks) {
                const int32_t *slots = mod.instance(b).slots;
                fixed = fixed && slots[s] - slots[0] == first[s] - first[0];
            }
            first_slot_tabled += !fixed;
        }
    }
    EXPECT_LT(prog.tabledSlots, first_slot_tabled);

    auto gt = makeKernelMesh();
    auto golden = makeSimulator(gt->elaborate(),
                                SimConfig::fromString("optinterp"));
    golden->reset();
    golden->cycle(500);
    for (const char *backend : {"cpp-block", "cpp-design"}) {
        for (int threads : {1, 2, 4}) {
            const std::string label =
                std::string(backend) + " t" + std::to_string(threads);
            SimConfig cfg = SimConfig::fromString(backend);
            cfg.jit_tiered = false;
            cfg.threads = threads;
            auto t = makeKernelMesh();
            auto sim = makeSimulator(t->elaborate(), cfg);
            EXPECT_EQ(sim->specStats().numSpecialized, 352) << label;
            EXPECT_EQ(sim->specStats().kernelTypes, 6) << label;
            EXPECT_NE(simulatorReport(*sim).find(", 6 kernel(s)"),
                      std::string::npos)
                << label << "\n" << simulatorReport(*sim);
            sim->reset();
            sim->cycle(500);
            EXPECT_EQ(stateDigest(*sim), stateDigest(*golden)) << label;
            expectSameNetStats(gt->stats(), t->stats(), label);
        }
    }
}

/**
 * ParSim's cpp-design tier builds one library for all its islands: a
 * cold build publishes one cache entry, and an identical rebuild hits
 * it.
 */
TEST(BackendKernels, ParSimDesignPublishesOneCachedLibrary)
{
    if (!CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";
    const fs::path dir = freshCacheDir("parsim_one_lib");
    SimConfig cfg = backendCfg("cpp-design", 4);
    cfg.jit_tiered = false;
    cfg.jit_cache_dir = dir;
    for (bool warm : {false, true}) {
        auto t = makeKernelMesh();
        ParSimulationTool sim(t->elaborate(), cfg);
        ASSERT_EQ(sim.plan().nislands, 4);
        EXPECT_EQ(publishedLibraries(dir), 1) << "warm " << warm;
        EXPECT_EQ(sim.specStats().cacheHit, warm);
    }
    fs::remove_all(dir);
}

/**
 * The translation unit is the module's kernels alone, so every native
 * configuration of one design compiles one library: on one cache dir,
 * sequential cpp-design builds it, and ParSim cpp-design and cpp-block
 * hit it. The source names no design and no instance.
 */
TEST(BackendKernels, NativeConfigurationsShareOneLibrary)
{
    if (!CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";
    const fs::path dir = freshCacheDir("shared_lib");
    const std::pair<const char *, int> runs[] = {
        {"cpp-design", 1}, {"cpp-design", 2}, {"cpp-block", 1}};
    for (size_t r = 0; r < std::size(runs); ++r) {
        const auto [backend, threads] = runs[r];
        const std::string label =
            std::string(backend) + " t" + std::to_string(threads);
        SimConfig cfg = backendCfg(backend, threads);
        cfg.jit_tiered = false;
        cfg.jit_cache_dir = dir;
        auto t = makeKernelMesh();
        auto sim = makeSimulator(t->elaborate(), cfg);
        EXPECT_EQ(sim->specStats().cacheHit, r > 0) << label;
        EXPECT_EQ(publishedLibraries(dir), 1) << label;
    }

    auto top = makeKernelMesh();
    auto elab = top->elaborate();
    ArenaStore store(*elab);
    const std::string source =
        cppEmitProgram(specializedModule(*elab, store)).source;
    EXPECT_TRUE(fs::exists(CppJit(dir).cachePathFor(source)));
    EXPECT_EQ(source.find(elab->top->fullName()), std::string::npos);
    for (const ElabBlock &blk : elab->blocks)
        EXPECT_EQ(source.find(blk.name), std::string::npos) << blk.name;
    for (const Model *m : elab->models) {
        EXPECT_EQ(source.find(m->fullName()), std::string::npos)
            << m->fullName();
    }
    fs::remove_all(dir);
}

/**
 * The kernels branch on data only at Jz and Jmp: on the 8x8 RTL mesh,
 * whose selects and handshakes change every cycle, no kernel body
 * holds a `?:`, `&&` or `||` (the helper prelude before the first
 * kernel may).
 */
TEST(BackendKernels, MeshKernelsHaveNoLazyOperators)
{
    MeshTrafficTop top("top", NetLevel::RTL, 64, 4, 0.3, 1);
    auto elab = top.elaborate();
    ArenaStore store(*elab);
    const std::string source =
        cppEmitProgram(specializedModule(*elab, store)).source;
    const size_t first = source.find("extern \"C\"");
    ASSERT_NE(first, std::string::npos);
    const std::string kernels = source.substr(first);
    EXPECT_NE(kernels.find("cmtl_mux("), std::string::npos);
    for (const char *op : {" ? ", "&&", "||"})
        EXPECT_EQ(kernels.find(op), std::string::npos) << op;
}

/**
 * The bytecode tier shares one program per block type too. Unlike the
 * C++ kernels, constants are per-instance operands, so every router's
 * route_comb shares one program despite its own coordinates: a block
 * type is its model class plus its block name.
 */
TEST(BackendKernels, MeshSharesOneBytecodeProgramPerBlockType)
{
    auto top = makeKernelMesh();
    auto elab = top->elaborate();
    ArenaStore store(*elab);
    std::vector<int> specialized;
    std::set<std::string> types;
    for (size_t b = 0; b < elab->blocks.size(); ++b) {
        const ElabBlock &blk = elab->blocks[b];
        if (!bcSpecializable(blk))
            continue;
        specialized.push_back(static_cast<int>(b));
        types.insert(std::string(typeid(*blk.model).name()) + "." +
                     blk.name.substr(blk.name.rfind('.') + 1));
    }
    BcModule mod(*elab, store, specialized);
    EXPECT_EQ(mod.numPrograms(), static_cast<int>(types.size()));
    std::set<const BcProgram *> route_progs;
    for (int b : specialized) {
        const std::string &name = elab->blocks[b].name;
        if (name.size() > 11 &&
            name.compare(name.size() - 11, 11, ".route_comb") == 0)
            route_progs.insert(mod.instance(b).prog);
    }
    EXPECT_EQ(route_progs.size(), 1u);

    auto gt = makeKernelMesh();
    auto golden = makeSimulator(gt->elaborate(),
                                SimConfig::fromString("optinterp"));
    golden->reset();
    golden->cycle(500);
    for (int threads : {1, 2, 4}) {
        SimConfig cfg = SimConfig::fromString("bytecode");
        cfg.threads = threads;
        auto t = makeKernelMesh();
        auto sim = makeSimulator(t->elaborate(), cfg);
        EXPECT_EQ(sim->specStats().kernelTypes, mod.numPrograms())
            << threads;
        EXPECT_NE(simulatorReport(*sim).find(
                      ", " + std::to_string(mod.numPrograms()) +
                      " kernel(s)"),
                  std::string::npos)
            << simulatorReport(*sim);
        sim->reset();
        sim->cycle(500);
        EXPECT_EQ(stateDigest(*sim), stateDigest(*golden)) << threads;
        expectSameNetStats(gt->stats(), t->stats(),
                           "bytecode t" + std::to_string(threads));
    }
}

/** A 16-bit register that adds one, reset to zero. */
class IncReg : public Model
{
  public:
    InPort in_;
    OutPort out;

    IncReg(Model *parent, const std::string &name)
        : Model(parent, name), in_(this, "in_", 16), out(this, "out", 16)
    {
        auto &b = tickRtl("seq");
        b.if_(rd(reset), [&] { b.assign(out, 0); },
              [&] { b.assign(out, rd(in_) + 1); });
    }
};

/**
 * Two IncRegs in a chain. The second one's input is the first one's
 * output net, which sits at a different offset from that instance's
 * base than the first one's input does, so the shared kernel must
 * read those slots from the per-instance table.
 */
class IncChain : public Model
{
  public:
    InPort in_;
    OutPort out;
    IncReg a, b;

    IncChain()
        : Model(nullptr, "top"), in_(this, "in_", 16),
          out(this, "out", 16), a(this, "a"), b(this, "b")
    {
        connect(in_, a.in_);
        connect(a.out, b.in_);
        connect(b.out, out);
    }
};

TEST(BackendKernels, ReportCountsBlocksAlikeAtAnyThreadCount)
{
    // The "blocks:" line of simulatorReport describes the design's
    // specialization, not the kernel that runs it.
    auto blocksLine = [](int threads) {
        SimConfig cfg = SimConfig::fromString("bytecode");
        cfg.threads = threads;
        auto top = makeKernelMesh();
        auto sim = makeSimulator(top->elaborate(), cfg);
        const std::string report = simulatorReport(*sim);
        const size_t at = report.find("  blocks: ");
        EXPECT_NE(at, std::string::npos) << report;
        return report.substr(at, report.find('\n', at) - at);
    };
    const std::string seq = blocksLine(1);
    EXPECT_EQ(seq, "  blocks: 353 total, 352 specialized, 6 kernel(s)");
    EXPECT_EQ(blocksLine(2), seq);
}

TEST(BackendKernels, TabledSlotsMatchBytecodeInLockstep)
{
    if (!CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";
    IncChain ref_top, top;
    SimulationTool ref(ref_top.elaborate(), SimConfig::fromString("bytecode"));
    SimConfig cfg = SimConfig::fromString("cpp-design");
    cfg.jit_tiered = false; // native from the first cycle
    SimulationTool sim(top.elaborate(), cfg);
    EXPECT_EQ(sim.specStats().kernelTypes, 1);

    ref.reset();
    sim.reset();
    for (uint64_t i = 0; i < 40; ++i) {
        const uint64_t in = (i * 7919) & 0xffff;
        ref_top.in_.setValue(in);
        top.in_.setValue(in);
        ref.cycle();
        sim.cycle();
        expectSameState(ref, sim, "inc chain");
    }
    EXPECT_EQ(top.out.u64(), ((38 * 7919 + 2) & 0xffff));
}

// ------------------------------------------------ JIT cache LRU cap

class JitCacheLru : public ::testing::Test
{
  protected:
    std::string dir_;

    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "cmtl_lru_" +
               std::to_string(::getpid());
        ::mkdir(dir_.c_str(), 0755);
    }

    void
    TearDown() override
    {
        // Best-effort cleanup; leftover files only waste tmp space.
        for (const char *f : {"cmtl_a.so", "cmtl_b.so", "cmtl_c.so",
                              "other.so", "cmtl_d.txt"})
            std::remove((dir_ + "/" + f).c_str());
        ::rmdir(dir_.c_str());
    }

    std::string
    makeFile(const std::string &name, size_t bytes, int age_seconds)
    {
        std::string path = dir_ + "/" + name;
        std::ofstream(path) << std::string(bytes, 'x');
        struct timeval now;
        ::gettimeofday(&now, nullptr);
        struct timeval times[2] = {now, now};
        times[0].tv_sec -= age_seconds;
        times[1].tv_sec -= age_seconds;
        ::utimes(path.c_str(), times);
        return path;
    }

    bool
    exists(const std::string &name) const
    {
        struct stat st;
        return ::stat((dir_ + "/" + name).c_str(), &st) == 0;
    }
};

TEST_F(JitCacheLru, EvictsOldestEntriesUntilUnderCap)
{
    makeFile("cmtl_a.so", 1000, 300); // oldest
    makeFile("cmtl_b.so", 1000, 200);
    std::string keep = makeFile("cmtl_c.so", 1000, 100);
    CppJit::evictCache(dir_, 2500, keep);
    EXPECT_FALSE(exists("cmtl_a.so")); // only the oldest goes
    EXPECT_TRUE(exists("cmtl_b.so"));
    EXPECT_TRUE(exists("cmtl_c.so"));
}

TEST_F(JitCacheLru, KeepsTheJustPublishedLibraryAndForeignFiles)
{
    makeFile("cmtl_a.so", 1000, 300);
    makeFile("other.so", 1000, 400);   // not ours: never touched
    makeFile("cmtl_d.txt", 1000, 400); // not a library: never touched
    std::string keep = makeFile("cmtl_c.so", 1000, 100);
    CppJit::evictCache(dir_, 0, keep);
    EXPECT_FALSE(exists("cmtl_a.so"));
    EXPECT_TRUE(exists("cmtl_c.so")) << "evicted the published library";
    EXPECT_TRUE(exists("other.so"));
    EXPECT_TRUE(exists("cmtl_d.txt"));
}

TEST_F(JitCacheLru, UnderCapIsUntouched)
{
    makeFile("cmtl_a.so", 100, 300);
    makeFile("cmtl_b.so", 100, 200);
    CppJit::evictCache(dir_, 1 << 20, "");
    EXPECT_TRUE(exists("cmtl_a.so"));
    EXPECT_TRUE(exists("cmtl_b.so"));
}

TEST_F(JitCacheLru, MalformedCapKeepsTheDefault)
{
    // Trailing junk, a sign, and a MiB count whose bytes overflow.
    for (const char *bad : {"12abc", "-1", "99999999999999999"}) {
        ::setenv("CMTL_JIT_CACHE_MAX_MB", bad, 1);
        EXPECT_EQ(CppJit::cacheMaxBytes(), 256ull << 20) << bad;
    }
    // The largest count that fits in bytes is still taken as given.
    ::setenv("CMTL_JIT_CACHE_MAX_MB", "17592186044415", 1);
    EXPECT_EQ(CppJit::cacheMaxBytes(), 17592186044415ull << 20);
    ::unsetenv("CMTL_JIT_CACHE_MAX_MB");
}

TEST(JitCacheCap, EnvOverridesDefault)
{
    ::unsetenv("CMTL_JIT_CACHE_MAX_MB");
    EXPECT_EQ(CppJit::cacheMaxBytes(), 256ull << 20);
    ::setenv("CMTL_JIT_CACHE_MAX_MB", "7", 1);
    EXPECT_EQ(CppJit::cacheMaxBytes(), 7ull << 20);
    ::setenv("CMTL_JIT_CACHE_MAX_MB", "garbage", 1);
    EXPECT_EQ(CppJit::cacheMaxBytes(), 256ull << 20);
    ::unsetenv("CMTL_JIT_CACHE_MAX_MB");
}

TEST(JitCacheCap, PublishTrimsTheCacheDirectory)
{
    if (!CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";
    std::string dir = ::testing::TempDir() + "cmtl_lru_e2e_" +
                      std::to_string(::getpid());
    ::setenv("CMTL_JIT_CACHE_MAX_MB", "0", 1);
    const char *src_a = "#include <cstdint>\n// variant a\n"
                        "extern \"C\" void cmtl_k0(uint64_t *, "
                        "const int32_t *, const uint64_t *, int) {}\n";
    const char *src_b = "#include <cstdint>\n// variant b\n"
                        "extern \"C\" void cmtl_k0(uint64_t *, "
                        "const int32_t *, const uint64_t *, int) {}\n";
    CppJit jit(dir, /*use_cache=*/true);
    std::string so_a = jit.cachePathFor(src_a);
    std::string so_b = jit.cachePathFor(src_b);
    {
        CppJitLibrary lib_a = jit.compile(src_a, 1);
    }
    struct stat st;
    EXPECT_EQ(::stat(so_a.c_str(), &st), 0) << "publish failed";
    {
        // Cap 0: publishing B must evict A (LRU) but keep B itself.
        CppJitLibrary lib_b = jit.compile(src_b, 1);
    }
    EXPECT_NE(::stat(so_a.c_str(), &st), 0) << "A not evicted";
    EXPECT_EQ(::stat(so_b.c_str(), &st), 0) << "B wrongly evicted";
    ::unsetenv("CMTL_JIT_CACHE_MAX_MB");
    std::remove(so_b.c_str());
    ::rmdir(dir.c_str());
}

// ------------------------------------------------ SimOptions parse

std::vector<char *>
argvOf(std::vector<std::string> &args)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return argv;
}

TEST(SimOptionsParse, CommonOptionsAndPositionals)
{
    std::vector<std::string> args = {"prog",      "--backend=cpp-design",
                                     "--threads", "4",
                                     "rtl",       "64",
                                     "--profile=json"};
    auto argv = argvOf(args);
    auto opts = cmtl::stdlib::SimOptions::parse(
        static_cast<int>(argv.size()), argv.data());
    EXPECT_TRUE(opts.backend_set);
    EXPECT_EQ(opts.cfg.toString(), "cpp-design");
    // The CLI clamps to the hardware thread count, so the expected
    // value depends on the host running the test.
    unsigned hw = std::thread::hardware_concurrency();
    int want = (hw > 0 && hw < 4) ? static_cast<int>(hw) : 4;
    EXPECT_EQ(opts.cfg.threads, want);
    EXPECT_EQ(opts.threads, want);
    EXPECT_EQ(opts.level, "rtl");
    EXPECT_TRUE(opts.profile);
    EXPECT_TRUE(opts.profile_json);
    EXPECT_EQ(opts.intArg(16), 64);
    ASSERT_EQ(opts.positional.size(), 1u);
}

TEST(SimOptionsParse, ThreadsClampToHardwareConcurrency)
{
    // An absurd request must come back clamped to the host (the
    // warning goes to stderr); programmatic SimConfig::threads is
    // intentionally NOT clamped, so only the CLI path is tested.
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        GTEST_SKIP() << "hardware_concurrency unknown on this host";
    std::vector<std::string> args = {"prog", "--threads=4096"};
    auto argv = argvOf(args);
    auto opts = cmtl::stdlib::SimOptions::parse(
        static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(opts.threads, static_cast<int>(hw));
    EXPECT_EQ(opts.cfg.threads, static_cast<int>(hw));
}

TEST(SimOptionsParseDeath, BadThreadsAndJobsValuesExit2)
{
    // Parsed as strictly as --cycles: a trailing suffix, a sign, a
    // fraction or an int overflow is a diagnostic, not a truncation.
    for (const char *flag : {"--threads", "--jobs"}) {
        for (const char *bad : {"2x", "", "0", "-1", "+2", " 2", "2.5",
                                "4294967298"}) {
            std::vector<std::string> args = {
                "prog", std::string(flag) + "=" + bad};
            auto argv = argvOf(args);
            EXPECT_EXIT(cmtl::stdlib::SimOptions::parse(
                            static_cast<int>(argv.size()), argv.data()),
                        ::testing::ExitedWithCode(2),
                        "wants a positive integer")
                << flag << "=" << bad;
        }
    }
}

TEST(SimOptionsParse, DefaultsWhenNothingGiven)
{
    ::unsetenv("CMTL_BENCH_FULL");
    std::vector<std::string> args = {"prog"};
    auto argv = argvOf(args);
    auto opts = cmtl::stdlib::SimOptions::parse(
        static_cast<int>(argv.size()), argv.data());
    EXPECT_FALSE(opts.backend_set);
    EXPECT_EQ(opts.cfg.toString(), "optinterp");
    EXPECT_EQ(opts.threads, 1);
    EXPECT_FALSE(opts.profile);
    EXPECT_FALSE(opts.full);
    EXPECT_EQ(opts.intArg(16), 16);
}

TEST(SimOptionsParseDeath, UnknownBackendExits2)
{
    std::vector<std::string> args = {"prog", "--backend=pypy"};
    auto argv = argvOf(args);
    EXPECT_EXIT(cmtl::stdlib::SimOptions::parse(
                    static_cast<int>(argv.size()), argv.data()),
                ::testing::ExitedWithCode(2), "unknown backend");
}

TEST(SimOptionsParseDeath, UnknownFlagExits2)
{
    // Silent ignores mask typos like --thread=4; strict parsing turns
    // them into a diagnostic pointing at --help.
    std::vector<std::string> args = {"prog", "--thread=4"};
    auto argv = argvOf(args);
    EXPECT_EXIT(cmtl::stdlib::SimOptions::parse(
                    static_cast<int>(argv.size()), argv.data()),
                ::testing::ExitedWithCode(2),
                "unknown option '--thread=4'.*--help");
}

TEST(SimOptionsParseDeath, HelpPrintsTheOptionTableAndExits0)
{
    std::vector<std::string> args = {"prog", "--help"};
    auto argv = argvOf(args);
    EXPECT_EXIT(
        {
            // --help prints to stdout; route it to stderr so the death
            // test's matcher sees it.
            ::dup2(2, 1);
            cmtl::stdlib::SimOptions::parse(
                static_cast<int>(argv.size()), argv.data());
        },
        ::testing::ExitedWithCode(0), "--checkpoint=<path\\[:n\\]>");
}

TEST(SimOptionsParseDeath, BadCyclesValueExits2)
{
    for (const char *bad : {"--cycles=soon", "--cycles=-1"}) {
        std::vector<std::string> args = {"prog", bad};
        auto argv = argvOf(args);
        EXPECT_EXIT(cmtl::stdlib::SimOptions::parse(
                        static_cast<int>(argv.size()), argv.data()),
                    ::testing::ExitedWithCode(2), "non-negative integer")
            << bad;
    }
}

TEST(SimOptionsParse, CheckpointVcdAndResumeOptions)
{
    std::vector<std::string> args = {
        "prog", "--cycles=8000", "--vcd=out.vcd",
        "--checkpoint=mesh.snap:250", "--resume=mesh.snap.5000"};
    auto argv = argvOf(args);
    auto opts = cmtl::stdlib::SimOptions::parse(
        static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(opts.cycles, 8000u);
    EXPECT_EQ(opts.vcd, "out.vcd");
    EXPECT_EQ(opts.checkpoint_path, "mesh.snap");
    EXPECT_EQ(opts.checkpoint_every, 250u);
    EXPECT_EQ(opts.resume, "mesh.snap.5000");
}

TEST(SimOptionsParse, ListenAndJobsOptions)
{
    std::vector<std::string> args = {"prog", "--listen=/tmp/sim.sock",
                                     "--jobs=4"};
    auto argv = argvOf(args);
    auto opts = cmtl::stdlib::SimOptions::parse(
        static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(opts.listen, "/tmp/sim.sock");
    EXPECT_EQ(opts.jobs, 4);
}

TEST(SimOptionsParse, ListenAndJobsDefaultOff)
{
    std::vector<std::string> args = {"prog"};
    auto argv = argvOf(args);
    auto opts = cmtl::stdlib::SimOptions::parse(
        static_cast<int>(argv.size()), argv.data());
    EXPECT_TRUE(opts.listen.empty());
    EXPECT_EQ(opts.jobs, 0);
}

TEST(SimOptionsParseDeath, EmptyListenPathExits2)
{
    std::vector<std::string> args = {"prog", "--listen="};
    auto argv = argvOf(args);
    EXPECT_EXIT(cmtl::stdlib::SimOptions::parse(
                    static_cast<int>(argv.size()), argv.data()),
                ::testing::ExitedWithCode(2), "socket path");
}

TEST(SimOptionsParseDeath, NonPositiveJobsExits2)
{
    std::vector<std::string> args = {"prog", "--jobs=0"};
    auto argv = argvOf(args);
    EXPECT_EXIT(cmtl::stdlib::SimOptions::parse(
                    static_cast<int>(argv.size()), argv.data()),
                ::testing::ExitedWithCode(2), "positive integer");
}

TEST(SimOptionsParse, CheckpointIntervalDefaultsAndColonPaths)
{
    std::vector<std::string> args = {"prog", "--checkpoint=dir:v2/m.snap"};
    auto argv = argvOf(args);
    auto opts = cmtl::stdlib::SimOptions::parse(
        static_cast<int>(argv.size()), argv.data());
    // The suffix after the last ':' is not all digits, so the colon
    // belongs to the path and the interval takes its default.
    EXPECT_EQ(opts.checkpoint_path, "dir:v2/m.snap");
    EXPECT_EQ(opts.checkpoint_every, 1000u);
}

} // namespace
} // namespace cmtl
