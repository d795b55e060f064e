/**
 * @file
 * SimScope observability-layer tests: attach/detach, hot-block
 * ranking, ParSim phase timing across thread counts, val/rdy channel
 * accounting against a hand-computed scenario, the JSON snapshot
 * schema and the shared JSON encoder's round trip through the wire
 * decoder — plus the SimJIT cache-key regression tests (compiler
 * version and flags in the key, nested cache dirs, mkdir failure
 * reporting).
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <memory>

#include "core/jit_cpp.h"
#include "core/psim.h"
#include "core/scope.h"
#include "core/sim.h"
#include "net/traffic.h"
#include "server/proto.h"
#include "stdlib/valrdy.h"
#include "test_models.h"

namespace cmtl {
namespace {

using net::MeshTrafficTop;
using net::NetLevel;
using testmodels::Counter;

// ------------------------------------------------------------------
// Attach / detach lifecycle
// ------------------------------------------------------------------

TEST(Scope, AttachDetachRestoresFastPath)
{
    auto top = std::make_unique<Counter>(nullptr, "top", 8);
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    EXPECT_EQ(sim.scopeProbe(), nullptr);

    SimScope scope(sim);
    EXPECT_TRUE(scope.attached());
    EXPECT_EQ(sim.scopeProbe(), &scope.probe());

    top->en.setValue(uint64_t(1));
    sim.cycle(10);
    EXPECT_EQ(scope.cycles(), 10u);

    scope.detach();
    EXPECT_FALSE(scope.attached());
    EXPECT_EQ(sim.scopeProbe(), nullptr);

    // The (inert) hook stays registered; counts stop advancing.
    sim.cycle(5);
    EXPECT_EQ(scope.cycles(), 10u);
    EXPECT_EQ(top->count.u64(), 15u); // simulation unaffected
}

TEST(Scope, ScopeDestructionDetaches)
{
    auto top = std::make_unique<Counter>(nullptr, "top", 8);
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    {
        SimScope scope(sim);
        EXPECT_NE(sim.scopeProbe(), nullptr);
    }
    EXPECT_EQ(sim.scopeProbe(), nullptr);
    sim.cycle(3); // must not touch freed probe memory
}

// ------------------------------------------------------------------
// Hot-block ranking
// ------------------------------------------------------------------

TEST(Scope, HotBlocksHaveHierarchicalPathsAndCalls)
{
    auto top = std::make_unique<Counter>(nullptr, "top", 8);
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    SimScope scope(sim);
    top->en.setValue(uint64_t(1));
    sim.cycle(100);

    auto hot = scope.hotBlocks();
    ASSERT_FALSE(hot.empty());
    EXPECT_EQ(hot[0].path, "top.seq");
    EXPECT_EQ(hot[0].calls, 100u);
    EXPECT_GE(hot[0].seconds, 0.0);
}

TEST(Scope, SampledTimingCountsEveryCall)
{
    auto top = std::make_unique<Counter>(nullptr, "top", 8);
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    SimScope::Options opt;
    opt.timing = SimScope::Timing::Sampled;
    opt.sample_period = 8;
    SimScope scope(sim, opt);
    top->en.setValue(uint64_t(1));
    sim.cycle(64);

    // Calls are exact even in sampled mode; only timing is sampled.
    auto hot = scope.hotBlocks();
    ASSERT_FALSE(hot.empty());
    EXPECT_EQ(hot[0].calls, 64u);
}

// ------------------------------------------------------------------
// ParSim phase timing across thread counts
// ------------------------------------------------------------------

TEST(Scope, ParSimPhaseTimingAcrossThreadCounts)
{
    for (int threads : {1, 2, 4}) {
        auto top = std::make_unique<MeshTrafficTop>(
            "top", NetLevel::RTL, 16, 4, 0.30, 1);
        auto elab = top->elaborate();
        SimConfig cfg;
        cfg.backend = Backend::OptInterp;
        cfg.threads = threads;
        auto sim = makeSimulator(elab, cfg);

        SimScope scope(*sim);
        sim->cycle(64);
        EXPECT_EQ(scope.cycles(), 64u) << "threads " << threads;

        SimScope::PhaseBreakdown pb = scope.phaseBreakdown();
        EXPECT_GT(pb.settle_seconds + pb.tick_seconds + pb.flop_seconds,
                  0.0)
            << "threads " << threads;
        if (auto *par = dynamic_cast<ParSimulationTool *>(sim.get())) {
            EXPECT_EQ(pb.nislands, par->plan().nislands);
            // A 16-router RTL mesh partitioned across islands always
            // exchanges boundary values.
            if (par->plan().nislands > 1) {
                EXPECT_GT(pb.boundary_bytes, 0u);
            }
        } else {
            EXPECT_EQ(pb.nislands, 1);
            EXPECT_EQ(pb.boundary_bytes, 0u);
            EXPECT_EQ(pb.barrier_seconds, 0.0);
        }
        scope.detach();
    }
}

TEST(Scope, BytecodeBatchesHeatEverySpecializedBlock)
{
    // A batch is timed by one stopwatch and credited evenly to its
    // lanes, so every specialized block still ranks with its own heat
    // and one call per run.
    for (int threads : {1, 2}) {
        auto top = std::make_unique<MeshTrafficTop>(
            "top", NetLevel::RTL, 16, 4, 0.30, 1);
        auto elab = top->elaborate();
        SimConfig cfg = SimConfig::fromString("bytecode");
        cfg.threads = threads;
        auto sim = makeSimulator(elab, cfg);
        SimScope scope(*sim);
        sim->cycle(64);

        std::map<std::string, SimScope::BlockCost> cost;
        for (const SimScope::BlockCost &b :
             scope.hotBlocks(elab->blocks.size()))
            cost[b.path] = b;
        int specialized = 0;
        for (const BcBatch &batch : sim->bytecodeBatches()) {
            for (int b : batch.blocks) {
                const std::string &path = elab->blocks[b].name;
                ASSERT_TRUE(cost.count(path)) << path;
                EXPECT_GT(cost[path].seconds, 0.0) << path;
                EXPECT_GE(cost[path].calls, 64u) << path;
                ++specialized;
            }
        }
        EXPECT_EQ(specialized, sim->specStats().numSpecialized)
            << "threads " << threads;
        scope.detach();
    }
}

TEST(Scope, NativeKernelsHeatEveryBlockType)
{
    // cpp-design runs the bytecode batch list as kernel calls, each
    // inside the same stopwatch bracket as a bytecode batch, so every
    // kernel type has blocks with heat of their own.
    if (!CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";
    for (int threads : {1, 2}) {
        auto top = std::make_unique<MeshTrafficTop>(
            "top", NetLevel::RTL, 16, 4, 0.30, 1);
        auto elab = top->elaborate();
        SimConfig cfg = SimConfig::fromString("cpp-design");
        cfg.jit_tiered = false;
        cfg.threads = threads;
        auto sim = makeSimulator(elab, cfg);
        ASSERT_EQ(sim->specStats().tierSwapCycle, 0);
        SimScope scope(*sim);
        sim->cycle(64);

        std::map<const BcProgram *, double> hottest;
        for (const BcBatch &batch : sim->bytecodeBatches()) {
            for (int b : batch.blocks) {
                hottest[batch.prog] = std::max(
                    hottest[batch.prog], scope.probe().block_seconds[b]);
            }
        }
        EXPECT_EQ(static_cast<int>(hottest.size()),
                  sim->specStats().kernelTypes);
        for (const auto &[prog, seconds] : hottest)
            EXPECT_GT(seconds, 0.0) << "threads " << threads;
        scope.detach();
    }
}

TEST(Scope, KernelsSumTheirBlocksPerShape)
{
    // The kernel ranking sums the blocks of each IR shape: the 4x4
    // mesh's 16 route_comb blocks are one entry of 16 lanes, and the
    // entries together hold every timed second and every call.
    for (int threads : {1, 2}) {
        auto top = std::make_unique<MeshTrafficTop>(
            "top", NetLevel::RTL, 16, 4, 0.30, 1);
        auto elab = top->elaborate();
        SimConfig cfg = SimConfig::fromString("bytecode");
        cfg.threads = threads;
        auto sim = makeSimulator(elab, cfg);
        SimScope scope(*sim);
        sim->cycle(64);

        const std::vector<SimScope::KernelCost> kernels =
            scope.hotKernels(elab->blocks.size());
        double seconds = 0.0;
        uint64_t calls = 0;
        int lanes = 0;
        int route = 0;
        for (const SimScope::KernelCost &k : kernels) {
            seconds += k.seconds;
            calls += k.calls;
            lanes += k.lanes;
            const std::string tail = ".route_comb";
            if (k.name.size() > tail.size() &&
                k.name.compare(k.name.size() - tail.size(), tail.size(),
                               tail) == 0) {
                ++route;
                EXPECT_EQ(k.lanes, 16);
                EXPECT_GE(k.calls, 16u * 64);
            }
        }
        EXPECT_EQ(route, 1) << "threads " << threads;
        const ScopeProbe &probe = scope.probe();
        double want_seconds = 0.0;
        uint64_t want_calls = 0;
        int ran = 0;
        for (size_t b = 0; b < probe.block_calls.size(); ++b) {
            want_seconds += probe.block_seconds[b];
            want_calls += probe.block_calls[b];
            ran += probe.block_calls[b] > 0;
        }
        EXPECT_NEAR(seconds, want_seconds, 1e-9 + 1e-9 * want_seconds);
        EXPECT_EQ(calls, want_calls);
        EXPECT_EQ(lanes, ran);
        EXPECT_LT(static_cast<int>(kernels.size()), ran);
        EXPECT_TRUE(std::is_sorted(
            kernels.begin(), kernels.end(),
            [](const SimScope::KernelCost &a,
               const SimScope::KernelCost &b) {
                return a.seconds > b.seconds;
            }));
        scope.detach();
    }
}

// ------------------------------------------------------------------
// Val/rdy channel accounting
// ------------------------------------------------------------------

/** Three bare channel wires driven by the test, plus one real block. */
class ChannelTop : public Model
{
  public:
    OutPort msg, val, rdy;
    Counter cnt;

    ChannelTop()
        : Model(nullptr, "top"), msg(this, "ch_msg", 8),
          val(this, "ch_val", 1), rdy(this, "ch_rdy", 1),
          cnt(this, "cnt", 8)
    {}
};

TEST(Scope, ValRdyStallAccountingHandComputed)
{
    auto top = std::make_unique<ChannelTop>();
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    SimScope scope(sim);
    scope.traceValRdy("top.ch", top->msg, top->val, top->rdy);

    // cycle:        1    2    3    4    5    6
    // val:          0    1    1    1    0    1
    // rdy:          0    0    0    1    0    1
    // outcome:    idle stall stall fire idle fire(latency 0)
    const int val_seq[] = {0, 1, 1, 1, 0, 1};
    const int rdy_seq[] = {0, 0, 0, 1, 0, 1};
    for (int i = 0; i < 6; ++i) {
        top->val.setValue(uint64_t(val_seq[i]));
        top->rdy.setValue(uint64_t(rdy_seq[i]));
        sim.cycle();
    }

    ASSERT_EQ(scope.channels().size(), 1u);
    const SimScope::ChannelStats &ch = scope.channels()[0];
    EXPECT_EQ(ch.cycles, 6u);
    EXPECT_EQ(ch.transfers, 2u);
    EXPECT_EQ(ch.stall_cycles, 2u);
    EXPECT_EQ(ch.idle_cycles, 2u);
    EXPECT_DOUBLE_EQ(ch.occupancy(), 4.0 / 6.0);
    // First transfer waited 2 stalled cycles, second fired at once.
    EXPECT_EQ(ch.latency.count(), 2u);
    EXPECT_EQ(ch.latency.sum(), 2u);
    EXPECT_EQ(ch.latency.min(), 0u);
    EXPECT_EQ(ch.latency.max(), 2u);
}

/** Producer/consumer pair with stdlib bundles for discovery. */
class Producer : public Model
{
  public:
    OutValRdy out;
    Producer(Model *parent, const std::string &name)
        : Model(parent, name), out(this, "out", 8)
    {}
};

class ConsumerM : public Model
{
  public:
    InValRdy in_;
    ConsumerM(Model *parent, const std::string &name)
        : Model(parent, name), in_(this, "in", 8)
    {}
};

class PcTop : public Model
{
  public:
    Producer prod;
    ConsumerM cons;
    Counter cnt;

    PcTop()
        : Model(nullptr, "top"), prod(this, "prod"), cons(this, "cons"),
          cnt(this, "cnt", 8)
    {
        connectValRdy(*this, prod.out, cons.in_);
    }
};

TEST(Scope, TraceAllValRdyDedupsConnectedEndpoints)
{
    auto top = std::make_unique<PcTop>();
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    SimScope scope(sim);

    // Both bundle endpoints share one net triple: one channel, named
    // after the shallowest (pre-order first) model owning the triple.
    EXPECT_EQ(scope.traceAllValRdy(), 1);
    ASSERT_EQ(scope.channels().size(), 1u);
    EXPECT_EQ(scope.channels()[0].name, "top.prod.out");

    // Re-running discovers nothing new.
    EXPECT_EQ(scope.traceAllValRdy(), 0);
}

TEST(Scope, TraceAllValRdyFindsMeshChannels)
{
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 4,
                                                2, 0.2, 1);
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    SimScope scope(sim);
    int n = scope.traceAllValRdy();
    EXPECT_GT(n, 0);
    sim.cycle(100);
    uint64_t transfers = 0;
    for (const auto &ch : scope.channels())
        transfers += ch.transfers;
    EXPECT_GT(transfers, 0u); // traffic actually flows near 20% load
}

// ------------------------------------------------------------------
// Snapshot schema and the shared JSON encoder
// ------------------------------------------------------------------

TEST(Scope, JsonSnapshotHasRequiredKeys)
{
    auto top = std::make_unique<ChannelTop>();
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    SimScope scope(sim);
    scope.traceValRdy("top.ch", top->msg, top->val, top->rdy);
    sim.cycle(10);

    std::string json = scope.snapshot().encode();
    for (const char *key :
         {"\"scope_version\":5", "\"kernel\":\"sequential\"",
          "\"timing\":\"exact\"", "\"cycles\":10", "\"phases\":",
          "\"islands\":", "\"blocks\":", "\"kernels\":[{\"name\":",
          "\"lanes\":1,", "\"channels\":",
          "\"jit\":{\"ir_cpp.codegen_s\":0,\"jit_cpp.compile_s\":0,"
          "\"jit_cpp.cache_hit\":0}"}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    // Each quantity has one name: no registry mirrors the typed
    // sections under scope.* names.
    EXPECT_EQ(json.find("\"metrics\""), std::string::npos);
    EXPECT_EQ(json.find("\"scope."), std::string::npos);
    // Single-line output (embeddable as a raw JSON value).
    EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(Scope, SnapshotEscapesChannelNames)
{
    auto top = std::make_unique<ChannelTop>();
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    SimScope scope(sim);
    const std::string name = "a\"b\\c\nd";
    scope.traceValRdy(name, top->msg, top->val, top->rdy);
    sim.cycle(4);

    std::string json = scope.snapshot().encode();
    EXPECT_EQ(json.find('\n'), std::string::npos);
    Json back = server::jsonParse(json);
    const Json *channels = back.find("channels");
    ASSERT_NE(channels, nullptr);
    ASSERT_EQ(channels->arr.size(), 1u);
    EXPECT_EQ(channels->arr[0].find("name")->asStr(), name);
}

/** Encoding, decoding and encoding again gives the same bytes. */
void
expectStableEncoding(const Json &x)
{
    const std::string text = x.encode();
    EXPECT_EQ(server::jsonParse(text).encode(), text) << text;
}

TEST(JsonEncode, EveryDoubleIsValidJson)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double two53 = 9007199254740992.0;
    const double values[] = {
        std::numeric_limits<double>::quiet_NaN(), inf, -inf, -0.0,
        two53 - 1, two53, static_cast<double>((1ull << 53) + 1),
        two53 + 2, 1e300, -1e300, std::numeric_limits<double>::denorm_min(),
        0.1, -2.5, 18446744073709551616.0};
    for (double v : values) {
        expectStableEncoding(Json::number(v));
        if (std::isfinite(v)) {
            EXPECT_EQ(server::jsonParse(Json::number(v).encode()).asNum(), v)
                << v;
        }
    }
    EXPECT_EQ(Json::number(std::nan("")).encode(), "null");
    EXPECT_EQ(Json::number(-inf).encode(), "null");
    EXPECT_EQ(Json::number(-0.0).encode(), "0");
    EXPECT_EQ(Json::number(two53 - 1).encode(), "9007199254740991");
    EXPECT_EQ(Json::number(0.1).encode(), "0.1");
    EXPECT_EQ(Json::number(1e300).encode(), "1e+300");
}

TEST(JsonEncode, EveryControlByteIsEscaped)
{
    std::string all;
    for (int c = 0x01; c <= 0x1f; ++c)
        all += static_cast<char>(c);
    all += "\"\\";
    for (char c : all) {
        const std::string s = std::string("x") + c + "y";
        const Json x = Json::string(s);
        expectStableEncoding(x);
        EXPECT_EQ(server::jsonParse(x.encode()).asStr(), s);
        for (char e : x.encode())
            EXPECT_GE(static_cast<unsigned char>(e), 0x20u);
    }
    expectStableEncoding(Json::object().set(all, Json::string(all)));
}

TEST(Scope, HistogramBucketsArePowersOfTwo)
{
    ScopeHistogram h;
    h.record(0);
    h.record(1);
    h.record(2);
    h.record(3);
    h.record(8);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 14u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 8u);
    auto b = h.buckets();
    ASSERT_EQ(b.size(), 5u); // buckets 0..4, top non-empty = [8,15]
    EXPECT_EQ(b[0], 1u);     // value 0
    EXPECT_EQ(b[1], 1u);     // value 1
    EXPECT_EQ(b[2], 2u);     // values 2,3
    EXPECT_EQ(b[3], 0u);     // values 4..7
    EXPECT_EQ(b[4], 1u);     // value 8
}

// ------------------------------------------------------------------
// SimJIT cache key and cache-dir regressions
// ------------------------------------------------------------------

class JitCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = "/tmp/cmtl-scope-jit-" + std::to_string(::getpid()) +
               "-" +
               std::to_string(
                   ::testing::UnitTest::GetInstance()->random_seed()) +
               "-" + ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name();
        ::system(("rm -rf '" + dir_ + "'").c_str());
    }

    void
    TearDown() override
    {
        ::system(("rm -rf '" + dir_ + "'").c_str());
    }

    std::string dir_;
};

const char *kTrivialSource =
    "extern \"C\" void cmtl_k0(unsigned long long *, const int *,\n"
    "                            const unsigned long long *, int) {}\n";

TEST_F(JitCacheTest, KeyChangesWhenFlagsChange)
{
    CppJit plain(dir_, true);
    CppJit flagged(dir_, true, "-DCMTL_TEST=1");
    CppJit same(dir_, true);
    EXPECT_NE(plain.cachePathFor(kTrivialSource),
              flagged.cachePathFor(kTrivialSource));
    EXPECT_EQ(plain.cachePathFor(kTrivialSource),
              same.cachePathFor(kTrivialSource));
    // Different sources must never collide on a key.
    EXPECT_NE(plain.cachePathFor(kTrivialSource),
              plain.cachePathFor(std::string(kTrivialSource) + "//x\n"));
}

TEST_F(JitCacheTest, KeyCoversCompilerVersionAndFormat)
{
    CppJit jit(dir_, true);
    std::string path = jit.cachePathFor(kTrivialSource);
    // v2 format namespace: old cmtl_<hash>.so entries never match.
    EXPECT_NE(path.find("/cmtl_v2_"), std::string::npos);
    EXPECT_NE(CppJit::compilerVersion(), "");
    EXPECT_NE(jit.flagString().find("-O1"), std::string::npos);
}

TEST_F(JitCacheTest, CacheHitAcrossInstancesMissAcrossFlags)
{
    if (!CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";

    CppJit jit1(dir_, true);
    CppJitLibrary lib1 = jit1.compile(kTrivialSource, 1);
    EXPECT_FALSE(lib1.cacheHit());

    // Fresh instance, same dir/flags: warm, like a second process.
    CppJit jit2(dir_, true);
    CppJitLibrary lib2 = jit2.compile(kTrivialSource, 1);
    EXPECT_TRUE(lib2.cacheHit());

    // Same source, different flags: must recompile, not reuse.
    CppJit jit3(dir_, true, "-DCMTL_TEST=1");
    CppJitLibrary lib3 = jit3.compile(kTrivialSource, 1);
    EXPECT_FALSE(lib3.cacheHit());
}

TEST_F(JitCacheTest, NestedCacheDirIsCreatedRecursively)
{
    std::string nested = dir_ + "/a/b/c";
    CppJit jit(nested, true);
    struct stat st;
    ASSERT_EQ(::stat(nested.c_str(), &st), 0);
    EXPECT_TRUE(S_ISDIR(st.st_mode));
}

TEST_F(JitCacheTest, UncreatableCacheDirThrows)
{
    // A regular file blocks the path: mkdir must fail loudly.
    ASSERT_EQ(::mkdir(dir_.c_str(), 0755), 0);
    std::ofstream(dir_ + "/blocker").put('x');
    EXPECT_THROW(CppJit(dir_ + "/blocker/sub", true),
                 std::runtime_error);
}

} // namespace
} // namespace cmtl
