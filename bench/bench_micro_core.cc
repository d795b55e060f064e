/**
 * @file
 * Microbenchmarks of the framework primitives (google-benchmark).
 *
 * Covers the Bits value type (narrow and wide paths), the three IR
 * execution engines on an operator-torture block, the two signal
 * storage backends — the primitives whose relative costs produce the
 * macro-level results in Figures 13-15 — the native cycle of the 8x8
 * RTL mesh, the set-up stages a user waits for before the first cycle
 * of the 16x16 RTL mesh, and the state digest that reads its results.
 */

#include <benchmark/benchmark.h>

#include <stdlib.h>

#include <filesystem>
#include <memory>
#include <numeric>

#include "core/ir_bytecode.h"
#include "core/ir_eval.h"
#include "core/ir_cpp.h"
#include "core/jit_cpp.h"
#include "core/model.h"
#include "core/partition.h"
#include "core/psim.h"
#include "core/snap.h"
#include "core/store.h"
#include "core/timing.h"
#include "net/traffic.h"

namespace {

using namespace cmtl;

// ------------------------------------------------------------- Bits

void
BM_BitsAddNarrow(benchmark::State &state)
{
    Bits a(32, 123456), b(32, 654321);
    for (auto _ : state)
        benchmark::DoNotOptimize(a + b);
}
BENCHMARK(BM_BitsAddNarrow);

void
BM_BitsAddWide(benchmark::State &state)
{
    Bits a = Bits::fromWords(128, {~uint64_t(0), 1});
    Bits b = Bits::fromWords(128, {5, 6});
    for (auto _ : state)
        benchmark::DoNotOptimize(a + b);
}
BENCHMARK(BM_BitsAddWide);

void
BM_BitsMulWide(benchmark::State &state)
{
    Bits a = Bits::fromWords(128, {0x123456789abcdefull, 77});
    Bits b = Bits::fromWords(128, {0xfedcba987654321ull, 88});
    for (auto _ : state)
        benchmark::DoNotOptimize(a * b);
}
BENCHMARK(BM_BitsMulWide);

void
BM_BitsSlice(benchmark::State &state)
{
    Bits a = Bits::fromWords(128, {0x123456789abcdefull, 77});
    for (auto _ : state)
        benchmark::DoNotOptimize(a.slice(37, 48));
}
BENCHMARK(BM_BitsSlice);

// ------------------------------------------------- execution engines

/** The operator-torture ALU from the IR test suite. */
class TortureAlu : public Model
{
  public:
    InPort a, b;
    OutPort res;
    explicit TortureAlu(Model *parent = nullptr,
                        const std::string &name = "alu")
        : Model(parent, name), a(this, "a", 32), b(this, "b", 32),
          res(this, "res", 32)
    {
        auto &c = combinational("comb");
        IrExpr ea = rd(a), eb = rd(b);
        IrExpr t = c.let("t", (ea * eb) ^ (ea - eb));
        IrExpr shifted = (t << eb.slice(0, 3)) | (t >> ea.slice(0, 3));
        IrExpr cmp = mux(ea < eb, ea + eb, shifted);
        c.if_(ea == eb, [&] { c.assign(res, cmp + 1); },
              [&] { c.assign(res, cmp ^ t); });
    }
};

struct EngineFixture
{
    TortureAlu alu;
    std::shared_ptr<Elaboration> elab = alu.elaborate();
    ArenaStore arena{*elab};
    BoxedStore boxed{*elab};
};

void
BM_EngineBoxedTreeWalk(benchmark::State &state)
{
    EngineFixture f;
    BoxedEvaluator eval(f.boxed);
    uint64_t i = 0;
    for (auto _ : state) {
        f.boxed.write(f.alu.a.netId(), Bits(32, ++i));
        f.boxed.write(f.alu.b.netId(), Bits(32, i * 7));
        eval.run(f.elab->blocks[0]);
    }
}
BENCHMARK(BM_EngineBoxedTreeWalk);

void
BM_EngineSlotTreeWalk(benchmark::State &state)
{
    EngineFixture f;
    SlotEvaluator eval(f.arena);
    // A net owns its arena words, so raw word stores at the slot
    // offset are exact — the same fast path the kernels use.
    uint64_t *w = f.arena.data();
    const int a = f.arena.offset(f.alu.a.netId());
    const int b = f.arena.offset(f.alu.b.netId());
    const uint64_t am = f.arena.mask(f.alu.a.netId());
    const uint64_t bm = f.arena.mask(f.alu.b.netId());
    uint64_t i = 0;
    for (auto _ : state) {
        w[a] = ++i & am;
        w[b] = (i * 7) & bm;
        eval.run(f.elab->blocks[0]);
    }
}
BENCHMARK(BM_EngineSlotTreeWalk);

/** Independent torture ALUs: one block type, one lane per instance. */
class AluArray : public Model
{
  public:
    std::vector<std::unique_ptr<TortureAlu>> alus;
    explicit AluArray(int n) : Model(nullptr, "top")
    {
        for (int i = 0; i < n; ++i) {
            alus.push_back(
                std::make_unique<TortureAlu>(this, "alu" + std::to_string(i)));
        }
    }
};

/**
 * state.range(0) torture-ALU lanes of one program, and their inputs.
 * The inputs keep a != b, so every lane takes the else side of the
 * block's if.
 */
struct AluLanes
{
    AluArray top;
    std::shared_ptr<Elaboration> elab = top.elaborate();
    ArenaStore arena{*elab};
    std::vector<int> blocks;
    BcModule mod;
    std::vector<int> a, b;

    explicit AluLanes(int lanes) : top(lanes), blocks(lanes)
    {
        std::iota(blocks.begin(), blocks.end(), 0);
        mod = BcModule(*elab, arena, blocks);
        for (const auto &alu : top.alus) {
            a.push_back(arena.offset(alu->a.netId()));
            b.push_back(arena.offset(alu->b.netId()));
        }
    }

    void
    drive(uint64_t i)
    {
        uint64_t *w = arena.data();
        const uint64_t m = arena.mask(top.alus[0]->a.netId());
        for (size_t l = 0; l < a.size(); ++l) {
            w[a[l]] = (i + l) & m;
            w[b[l]] = ((i + l) * 7 + 1) & m;
        }
    }

    /** ns_per_lane: the time of one batch run over its lane count. */
    void
    report(benchmark::State &state, double seconds) const
    {
        const double lanes = static_cast<double>(state.iterations()) *
                             static_cast<double>(blocks.size());
        state.counters["ns_per_lane"] = seconds * 1e9 / lanes;
        state.SetItemsProcessed(state.iterations() *
                                static_cast<int64_t>(blocks.size()));
    }
};

/** One bytecode batch of all lanes per iteration. */
void
BM_EngineBytecode(benchmark::State &state)
{
    AluLanes f(static_cast<int>(state.range(0)));
    const BcBatch batch = f.mod.batch(f.blocks);
    std::vector<uint64_t> frame(f.mod.frameWords());
    uint64_t i = 0;
    Stopwatch sw;
    for (auto _ : state) {
        f.drive(++i);
        bcRunBatch(batch, f.arena.data(), frame.data());
    }
    f.report(state, sw.elapsed());
}
BENCHMARK(BM_EngineBytecode)->Arg(1)->Arg(32);

/** The same batch as one call of its compiled kernel. */
void
BM_EngineCompiledCpp(benchmark::State &state)
{
    if (!CppJit::compilerAvailable()) {
        state.SkipWithError("no host compiler");
        return;
    }
    AluLanes f(static_cast<int>(state.range(0)));
    const CppProgram prog = cppEmitProgram(f.mod);
    const CppBatch call = cppBatch(prog, f.mod, f.blocks);
    CppJit jit;
    CppJitLibrary lib = jit.compile(prog.source, f.mod.numPrograms());
    const CppJitLibrary::KernelFn kernel = lib.kernel(call.kernel);
    uint64_t i = 0;
    Stopwatch sw;
    for (auto _ : state) {
        f.drive(++i);
        kernel(f.arena.data(), call.rows.data(), call.consts.data(), call.n);
    }
    f.report(state, sw.elapsed());
}
BENCHMARK(BM_EngineCompiledCpp)->Arg(1)->Arg(32);

// ------------------------------------------------- storage backends

void
BM_StoreBoxedReadWrite(benchmark::State &state)
{
    EngineFixture f;
    int net = f.alu.a.netId();
    uint64_t i = 0;
    for (auto _ : state) {
        f.boxed.write(net, Bits(32, ++i));
        benchmark::DoNotOptimize(f.boxed.read(net));
    }
}
BENCHMARK(BM_StoreBoxedReadWrite);

void
BM_StoreArenaReadWrite(benchmark::State &state)
{
    EngineFixture f;
    int net = f.alu.a.netId();
    uint64_t *w = f.arena.data();
    const int off = f.arena.offset(net);
    const uint64_t m = f.arena.mask(net);
    uint64_t i = 0;
    for (auto _ : state) {
        w[off] = ++i & m;
        benchmark::DoNotOptimize(w[off]);
    }
}
BENCHMARK(BM_StoreArenaReadWrite);

// ------------------------------------------------------ native cycle

/**
 * One cycle of the 8x8 RTL mesh of perfbench's mesh64 workloads (30%
 * uniform traffic) on cpp-design's fused kernels, not tiered: the
 * library is compiled into a private cache before the timed loop, so
 * the loop times the kernels, the flops and the traffic lambda alone,
 * without perfbench's per-process set-up.
 */
void
BM_NativeMeshCycle(benchmark::State &state)
{
    if (!CppJit::compilerAvailable()) {
        state.SkipWithError("no host compiler");
        return;
    }
    std::string dir =
        (std::filesystem::temp_directory_path() / "cmtl-jit-bench-XXXXXX")
            .string();
    if (!::mkdtemp(dir.data())) {
        state.SkipWithError("cannot create a private JIT cache");
        return;
    }
    SimConfig cfg = SimConfig::fromString("cpp-design");
    cfg.jit_tiered = false;
    cfg.jit_cache_dir = dir;
    auto mesh = std::make_unique<net::MeshTrafficTop>(
        "top", net::NetLevel::RTL, 64, 4, 0.30, 1);
    auto sim = makeSimulator(mesh->elaborate(), cfg);
    sim->reset();
    sim->cycle(1000);
    for (auto _ : state) {
        sim->cycle();
        benchmark::DoNotOptimize(sim->numCycles());
    }
    state.SetItemsProcessed(state.iterations());
    sim.reset();
    std::filesystem::remove_all(dir);
}
BENCHMARK(BM_NativeMeshCycle)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------- set-up stages
//
// Each row times one stage of bringing up the 16x16 RTL mesh of
// perfbench's mesh256_par2 workload (30% uniform traffic, bytecode at
// 2 threads); the stages before it run, and everything is torn down,
// with the timer paused.

std::unique_ptr<net::MeshTrafficTop>
setupMesh()
{
    return std::make_unique<net::MeshTrafficTop>(
        "top", net::NetLevel::RTL, 256, 4, 0.30, 1);
}

void
BM_SetupConstruct(benchmark::State &state)
{
    for (auto _ : state) {
        auto mesh = setupMesh();
        benchmark::DoNotOptimize(mesh.get());
        state.PauseTiming();
        mesh.reset();
        state.ResumeTiming();
    }
}
BENCHMARK(BM_SetupConstruct)->Unit(benchmark::kMillisecond);

void
BM_SetupElaborate(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        auto mesh = setupMesh();
        state.ResumeTiming();
        auto elab = mesh->elaborate();
        benchmark::DoNotOptimize(elab.get());
        state.PauseTiming();
        elab.reset();
        mesh.reset();
        state.ResumeTiming();
    }
}
BENCHMARK(BM_SetupElaborate)->Unit(benchmark::kMillisecond);

void
BM_SetupPartition(benchmark::State &state)
{
    auto mesh = setupMesh();
    auto elab = mesh->elaborate();
    for (auto _ : state)
        benchmark::DoNotOptimize(partitionDesign(*elab, 2));
}
BENCHMARK(BM_SetupPartition)->Unit(benchmark::kMillisecond);

/**
 * The bytecode module of the specialized blocks alone, on an
 * elaboration and arena built once; makeSimulator builds it inside.
 */
void
BM_SetupBcModule(benchmark::State &state)
{
    auto mesh = setupMesh();
    auto elab = mesh->elaborate();
    ArenaStore store(*elab);
    std::vector<int> blocks;
    for (size_t b = 0; b < elab->blocks.size(); ++b) {
        if (bcSpecializable(elab->blocks[b]))
            blocks.push_back(static_cast<int>(b));
    }
    for (auto _ : state) {
        BcModule mod(*elab, store, blocks);
        benchmark::DoNotOptimize(mod.numPrograms());
    }
}
BENCHMARK(BM_SetupBcModule)->Unit(benchmark::kMillisecond);

void
BM_SetupMakeSimulator(benchmark::State &state)
{
    SimConfig cfg = SimConfig::fromString("bytecode");
    cfg.threads = 2;
    for (auto _ : state) {
        state.PauseTiming();
        auto mesh = setupMesh();
        auto elab = mesh->elaborate();
        state.ResumeTiming();
        auto sim = makeSimulator(elab, cfg);
        benchmark::DoNotOptimize(sim.get());
        state.PauseTiming();
        sim.reset();
        elab.reset();
        mesh.reset();
        state.ResumeTiming();
    }
}
BENCHMARK(BM_SetupMakeSimulator)->Unit(benchmark::kMillisecond);

/** The results read: the state digest of the same simulator after
 *  100 cycles. */
void
BM_StateDigest(benchmark::State &state)
{
    SimConfig cfg = SimConfig::fromString("bytecode");
    cfg.threads = 2;
    auto mesh = setupMesh();
    auto sim = makeSimulator(mesh->elaborate(), cfg);
    sim->reset();
    sim->cycle(100);
    for (auto _ : state)
        benchmark::DoNotOptimize(stateDigest(*sim));
}
BENCHMARK(BM_StateDigest)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
