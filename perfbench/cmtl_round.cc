/**
 * @file
 * One measured round of one benchmark workload (see run.py).
 *
 * Each invocation is a fresh process doing exactly what a CMTL user
 * does: construct the model, elaborate it, build the simulator, run the
 * workload's N cycles and read the results.
 * Everything is timed from outside the library, by bracketing calls to
 * its public functions with steady_clock, and printed as one JSON line.
 *
 *   perfbench_cmtl round --workload W --seed S --cache DIR
 *                  [--cycles N] [--backend B]
 *                  [--threads T] [--tiered 0|1] [--trace FILE]
 *                  [--setup-only 1]
 *   perfbench_cmtl refcpp --nodes K --seed S --cycles N
 *   perfbench_cmtl provenance --cache DIR
 *
 * --trace attaches SimScope after set-up, records spans (name, start,
 * end, parent, run id) in memory around every layer call and writes
 * them, with the per-layer metrics, as Chrome trace-event JSON when the
 * round ends.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/jit_cpp.h"
#include "core/partition.h"
#include "core/psim.h"
#include "core/scope.h"
#include "core/sim.h"
#include "core/snap.h"
#include "net/traffic.h"
#include "refcpp/refnet.h"

namespace {

using namespace cmtl;
using Clock = std::chrono::steady_clock;

constexpr int kEntries = 4;
constexpr double kInjection = 0.30; //!< near saturation (paper Fig 14)
constexpr uint64_t kChunk = 64;     //!< cycles between tier polls

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Flat JSON object writer: one line, keys in insertion order. */
class JsonLine
{
  public:
    JsonLine &
    num(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }
    JsonLine &
    num(const std::string &key, uint64_t v)
    {
        return raw(key, std::to_string(v));
    }
    JsonLine &
    num(const std::string &key, int64_t v)
    {
        return raw(key, std::to_string(v));
    }
    JsonLine &
    str(const std::string &key, const std::string &v)
    {
        return raw(key, quote(v));
    }
    JsonLine &
    boolean(const std::string &key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    JsonLine &
    raw(const std::string &key, const std::string &json)
    {
        os_ << (first_ ? "{" : ",") << quote(key) << ":" << json;
        first_ = false;
        return *this;
    }
    std::string
    done() const
    {
        return first_ ? "{}" : os_.str() + "}";
    }

    static std::string
    quote(const std::string &s)
    {
        std::string out = "\"";
        for (char c : s) {
            if (c == '"' || c == '\\') {
                out += '\\';
                out += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
        return out + "\"";
    }

  private:
    std::ostringstream os_;
    bool first_ = true;
};

/**
 * In-memory span recorder. Disabled, it records nothing; enabled, it
 * keeps every span until writeChromeTrace() at the end of the round.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled, int run_id)
        : enabled_(enabled), run_id_(run_id), t0_(Clock::now())
    {
    }

    /** Open a span under the innermost open one; returns its id. */
    int
    begin(const std::string &name)
    {
        if (!enabled_)
            return -1;
        int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({name, now(), -1.0, parent});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void
    end(int id)
    {
        if (!enabled_ || id < 0)
            return;
        spans_[id].end_us = now();
        open_.pop_back();
    }

    /** A zero-length marker (the tier swap). */
    void
    instant(const std::string &name)
    {
        if (!enabled_)
            return;
        double t = now();
        spans_.push_back({name, t, t, open_.empty() ? -1 : open_.back()});
    }

    /** Chrome trace-event JSON (chrome://tracing, Perfetto). */
    void
    writeChromeTrace(const std::string &path,
                     const std::string &metrics_json) const
    {
        std::ofstream out(path);
        if (!out)
            throw std::runtime_error("cannot write trace " + path);
        out << "{\"traceEvents\":[";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            JsonLine ev;
            ev.str("name", s.name)
                .str("cat", s.name.substr(0, s.name.find('.')))
                .str("ph", s.end_us == s.start_us ? "i" : "X")
                .num("ts", s.start_us)
                .num("dur", s.end_us - s.start_us)
                .num("pid", static_cast<int64_t>(run_id_))
                .num("tid", int64_t{0});
            JsonLine args;
            args.num("id", static_cast<int64_t>(i))
                .num("parent", static_cast<int64_t>(s.parent))
                .num("run_id", static_cast<int64_t>(run_id_));
            ev.raw("args", args.done());
            out << (i ? ",\n" : "\n") << ev.done();
        }
        out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":"
            << metrics_json << "}\n";
    }

  private:
    struct Span
    {
        std::string name;
        double start_us;
        double end_us;
        int parent;
    };

    double
    now() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         t0_)
            .count();
    }

    bool enabled_;
    int run_id_;
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span. */
class Span
{
  public:
    Span(Tracer &tr, const std::string &name) : tr_(tr), id_(tr.begin(name))
    {
    }
    ~Span() { tr_.end(id_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tr_;
    int id_;
};

struct Args
{
    std::string mode;
    std::map<std::string, std::string> kv;

    std::string
    get(const std::string &key, const std::string &dflt = "") const
    {
        auto it = kv.find(key);
        return it == kv.end() ? dflt : it->second;
    }
    int64_t
    num(const std::string &key, int64_t dflt) const
    {
        auto it = kv.find(key);
        return it == kv.end() ? dflt : std::stoll(it->second);
    }
};

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        throw std::invalid_argument("usage: perfbench_cmtl <mode> ...");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string k = argv[i];
        if (k.rfind("--", 0) != 0 || i + 1 >= argc)
            throw std::invalid_argument("bad argument " + k);
        a.kv[k.substr(2)] = argv[++i];
    }
    return a;
}

/** The fixed part of each workload: RTL mesh size, backend, threads. */
struct WorkloadSpec
{
    int nodes;
    std::string backend;
    int threads;
};

WorkloadSpec
specFor(const std::string &name)
{
    if (name == "mesh64_cold" || name == "mesh64_warm")
        return {64, "cpp-design", 1};
    if (name == "mesh256_par2")
        return {256, "bytecode", 2};
    throw std::invalid_argument("unknown workload " + name);
}

uint64_t
peakRssKb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<uint64_t>(ru.ru_maxrss);
}

std::string
hex64(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

int
doRound(const Args &args)
{
    const std::string workload = args.get("workload");
    WorkloadSpec spec = specFor(workload);
    const uint64_t seed = static_cast<uint64_t>(args.num("seed", 1));
    const std::string trace_path = args.get("trace");
    const bool traced = !trace_path.empty();

    SimConfig cfg = SimConfig::fromString(args.get("backend", spec.backend));
    cfg.threads = static_cast<int>(args.num("threads", spec.threads));
    cfg.jit_tiered = args.num("tiered", 1) != 0;
    cfg.jit_cache_dir = args.get("cache");
    if (cfg.jit_cache_dir.empty())
        throw std::invalid_argument("--cache is required");

    Tracer tr(traced, static_cast<int>(seed));
    JsonLine out;
    out.str("workload", workload).str("backend", cfg.toString());
    out.num("threads", static_cast<int64_t>(cfg.threads));

    // --- set-up: model construction -> simulator ready --------------
    int round_span = tr.begin("round");
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<net::MeshTrafficTop> mesh;
    {
        Span s(tr, "model.construct");
        mesh = std::make_unique<net::MeshTrafficTop>(
            "top", net::NetLevel::RTL, spec.nodes, kEntries, kInjection, seed);
    }
    std::shared_ptr<Elaboration> elab;
    double elaborate_s = 0.0;
    {
        Span s(tr, "model.elaborate");
        Clock::time_point t = Clock::now();
        elab = mesh->elaborate();
        elaborate_s = secondsSince(t);
    }
    // Traced only: the partitioner on its own, at the island count the
    // workload runs with (ParSim repeats this inside makeSimulator).
    PartitionPlan plan;
    double partition_s = 0.0;
    if (traced) {
        Span s(tr, "partition.partitionDesign");
        Clock::time_point t = Clock::now();
        plan = partitionDesign(*elab, cfg.threads);
        partition_s = secondsSince(t);
    }
    std::unique_ptr<Simulator> sim;
    {
        Span s(tr, "sim.makeSimulator");
        sim = makeSimulator(elab, cfg);
    }
    const double setup_s = secondsSince(t0);
    const Clock::time_point t_ready = Clock::now();
    if (args.num("setup-only", 0)) {
        // Skip destruction: a tiered simulator would wait out its
        // background compile. The caller stops the process group.
        out.num("setup_s", setup_s).num("elaborate_s", elaborate_s);
        std::printf("%s\n", out.done().c_str());
        std::fflush(stdout);
        std::_Exit(0);
    }

    std::unique_ptr<SimScope> scope;
    if (traced) {
        SimScope::Options opt;
        opt.timing = SimScope::Timing::Sampled;
        scope = std::make_unique<SimScope>(*sim, opt);
    }

    // --- run ---------------------------------------------------------
    uint64_t tier0_cycles = 0;
    double tier0_s = 0.0;
    double time_to_native_s = -1.0;
    // Tier 0 is the bytecode engine: the whole run on the bytecode
    // backend, the warm-up before the swap on tiered cpp-design.
    const bool bytecode = cfg.backend == Backend::Bytecode;
    const uint64_t n = static_cast<uint64_t>(args.num("cycles", 1000));
    for (uint64_t done = 0; done < n; done += kChunk) {
        const uint64_t chunk = std::min(kChunk, n - done);
        const bool pending = sim->tierPending();
        Span s(tr, pending || bytecode ? "sim.cycle.tier0" : "sim.cycle");
        Clock::time_point t = Clock::now();
        sim->cycle(chunk);
        if (pending || bytecode) {
            tier0_cycles += chunk;
            tier0_s += secondsSince(t);
        }
        if (pending && !sim->tierPending()) {
            time_to_native_s = secondsSince(t_ready);
            tr.instant("jit_cpp.tier_swap");
        }
    }
    const uint64_t cycles = sim->numCycles();

    // --- read and check results --------------------------------------
    {
        Span s(tr, "results.read");
        out.str("digest", hex64(stateDigest(*sim)));
        const net::NetStats &st = mesh->stats();
        out.num("generated", st.generated)
            .num("injected", st.injected)
            .num("received", st.received)
            .num("latency_sum", st.latency_sum)
            .num("in_flight", mesh->inFlight())
            .num("queued", mesh->queuedAtSources());
    }
    const double time_to_result_s = secondsSince(t0);
    tr.end(round_span);

    const SpecStats &ss = sim->specStats();
    out.num("cycles", cycles)
        .num("setup_s", setup_s)
        .num("time_to_result_s", time_to_result_s)
        .num("elaborate_s", elaborate_s)
        .num("peak_rss_kb", peakRssKb())
        .num("tier_swap_cycle", ss.tierSwapCycle)
        .boolean("cache_hit", ss.cacheHit);

    if (traced) {
        scope->detach();
        const double kcycles = static_cast<double>(cycles) / 1e3;
        SimScope::PhaseBreakdown pb = scope->phaseBreakdown();
        const ScopeProbe &probe = scope->probe();
        double lambda_s = 0.0;
        for (size_t b = 0; b < elab->blocks.size(); ++b) {
            BlockKind k = elab->blocks[b].kind;
            if (k == BlockKind::TickFl || k == BlockKind::TickCl ||
                k == BlockKind::CombLambda)
                lambda_s += probe.block_seconds[b];
        }
        double island_max = 0.0;
        for (size_t i = 0; i < probe.island_settle_seconds.size(); ++i) {
            island_max = std::max(island_max,
                                  probe.island_settle_seconds[i] +
                                      probe.island_tick_seconds[i] +
                                      probe.island_flop_seconds[i]);
        }
        // Island vectors and barrier time are empty on the sequential
        // kernel; its gatedSteps() counts comb steps, not supersteps.
        const bool parsim = cfg.threads > 1;
        const bool cpp = cfg.backend == Backend::CppDesign ||
                         cfg.backend == Backend::CppBlock;
        JsonLine m;
        m.num("model.elaborate_s", elaborate_s)
            .num("partition.partition_s", partition_s)
            .num("partition.cut_tokens",
                 static_cast<int64_t>(plan.cutTokens))
            .num("partition.imbalance", plan.imbalance())
            .num("ir_bytecode.tier0_cycles_per_s",
                 tier0_s > 0 ? static_cast<double>(tier0_cycles) / tier0_s
                             : 0.0)
            .num("ir_cpp.codegen_s", cpp ? ss.codegenSeconds : 0.0)
            .num("ir_cpp.tu_bytes", static_cast<uint64_t>(ss.emittedTuBytes))
            .num("jit_cpp.compile_s", ss.compileSeconds)
            .num("jit_cpp.wrap_s", ss.wrapSeconds)
            .num("jit_cpp.cache_hit", static_cast<int64_t>(ss.cacheHit))
            .num("jit_cpp.time_to_native_s",
                 time_to_native_s < 0 ? 0.0 : time_to_native_s)
            .num("jit_cpp.swap_cycle", ss.tierSwapCycle)
            .num("sim.settle_s_per_kcycle", pb.settle_seconds / kcycles)
            .num("sim.tick_s_per_kcycle", pb.tick_seconds / kcycles)
            .num("sim.flop_s_per_kcycle", pb.flop_seconds / kcycles)
            .num("sim.lambda_s_per_kcycle", lambda_s / kcycles)
            .num("psim.barrier_s_per_kcycle", pb.barrier_seconds / kcycles)
            .num("psim.island_compute_s_per_kcycle", island_max / kcycles)
            .num("psim.boundary_bytes_per_cycle",
                 static_cast<double>(pb.boundary_bytes) /
                     static_cast<double>(cycles))
            .num("psim.gated_supersteps", parsim ? sim->gatedSteps() : 0);
        std::string metrics = m.done();
        out.raw("layers", metrics);
        tr.writeChromeTrace(trace_path, metrics);
    }
    std::printf("%s\n", out.done().c_str());
    std::fflush(stdout);
    return 0;
}

/** The hand-written C++ mesh (no framework) at the same size and seed. */
int
doRefcpp(const Args &args)
{
    const int nodes = static_cast<int>(args.num("nodes", 64));
    const uint64_t n = static_cast<uint64_t>(args.num("cycles", 20000));
    refcpp::RefMeshCL ref(nodes, kEntries, kInjection,
                          static_cast<uint64_t>(args.num("seed", 1)));
    ref.cycle(256);
    Clock::time_point t = Clock::now();
    ref.cycle(n);
    const double s = secondsSince(t);
    JsonLine out;
    out.num("nodes", static_cast<int64_t>(nodes))
        .num("cycles", n)
        .num("seconds", s)
        .num("cycles_per_s", static_cast<double>(n) / s)
        .num("received", ref.stats().received);
    std::printf("%s\n", out.done().c_str());
    return 0;
}

/** Host, compiler and flags every result is recorded with. */
int
doProvenance(const Args &args)
{
    const std::string dir = args.get("cache");
    if (dir.empty())
        throw std::invalid_argument("--cache is required");
    JsonLine out;
    out.num("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
        .num("hardware_concurrency",
             static_cast<int64_t>(std::thread::hardware_concurrency()))
        .str("jit_compiler_version", CppJit::compilerVersion())
        .str("jit_block_flags", CppJit(dir, true, "").flagString())
        .str("jit_design_flags",
             CppJit(dir, true, CppJit::kWholeDesignFlags).flagString())
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("build_cxx_flags", PERFBENCH_CXX_FLAGS)
        .str("build_compiler", PERFBENCH_CXX_COMPILER);
    std::printf("%s\n", out.done().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args = parseArgs(argc, argv);
        if (args.mode == "round")
            return doRound(args);
        if (args.mode == "refcpp")
            return doRefcpp(args);
        if (args.mode == "provenance")
            return doProvenance(args);
        throw std::invalid_argument("unknown mode " + args.mode);
    } catch (const std::exception &e) {
        JsonLine out;
        out.str("error", e.what());
        std::printf("%s\n", out.done().c_str());
        return 2;
    }
}
