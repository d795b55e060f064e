/**
 * @file
 * SimulationTool: the CMTL simulator generator.
 *
 * Consumes an Elaboration and builds a simulator for it. SimConfig::
 * backend picks the execution strategy; the canonical names cover the
 * performance axes studied in the PyMTL paper:
 *
 *   "interp"      "CPython"  boxed dictionary storage, dynamic
 *                            event-driven scheduling, tree-walk IR
 *                            evaluation over boxed values
 *   "optinterp"   "PyPy"     dense arena storage, slot-bound
 *                            accessors, statically levelized
 *                            scheduling, by-value tree-walk IR
 *   "bytecode"    "SimJIT"   IR blocks compiled to a flat
 *                            register-machine bytecode over the arena
 *                            at simulator construction
 *   "cpp-block"   "SimJIT"   IR blocks translated to C++, compiled
 *                            with the system compiler, dlopen'ed and
 *                            called natively, one kernel call per block
 *   "cpp-design"             the same kernels, one call per batch of
 *                            same-type blocks, with tiered warm-up
 *                            (see Backend)
 *
 * "interp+bytecode" and "interp+cpp-block" reproduce the paper's
 * "SimJIT under CPython" configuration: specialized blocks run on the
 * arena, but every entry/exit crosses a boxed<->arena marshal boundary
 * (the CFFI wrapper overhead); unspecialized lambda blocks stay fully
 * boxed. On the arena-hosted backends the arena is shared and boundary
 * crossings vanish (the "SimJIT+PyPy" configuration).
 *
 * Cycle semantics (two-phase): cycle() settles combinational logic,
 * runs all tick blocks (which read current values and write next
 * values), flops next->current for the flop set, then settles again.
 * The flop set is fixed when the kernel is constructed: the nets IR
 * tick blocks write and the nets tick lambdas declare. Blocking writes
 * from test benches are visible after the next settle/cycle/eval call.
 *
 * The two kernels (SimulationTool below, ParSimulationTool in psim.h)
 * differ only in storage and in how they execute a schedule. Simulator
 * owns the rest: the cycle loop and its phase timing, the signal
 * lifecycle, the specializer and the one rule that turns a block
 * sequence into batch steps (batchSteps).
 */

#ifndef CMTL_CORE_SIM_H
#define CMTL_CORE_SIM_H

#include <atomic>
#include <exception>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ir_bytecode.h"
#include "ir_cpp.h"
#include "ir_eval.h"
#include "jit_cpp.h"
#include "model.h"
#include "store.h"
#include "timing.h"

namespace cmtl {

/** Combinational scheduling policy. */
enum class SchedMode
{
    Auto,   //!< event-driven on boxed hosts, static on the arena
    Event,  //!< dynamic event-driven with sensitivity lists
    Static, //!< statically levelized (rejects combinational cycles)
};

/**
 * The one backend selector. Canonical strings (SimConfig::toString /
 * fromString round-trip through backendNames()):
 *
 *   "interp"      boxed storage, event-driven, tree-walk  ("CPython")
 *   "optinterp"   arena storage, static levelized schedule  ("PyPy")
 *   "bytecode"    arena + per-block register bytecode     ("SimJIT")
 *   "cpp-block"   compiled C++ per block type, one C-ABI call per
 *                 block per phase (the paper's per-component SimJIT)
 *   "cpp-design"  the same per-type kernels, one C-ABI call per
 *                 bytecode batch, with tiered warm-up: the simulator
 *                 starts on the bytecode tier and switches each batch
 *                 to its kernel at a cycle boundary when the background
 *                 compile finishes
 *   "interp+bytecode", "interp+cpp-block"
 *                 the boxed-host hybrids: specialized blocks run on
 *                 the arena, every entry/exit crosses the boxed<->arena
 *                 marshal boundary (the CFFI overhead configuration of
 *                 the paper)
 */
enum class Backend
{
    Interp,         //!< "interp"
    OptInterp,      //!< "optinterp"
    Bytecode,       //!< "bytecode"
    CppBlock,       //!< "cpp-block"
    CppDesign,      //!< "cpp-design"
    InterpBytecode, //!< "interp+bytecode"
    InterpCppBlock, //!< "interp+cpp-block"
};

/** One row of the backend name table. */
struct BackendName
{
    Backend backend;
    const char *name;
};

/** Every backend with its canonical name, in enumerator order: the one
 *  table SimConfig::toString and fromString read. */
std::span<const BackendName> backendNames();

/** Signals live in boxed storage: interp and the interp+* hybrids. */
constexpr bool
boxedHost(Backend b)
{
    return b == Backend::Interp || b == Backend::InterpBytecode ||
           b == Backend::InterpCppBlock;
}

/** IR blocks are specialized: every backend but interp and optinterp. */
constexpr bool
specializes(Backend b)
{
    return b != Backend::Interp && b != Backend::OptInterp;
}

/** Every specialized block is a batch of its own, so it crosses the
 *  C ABI once per run: cpp-block and interp+cpp-block. */
constexpr bool
nativeBlocks(Backend b)
{
    return b == Backend::CppBlock || b == Backend::InterpCppBlock;
}

/** Simulator configuration. */
struct SimConfig
{
    SchedMode sched = SchedMode::Auto;
    std::string jit_cache_dir; //!< empty = CppJit::defaultCacheDir()
    bool jit_cache = true;     //!< reuse compiled libraries on disk
    /**
     * Host threads for the ParSim bulk-synchronous kernel (psim.h).
     * 1 = the sequential kernel below; makeSimulator() dispatches.
     */
    int threads = 1;
    Backend backend = Backend::OptInterp; //!< how the design executes
    /**
     * cpp-design only: run on the bytecode tier while the compiler
     * runs in a background thread, switching to the kernels at a cycle
     * boundary (false = block in the constructor until they are built).
     */
    bool jit_tiered = true;

    /** Canonical backend string ("cpp-design", "interp+bytecode", ...). */
    std::string toString() const;

    /**
     * Parse a canonical backend string. Other fields take their
     * defaults. Throws std::invalid_argument on an unknown name.
     */
    static SimConfig fromString(const std::string &name);
};

/** Print the canonical backend name (also gtest's parameter names). */
std::ostream &operator<<(std::ostream &os, Backend backend);
std::ostream &operator<<(std::ostream &os, const SimConfig &cfg);

/**
 * Instrumentation sink filled by the execution kernels while a
 * SimScope (scope.h) is attached. The kernels test one pointer per
 * phase / per step when detached, so the disabled-path cost is a
 * handful of predictable branches per cycle.
 *
 * Threading: per-block entries are written only by the thread that
 * executes the block (each block belongs to exactly one island), and
 * per-island entries only by that island's worker; the coordinator
 * reads them between phases, ordered by the phase barriers.
 */
struct ScopeProbe
{
    /** Exact = time every block execution; sampled = time one out of
     *  sample_period executions and scale. */
    bool exact = true;
    uint32_t sample_period = 64;

    // Per-block self time, indexed by ElabBlock id. A batch, run as
    // bytecode or as one kernel call, splits its time evenly over its
    // lanes.
    std::vector<double> block_seconds;
    std::vector<uint64_t> block_calls;
    std::vector<uint32_t> until_sample;

    // Phase totals, timed around each kernel phase by Simulator::cycle
    // (on ParSim, the coordinator's wall time; SimScope reports the
    // per-island breakdown there instead).
    double settle_seconds = 0.0;
    double tick_seconds = 0.0;
    double flop_seconds = 0.0;

    // ParSim per-island phase breakdown (empty on the sequential
    // kernel). Barrier seconds cover superstep and phase-done waits;
    // boundary bytes count words pushed into other replicas.
    std::vector<double> island_settle_seconds;
    std::vector<double> island_tick_seconds;
    std::vector<double> island_flop_seconds;
    std::vector<double> island_barrier_seconds;
    std::vector<uint64_t> island_boundary_bytes;

    /** Count a block call; true when this execution should be timed. */
    bool
    shouldTime(int block)
    {
        ++block_calls[block];
        if (exact)
            return true;
        if (--until_sample[block] == 0) {
            until_sample[block] = sample_period;
            return true;
        }
        return false;
    }

    /** Record a timed execution (scaled under sampled timing). */
    void
    addBlockTime(int block, double seconds)
    {
        block_seconds[block] += exact ? seconds : seconds * sample_period;
    }

    /**
     * Count a call of every lane of a bytecode batch; true when this
     * run should be timed. The lanes share one stopwatch, so the first
     * lane's sample counter decides for all of them.
     */
    bool
    shouldTimeBatch(const std::vector<int> &lanes)
    {
        for (size_t i = 1; i < lanes.size(); ++i)
            ++block_calls[lanes[i]];
        return shouldTime(lanes.front());
    }

    /** Credit one timed batch run evenly to its lanes. */
    void
    addBatchTime(const std::vector<int> &lanes, double seconds)
    {
        const double share = seconds / static_cast<double>(lanes.size());
        for (int block : lanes)
            addBlockTime(block, share);
    }
};

/** Construction-time specializer overheads (paper Figure 16). */
struct SpecStats
{
    double codegenSeconds = 0.0;   //!< IR -> bytecode or C++ source
    double compileSeconds = 0.0;   //!< external compiler
    double wrapSeconds = 0.0;      //!< dlopen + symbol binding
    double simCreateSeconds = 0.0; //!< kernel datastructure setup
    bool cacheHit = false;
    int numBlocks = 0;
    int numSpecialized = 0;
    /** cpp-design: cycle at which the native tier was swapped in
     *  (0 = before the first cycle, -1 = still on the warm-up tier). */
    int64_t tierSwapCycle = -1;
    bool tiered = false; //!< cpp-design with background compilation
    /** Bytes of the emitted C++ translation unit (one kernel per
     *  block type, the same on cpp-block and cpp-design); 0 for
     *  interpreter/bytecode backends. */
    size_t emittedTuBytes = 0;
    /** Distinct block kernels: bytecode programs, or the kernels of
     *  the emitted C++; instances of one block type share a kernel. */
    int kernelTypes = 0;
};

/**
 * Abstract simulator interface (the tool-facing contract).
 *
 * Both execution kernels — the sequential SimulationTool below and the
 * parallel bulk-synchronous ParSimulationTool (psim.h) — implement
 * this interface, so waveform dumpers, activity counters and test
 * benches drive either one interchangeably. A simulator doubles as the
 * SignalAccess backend: test benches and lambda blocks transparently
 * read and write through the active storage strategy. One simulator
 * may be live per elaboration at a time: the constructor attaches
 * every signal and the destructor detaches them, also when a kernel's
 * constructor throws.
 */
class Simulator : public SignalAccess
{
  public:
    Simulator(std::shared_ptr<Elaboration> elab, SimConfig cfg);
    /** Detaches the signals and joins a background compile that is
     *  still running. */
    ~Simulator() override;

    /** Advance one clock cycle. */
    void cycle();
    /** Advance @p n clock cycles. */
    void cycle(uint64_t n);
    /** Propagate combinational logic only (no clock edge). */
    void eval();
    /** Assert the implicit reset for @p ncycles cycles. */
    void reset(int ncycles = 1);

    uint64_t
    numCycles() const
    {
        return ncycles_.load(std::memory_order_relaxed);
    }
    const SpecStats &specStats() const { return spec_stats_; }

    /**
     * Always 0: every static schedule runs every step of every cycle.
     * Kept only because perfbench/cmtl_round.cc reads it for its
     * psim.gated_supersteps metric.
     */
    uint64_t gatedSteps() const { return 0; }

    // --- cooperative pause (SimServer scheduler, debugger) ---------

    /**
     * Ask the running kernel to pause at the next cycle boundary.
     * Thread-safe: any thread may request a pause while another runs
     * runUntil(). The flag is consumed by runUntil(), which returns
     * false with the simulator stopped between cycles — ParSim workers
     * parked, all state quiescent — so snapSave() may capture it and a
     * later restore resumes bit-identically.
     */
    void
    requestPause()
    {
        pause_requested_.store(true, std::memory_order_release);
    }

    /** True while a pause request is pending (not yet consumed). */
    bool
    pauseRequested() const
    {
        return pause_requested_.load(std::memory_order_acquire);
    }

    /** Drop a pending pause request without honoring it. */
    void
    clearPauseRequest()
    {
        pause_requested_.store(false, std::memory_order_relaxed);
    }

    /**
     * Run cycles until numCycles() reaches @p target_cycle or a pause
     * is requested. Returns true when the target was reached, false
     * when a pause request stopped the run early (the request is
     * consumed; call runUntil again to resume). The pause flag is
     * checked once per cycle boundary on both kernels, so the
     * disabled-path cost is one atomic load per cycle.
     */
    bool runUntil(uint64_t target_cycle);

    /**
     * True while a tiered cpp-design simulator is still executing on
     * the bytecode warm-up tier (the background compile has neither
     * been adopted nor failed). Benches drain this before measuring
     * steady state.
     */
    bool
    tierPending() const
    {
        return spec_stats_.tiered && !native_ && !tier_failed_;
    }
    const Elaboration &elaboration() const { return *elab_; }
    const SimConfig &config() const { return cfg_; }

    /**
     * Every batch the kernel runs, on the bytecode tier or as one
     * native kernel call (empty unless it specializes). Each batch is
     * an antichain of one block type.
     */
    const std::vector<BcBatch> &bytecodeBatches() const
    {
        return bc_batches_;
    }

    /** Concatenated lineTrace() of every model, pre-order. */
    std::string lineTrace() const;

    /** Hook invoked after every cycle (VCD dumping etc.). */
    void
    onCycleEnd(std::function<void(uint64_t)> hook)
    {
        cycle_hooks_.push_back(std::move(hook));
    }

    /**
     * Attach a SimScope instrumentation sink (nullptr detaches). The
     * probe's vectors must already be sized for this elaboration; at
     * most one probe is active at a time (last attach wins). Owned by
     * the SimScope tool — call only between cycles.
     */
    void attachScope(ScopeProbe *probe) { probe_ = probe; }
    ScopeProbe *scopeProbe() const { return probe_; }

    /**
     * Arena observability: words per phase and the number of
     * whole-word copy ranges in the kernel's flop plan. Zero on
     * storage without an arena (pure interp), but for the slot-bound
     * signal count.
     */
    virtual LayoutStats layoutStats() const { return LayoutStats{}; }

    /** Direct net-level value access for tools (VCD, testing). */
    virtual Bits readNet(int net) const = 0;

    /** Host access to a memory array element. */
    virtual Bits readArray(const MemArray &array, uint64_t index) const = 0;
    virtual void writeArray(MemArray &array, uint64_t index,
                            const Bits &value) = 0;

    // --- SimSnap state-capture hooks (snap.h) ----------------------

    /** Next-phase (flop shadow) value of a net. */
    virtual Bits readNetNext(int net) const = 0;
    /** Restore a net's current value (blocking-write semantics). */
    virtual void pokeNet(int net, const Bits &value) = 0;
    /**
     * Restore a net's next-phase value. Unlike writeNext() it needs
     * no declaring tick lambda; the value reaches the current phase
     * only if the net is in the flop set (isFlop()).
     */
    virtual void pokeNetNext(int net, const Bits &value) = 0;
    /**
     * True for a net of the kernel's flop set, fixed at construction:
     * the nets IR tick blocks write (Net::floppedStatic) and the nets
     * tick lambdas declare (Model::tickFl/tickCl).
     */
    bool
    isFlop(int net) const
    {
        return elab_->nets[net].floppedStatic || lambda_writer_[net];
    }
    /** Overwrite the cycle counter (snapshot restore only). */
    void
    setRestoredCycleCount(uint64_t n)
    {
        ncycles_.store(n, std::memory_order_relaxed);
    }

  protected:
    /** One scheduled unit of a kernel: a lone block, or a batch. */
    struct Step
    {
        int block = -1; //!< the block, or the batch's first lane
        int batch = -1; //!< bc_batches_ index; -1 for a lone block
    };

    // The kernel's phases; cycle() and eval() run them.
    virtual void settle() = 0;
    virtual void tick() = 0;
    virtual void flop() = 0;

    bool designMode() const { return cfg_.backend == Backend::CppDesign; }

    /**
     * Specialize and schedule. Builds bc_ over the blocks @p store can
     * run specialized, in ElabBlock order, so both kernels build one
     * module, and so one TU, for a design; runs @p schedule, which
     * turns the kernel's block sequences into steps with batchSteps;
     * allocates @p nframes bytecode frames; and builds the native tier
     * where the backend has one. Without specialization it only runs
     * @p schedule (and @p store may be null).
     */
    void specialize(const ArenaStore *store, int nframes,
                    const std::function<void()> &schedule);
    /** Block @p b runs specialized (bytecode or a native kernel). */
    bool
    specializedBlock(int b) const
    {
        return !type_.empty() && type_[b] >= 0;
    }
    /**
     * Steps that run the blocks of @p seq, the one schedule rule of
     * both kernels: an unspecialized block is a step of its own, and
     * specialized blocks become batches of one type, one block each on
     * cpp-block (one C-ABI call per block) and hazardBatches elsewhere.
     * Appends the batches to bc_batches_.
     */
    std::vector<Step> batchSteps(const std::vector<int> &seq);
    /** The blocks @p step runs. */
    std::span<const int>
    lanes(const Step &step) const
    {
        if (step.batch >= 0)
            return bc_batches_[step.batch].blocks;
        return {&step.block, 1};
    }
    /** Bytecode frame @p i (one per thread that runs batches). */
    uint64_t *frame(int i) { return bc_frames_[i].data(); }

    /** At a cycle boundary: adopt a finished background compile, or
     *  rethrow its failure once (the warm-up tier stays active). */
    void maybeSwapTier();
    /**
     * Run bc_batches_[@p i] against @p words: with bcRunBatch on the
     * bytecode tier, or as one call of its kernel once a library is
     * adopted. With a probe attached, one stopwatch times the whole
     * batch and credits its lanes evenly.
     */
    void runBatch(size_t i, uint64_t *words, uint64_t *frame);
    /** Run @p run as block @p block, timed when the probe asks. */
    template <class F>
    void
    runTimed(int block, F &&run)
    {
        if (ScopeProbe *p = probe_; p && p->shouldTime(block)) {
            Stopwatch sw;
            run();
            p->addBlockTime(block, sw.elapsed());
            return;
        }
        run();
    }

    /** Run tick lambda @p block, recorded as the running lambda for
     *  checkDeclaredWrite(). */
    void runTickLambda(int block);
    /**
     * The virtual writeNext path's check: throws std::logic_error
     * unless a tick lambda runs and declares @p sig's net. Slot-bound
     * next-phase stores (the declared narrow nets) skip it.
     */
    void checkDeclaredWrite(const Signal &sig) const;
    /**
     * Bind @p sig's non-blocking writes, @p words_per_phase past its
     * bound word, if a tick lambda declares its net; only that lambda,
     * while it runs, takes the bound store (Signal::bindNextSlot).
     */
    void bindLambdaNext(Signal &sig, int words_per_phase) const;

    /** Record the constructor's @p seconds, less the specializer's,
     *  as SpecStats::simCreateSeconds. */
    void recordCreate(double seconds);
    /** Signals bound to an arena word of this simulator. */
    int slotBoundSignals() const;

    std::shared_ptr<Elaboration> elab_;
    SimConfig cfg_;
    // boxedHost() / specializes() / nativeBlocks() of cfg_.backend,
    // derived once so the per-cycle paths test a plain bool.
    const bool boxed_host_;
    const bool specializes_;
    const bool native_blocks_;
    SpecStats spec_stats_;
    /**
     * Atomic so progress monitors (SimServer job status) may read the
     * counter while another thread cycles the kernel; all accesses are
     * relaxed — the counter orders nothing.
     */
    std::atomic<uint64_t> ncycles_{0};
    std::atomic<bool> pause_requested_{false};
    std::vector<std::function<void(uint64_t)>> cycle_hooks_;
    ScopeProbe *probe_ = nullptr;
    /** An external write is pending: the next cycle settles first. */
    bool dirty_ = true;
    /**
     * Per net: the first tick lambda declaring it (the lambda flops),
     * or null.
     */
    std::vector<const ElabBlock *> lambda_writer_;

  private:
    /**
     * The one path from a kernel to CppJit: emit bc_'s kernels, build
     * each batch's row and constant tables, and compile the kernels
     * into cpp_lib_. A tiered cpp-design build compiles on a
     * background thread and maybeSwapTier() adopts the library later.
     */
    void buildNative();
    void adoptLibrary(CppJitLibrary lib);
    /** runBatch without the probe. */
    void
    execBatch(size_t i, uint64_t *words, uint64_t *frame)
    {
        if (native_) {
            const CppBatch &c = cpp_batches_[i];
            cpp_lib_.kernel(c.kernel)(words, c.rows.data(), c.consts.data(),
                                      c.n);
        } else {
            bcRunBatch(bc_batches_[i], words, frame);
        }
    }

    const ElabBlock *running_lambda_ = nullptr; //!< runTickLambda's
    CppJitLibrary cpp_lib_; //!< the adopted library, once native_
    BcModule bc_; //!< one program per block type
    std::vector<int> type_; //!< each block's program, or -1
    std::vector<BcBatch> bc_batches_; //!< the schedule's batches
    std::vector<CppBatch> cpp_batches_; //!< their kernel calls
    std::vector<std::vector<uint64_t>> bc_frames_;
    bool native_ = false; //!< batches run as kernel calls

    // The background compile touches only these and its own copy of
    // the source, so ~Simulator can join it after the kernel is gone.
    std::atomic<bool> jit_ready_{false};
    CppJitLibrary pending_lib_;
    std::exception_ptr jit_error_;
    std::thread jit_thread_;
    bool tier_failed_ = false;
};

/**
 * Batches of the blocks of @p base, for a kernel that runs a batch of
 * one block type at a time: a Kahn traversal of the DAG @p succ (with
 * in-degrees @p indeg) that takes *every* ready block of one type as
 * one batch and then releases the batch's successors. The members of
 * a batch are ready together, so none depends on another: each batch
 * is an antichain. @p type holds each block's program, or -1 for an
 * unspecialized block, which always forms a batch of its own. The
 * traversal keeps the type of its last batch while a block of it is
 * ready, then takes the type of the earliest ready specialized block;
 * it takes unspecialized blocks only when no specialized block is
 * ready, and then while any is. Members and ties follow @p base order.
 * Returns one batch per block, in @p base order, if the graph has a
 * cycle.
 */
std::vector<std::vector<int>>
typeBatches(const std::vector<int> &base,
            const std::vector<std::vector<int>> &succ,
            std::vector<int> indeg, const std::vector<int> &type);

/**
 * typeBatches over @p seq, constrained only by the hazards of running
 * its blocks in @p seq order: a block follows every earlier block that
 * touches one of its tokens when either of them writes it (RAW, WAR
 * and WAW). A block without IR declares no accesses, so it stays after
 * every earlier block and before every later one.
 */
std::vector<std::vector<int>> hazardBatches(const Elaboration &elab,
                                            const std::vector<int> &seq,
                                            const std::vector<int> &type);

/**
 * The sequential simulator generator (the paper's kernel). Its
 * schedule is the comb order and the tick order as steps (batchSteps);
 * under event-driven scheduling each comb step is a unit of the
 * worklist. Storage is the arena, the boxed store, or both on the
 * hybrid hosts, where a batch marshals its lanes' boundary tokens in
 * and out (the CFFI call boundary) and tokens that only specialized
 * blocks write stay in the arena.
 */
class SimulationTool : public Simulator
{
  public:
    explicit SimulationTool(std::shared_ptr<Elaboration> elab,
                            SimConfig cfg = SimConfig{});

    Bits readNet(int net) const override;
    Bits readArray(const MemArray &array, uint64_t index) const override;
    void writeArray(MemArray &array, uint64_t index,
                    const Bits &value) override;

    Bits readNetNext(int net) const override;
    void pokeNet(int net, const Bits &value) override;
    void pokeNetNext(int net, const Bits &value) override;

    LayoutStats layoutStats() const override;

    // --- SignalAccess ----------------------------------------------
    Bits read(const Signal &sig) const override;
    void write(Signal &sig, const Bits &value) override;
    void writeNext(Signal &sig, const Bits &value) override;

  private:
    bool useBoxed() const { return boxed_host_; }
    bool eventDriven() const { return event_driven_; }

    void settle() override;
    void tick() override;
    void flop() override;
    void assignOwnership();
    /** Run @p step; with @p wake, it wakes the readers of the nets
     *  whose value it changed. */
    void runStep(const Step &step, bool wake = false);
    /** A hybrid batch's boundary tokens, each once over its lanes. */
    struct BatchSync
    {
        std::vector<int> reads, writes;
        bool tick = false; //!< tick lanes write next-phase values
    };
    void buildSyncLists();
    void syncIn(const BatchSync &sync);
    void syncOut(const BatchSync &sync);
    void snapshotWrites(const Step &step);
    void wakeChangedWrites(const Step &step);
    bool isArrayToken(int token) const;
    void copyArrayToArena(int token);
    void copyArrayToBoxed(int token);
    /**
     * Hybrid (boxed exec + specialization) storage dispatch: tokens
     * whose every writer is specialized live permanently in the
     * arena — the state a SimJIT-compiled component owns internally —
     * and only boundary tokens are marshalled around a batch.
     */
    bool tokenInArena(int token) const
    {
        return !useBoxed() ||
               (token < static_cast<int>(token_in_arena_.size()) &&
                token_in_arena_[token]);
    }
    void enqueueReaders(int net);
    /** True when the flop phase copies whole-word ranges with no
     *  per-net change detection (not boxed or event-driven). */
    bool flopsByRange() const { return !useBoxed() && !eventDriven(); }

    std::unique_ptr<BoxedStore> boxed_;
    std::unique_ptr<ArenaStore> arena_;
    std::unique_ptr<BoxedEvaluator> boxed_eval_;
    std::unique_ptr<SlotEvaluator> slot_eval_;

    bool event_driven_ = false;
    std::vector<Step> comb_steps_; //!< static order (or event pool)
    std::vector<Step> tick_steps_;
    std::vector<int> comb_step_of_block_; //!< block idx -> comb step idx

    std::vector<int> flopped_nets_; //!< the flop set, by net id
    /** flopped_nets_ as arena copy ranges (flop() fast path). */
    std::vector<FlopRange> flop_plan_;
    std::vector<int> tick_array_tokens_; //!< arrays written at ticks
    std::vector<char> token_in_arena_;   //!< hybrid-mode ownership
    std::vector<BatchSync> batch_sync_; //!< hybrids: per batch
    /** A comb step's written nets before it ran (event-driven): a
     *  lone block's values, or a batch's arena words. */
    std::vector<Bits> write_snapshot_;
    std::vector<uint64_t> write_words_;
    /** True while a waking comb step runs (pokeNet does not wake). */
    bool in_comb_step_ = false;

    // Event-driven worklist: a min-heap of pending comb step indices.
    std::vector<int> worklist_;
    std::vector<char> in_worklist_;
};

} // namespace cmtl

#endif // CMTL_CORE_SIM_H
