#include "sim.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "timing.h"

namespace cmtl {

// -------------------------------------------------------------- SimConfig

namespace {

constexpr BackendName kBackendNames[] = {
    {Backend::Interp, "interp"},
    {Backend::OptInterp, "optinterp"},
    {Backend::Bytecode, "bytecode"},
    {Backend::CppBlock, "cpp-block"},
    {Backend::CppDesign, "cpp-design"},
    {Backend::InterpBytecode, "interp+bytecode"},
    {Backend::InterpCppBlock, "interp+cpp-block"},
};

constexpr bool
tableInEnumOrder()
{
    for (size_t i = 0; i < std::size(kBackendNames); ++i) {
        if (static_cast<size_t>(kBackendNames[i].backend) != i)
            return false;
    }
    return true;
}
static_assert(tableInEnumOrder(), "nameOf indexes kBackendNames");

const char *
nameOf(Backend backend)
{
    return kBackendNames[static_cast<size_t>(backend)].name;
}

} // namespace

std::span<const BackendName>
backendNames()
{
    return kBackendNames;
}

std::string
SimConfig::toString() const
{
    return nameOf(backend);
}

SimConfig
SimConfig::fromString(const std::string &name)
{
    for (const BackendName &row : kBackendNames) {
        if (name == row.name) {
            SimConfig cfg;
            cfg.backend = row.backend;
            return cfg;
        }
    }
    std::string expected;
    for (const BackendName &row : kBackendNames) {
        if (!expected.empty())
            expected += &row == std::end(kBackendNames) - 1 ? " or " : ", ";
        expected += row.name;
    }
    throw std::invalid_argument("unknown backend '" + name +
                                "' (expected " + expected + ")");
}

std::ostream &
operator<<(std::ostream &os, Backend backend)
{
    return os << nameOf(backend);
}

std::ostream &
operator<<(std::ostream &os, const SimConfig &cfg)
{
    return os << cfg.backend;
}

// ------------------------------------------------------------- Simulator

namespace {

/** Run @p run, adding its wall time to @p total when a probe is on. */
template <class F>
void
timed(ScopeProbe *p, double ScopeProbe::*total, F &&run)
{
    if (!p) {
        run();
        return;
    }
    Stopwatch sw;
    run();
    p->*total += sw.elapsed();
}

} // namespace

Simulator::Simulator(std::shared_ptr<Elaboration> elab, SimConfig cfg)
    : elab_(std::move(elab)), cfg_(cfg),
      boxed_host_(boxedHost(cfg.backend)),
      specializes_(specializes(cfg.backend)),
      native_blocks_(nativeBlocks(cfg.backend))
{
    spec_stats_.numBlocks = static_cast<int>(elab_->blocks.size());
    lambda_writer_.assign(elab_->nets.size(), nullptr);
    for (const ElabBlock &blk : elab_->blocks) {
        if (isTick(blk.kind) && !blk.ir) {
            for (int net : blk.writes) {
                if (!lambda_writer_[net])
                    lambda_writer_[net] = &blk;
            }
        }
    }
    for (Signal *sig : elab_->signals)
        sig->setAccess(this);
}

Simulator::~Simulator()
{
    for (Signal *sig : elab_->signals) {
        if (sig->access() == this)
            sig->setAccess(nullptr);
    }
    if (jit_thread_.joinable())
        jit_thread_.join();
}

void
Simulator::specialize(const ArenaStore *store, int nframes,
                      const std::function<void()> &schedule)
{
    if (!specializes_) {
        schedule();
        return;
    }
    Stopwatch sw;
    const auto &blocks = elab_->blocks;
    std::vector<int> members;
    for (size_t b = 0; b < blocks.size(); ++b) {
        if (bcSpecializable(blocks[b]))
            members.push_back(static_cast<int>(b));
    }
    spec_stats_.numSpecialized = static_cast<int>(members.size());
    bc_ = BcModule(*elab_, *store, members);
    spec_stats_.kernelTypes = bc_.numPrograms();
    type_.assign(blocks.size(), -1);
    for (int b : members)
        type_[b] = bc_.programOf(b);
    schedule();
    // Round each frame up to whole cache lines, plus one, so no two
    // threads' frames share a line.
    const size_t words = (bc_.frameWords() + 15) & ~size_t(7);
    bc_frames_.assign(nframes, std::vector<uint64_t>(words, 0));
    spec_stats_.codegenSeconds = sw.elapsed();
    if (native_blocks_ || designMode())
        buildNative();
}

std::vector<Simulator::Step>
Simulator::batchSteps(const std::vector<int> &seq)
{
    std::vector<std::vector<int>> batches;
    if (specializes_ && !native_blocks_) {
        batches = hazardBatches(*elab_, seq, type_);
    } else {
        for (int b : seq)
            batches.push_back({b});
    }
    std::vector<Step> steps;
    steps.reserve(batches.size());
    for (const std::vector<int> &blocks : batches) {
        Step step{blocks.front()};
        if (specializedBlock(step.block)) {
            step.batch = static_cast<int>(bc_batches_.size());
            bc_batches_.push_back(bc_.batch(blocks));
        }
        steps.push_back(step);
    }
    return steps;
}

void
Simulator::buildNative()
{
    Stopwatch sw;
    CppProgram program = cppEmitProgram(bc_);
    for (const BcBatch &batch : bc_batches_)
        cpp_batches_.push_back(cppBatch(program, bc_, batch.blocks));
    spec_stats_.codegenSeconds += sw.elapsed();
    spec_stats_.emittedTuBytes = program.source.size();
    auto compile = [dir = cfg_.jit_cache_dir.empty()
                              ? CppJit::defaultCacheDir()
                              : cfg_.jit_cache_dir,
                    use_cache = cfg_.jit_cache,
                    source = std::move(program.source),
                    nkernels = bc_.numPrograms()] {
        return CppJit(dir, use_cache).compile(source, nkernels);
    };
    spec_stats_.tiered = designMode() && cfg_.jit_tiered;
    if (!spec_stats_.tiered) {
        adoptLibrary(compile());
        return;
    }
    // Tiered warm-up: the kernel keeps running its batches as bytecode
    // while the compiler runs; maybeSwapTier() adopts the library at
    // the next cycle boundary after the thread finishes.
    jit_thread_ = std::thread([this, compile = std::move(compile)] {
        try {
            pending_lib_ = compile();
        } catch (...) {
            jit_error_ = std::current_exception();
        }
        jit_ready_.store(true, std::memory_order_release);
    });
}

void
Simulator::adoptLibrary(CppJitLibrary lib)
{
    cpp_lib_ = std::move(lib);
    spec_stats_.compileSeconds = cpp_lib_.compileSeconds();
    spec_stats_.wrapSeconds = cpp_lib_.wrapSeconds();
    spec_stats_.cacheHit = cpp_lib_.cacheHit();
    if (designMode())
        spec_stats_.tierSwapCycle = static_cast<int64_t>(numCycles());
    // ParSim workers are parked before a start barrier here, which
    // publishes the switch to them.
    native_ = true;
}

void
Simulator::maybeSwapTier()
{
    if (!tierPending() || !jit_ready_.load(std::memory_order_acquire))
        return;
    jit_thread_.join();
    if (jit_error_) {
        tier_failed_ = true;
        std::rethrow_exception(std::exchange(jit_error_, nullptr));
    }
    adoptLibrary(std::move(pending_lib_));
}

void
Simulator::cycle()
{
    maybeSwapTier();
    ScopeProbe *p = probe_;
    timed(p, &ScopeProbe::settle_seconds, [this] {
        if (dirty_)
            settle();
    });
    timed(p, &ScopeProbe::tick_seconds, [this] { tick(); });
    timed(p, &ScopeProbe::flop_seconds, [this] { flop(); });
    timed(p, &ScopeProbe::settle_seconds, [this] { settle(); });
    dirty_ = false;
    const uint64_t now = ncycles_.fetch_add(1, std::memory_order_relaxed) + 1;
    for (const auto &hook : cycle_hooks_)
        hook(now);
}

void
Simulator::cycle(uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i)
        cycle();
}

void
Simulator::eval()
{
    maybeSwapTier();
    timed(probe_, &ScopeProbe::settle_seconds, [this] { settle(); });
    dirty_ = false;
}

bool
Simulator::runUntil(uint64_t target_cycle)
{
    while (numCycles() < target_cycle) {
        // Consume the request so the next runUntil resumes cleanly; a
        // request landing mid-cycle() is honored before the next one.
        if (pause_requested_.exchange(false, std::memory_order_acq_rel))
            return false;
        cycle();
    }
    return true;
}

void
Simulator::reset(int ncycles)
{
    elab_->top->reset.setValue(uint64_t(1));
    cycle(static_cast<uint64_t>(ncycles));
    elab_->top->reset.setValue(uint64_t(0));
}

void
Simulator::runBatch(size_t i, uint64_t *words, uint64_t *frame)
{
    ScopeProbe *p = probe_;
    if (p && p->shouldTimeBatch(bc_batches_[i].blocks)) {
        Stopwatch sw;
        execBatch(i, words, frame);
        p->addBatchTime(bc_batches_[i].blocks, sw.elapsed());
        return;
    }
    execBatch(i, words, frame);
}

void
Simulator::recordCreate(double seconds)
{
    spec_stats_.simCreateSeconds =
        seconds - spec_stats_.codegenSeconds - spec_stats_.compileSeconds -
        spec_stats_.wrapSeconds;
}

void
Simulator::runTickLambda(int block)
{
    const ElabBlock &blk = elab_->blocks[block];
    running_lambda_ = &blk;
    struct Clear
    {
        const ElabBlock *&running;
        ~Clear() { running = nullptr; }
    } clear{running_lambda_};
    runTimed(block, blk.fn);
}

void
Simulator::checkDeclaredWrite(const Signal &sig) const
{
    const ElabBlock *blk = running_lambda_;
    if (!blk) {
        throw std::logic_error(
            "setNext on '" + sig.fullName() +
            "' outside a tick lambda: only a tick lambda that declares "
            "a signal may write its next value");
    }
    if (!std::binary_search(blk->writes.begin(), blk->writes.end(),
                            sig.netId())) {
        throw std::logic_error("tick lambda '" + blk->name + "' writes '" +
                               sig.fullName() +
                               "', which it does not declare");
    }
}

void
Simulator::bindLambdaNext(Signal &sig, int words_per_phase) const
{
    if (const ElabBlock *writer = lambda_writer_[sig.netId()])
        sig.bindNextSlot(words_per_phase, writer, &running_lambda_);
}

int
Simulator::slotBoundSignals() const
{
    int n = 0;
    for (const Signal *sig : elab_->signals)
        n += sig->slotBound() && sig->access() == this;
    return n;
}

std::string
Simulator::lineTrace() const
{
    std::string out;
    for (const Model *m : elab_->models) {
        std::string part = m->lineTrace();
        if (part.empty())
            continue;
        if (!out.empty())
            out += " | ";
        out += part;
    }
    return out;
}

// -------------------------------------------------------- SimulationTool

SimulationTool::SimulationTool(std::shared_ptr<Elaboration> elab,
                               SimConfig cfg)
    : Simulator(std::move(elab), cfg)
{
    Stopwatch sw;

    event_driven_ =
        cfg_.sched == SchedMode::Event ||
        (cfg_.sched == SchedMode::Auto && useBoxed());
    if (designMode() && event_driven_) {
        throw std::logic_error(
            "cpp-design runs the static levelized schedule; "
            "SchedMode::Event is incompatible");
    }
    if (!event_driven_ && elab_->hasCombCycle) {
        throw std::logic_error(
            "design has a combinational cycle; static scheduling is "
            "impossible (use SchedMode::Event)");
    }

    if (useBoxed())
        boxed_ = std::make_unique<BoxedStore>(*elab_);
    if (!useBoxed() || specializes_)
        arena_ = std::make_unique<ArenaStore>(*elab_);
    if (boxed_)
        boxed_eval_ = std::make_unique<BoxedEvaluator>(*boxed_);
    if (arena_)
        slot_eval_ = std::make_unique<SlotEvaluator>(*arena_);

    const size_t nnets = elab_->nets.size();
    for (const Net &net : elab_->nets) {
        if (isFlop(net.id))
            flopped_nets_.push_back(net.id);
    }
    if (arena_)
        flop_plan_ = arena_->flopPlan(flopped_nets_);

    // Arrays written by tick blocks re-trigger their readers each
    // cycle under event-driven scheduling.
    for (const ElabBlock &blk : elab_->blocks) {
        if (!isTick(blk.kind))
            continue;
        for (int token : blk.writes) {
            if (token >= static_cast<int>(nnets))
                tick_array_tokens_.push_back(token);
        }
    }

    // Combinational steps in topological order when available.
    std::vector<int> comb_order = elab_->combOrder;
    if (elab_->hasCombCycle) {
        comb_order.clear();
        for (size_t i = 0; i < elab_->blocks.size(); ++i) {
            if (!isTick(elab_->blocks[i].kind))
                comb_order.push_back(static_cast<int>(i));
        }
    }
    specialize(arena_.get(), 1, [&] {
        comb_steps_ = batchSteps(comb_order);
        tick_steps_ = batchSteps(elab_->tickOrder);
    });
    comb_step_of_block_.assign(elab_->blocks.size(), -1);
    for (size_t i = 0; i < comb_steps_.size(); ++i) {
        for (int b : lanes(comb_steps_[i]))
            comb_step_of_block_[b] = static_cast<int>(i);
    }
    if (useBoxed() && specializes_) {
        assignOwnership();
        buildSyncLists();
    }

    in_worklist_.assign(comb_steps_.size(), 0);
    if (eventDriven()) {
        // Seed the worklist with every combinational step; ascending
        // indices already form a min-heap.
        for (size_t i = 0; i < comb_steps_.size(); ++i) {
            worklist_.push_back(static_cast<int>(i));
            in_worklist_[i] = 1;
        }
    }

    // Slot-bind every narrow signal to its arena word (signal.h), and
    // a tick lambda's declared ones to their next-phase word too: the
    // lambda blocks' and test benches' reads and the declared
    // non-blocking writes then skip this object. Hybrid boxed hosts
    // stay virtual, since ownership of a net is decided per token
    // there.
    if (!useBoxed()) {
        for (Signal *sig : elab_->signals) {
            const int net = sig->netId();
            if (!arena_->narrow(net))
                continue;
            sig->bindSlot(arena_->data() + arena_->offset(net));
            bindLambdaNext(*sig, arena_->wordsPerPhase());
        }
    }

    recordCreate(sw.elapsed());
}

void
SimulationTool::assignOwnership()
{
    // Hybrid storage ownership: a token is arena-owned when it has a
    // writer, every writer is specialized, and no unspecialized IR
    // block touches it (lambda blocks and test benches access signals
    // through SignalAccess, which dispatches on ownership; boxed IR
    // evaluation does not).
    const auto &blocks = elab_->blocks;
    const size_t ntokens = elab_->nets.size() + elab_->arrays.size();
    std::vector<char> has_writer(ntokens, 0);
    std::vector<char> unspec_writer(ntokens, 0);
    std::vector<char> unspec_ir(ntokens, 0);
    for (size_t i = 0; i < blocks.size(); ++i) {
        const bool spec = specializedBlock(static_cast<int>(i));
        for (int tok : blocks[i].writes) {
            has_writer[tok] = 1;
            if (!spec)
                unspec_writer[tok] = 1;
        }
        if (blocks[i].ir && !spec) {
            for (int tok : blocks[i].reads)
                unspec_ir[tok] = 1;
            for (int tok : blocks[i].writes)
                unspec_ir[tok] = 1;
        }
    }
    token_in_arena_.assign(ntokens, 0);
    for (size_t tok = 0; tok < ntokens; ++tok) {
        token_in_arena_[tok] =
            has_writer[tok] && !unspec_writer[tok] && !unspec_ir[tok];
    }
}

std::vector<std::vector<int>>
typeBatches(const std::vector<int> &base,
            const std::vector<std::vector<int>> &succ,
            std::vector<int> indeg, const std::vector<int> &type)
{
    const size_t nblocks = type.size();
    std::vector<int> pos(nblocks, -1);
    int ntypes = 0;
    for (size_t i = 0; i < base.size(); ++i) {
        pos[base[i]] = static_cast<int>(i);
        ntypes = std::max(ntypes, type[base[i]] + 1);
    }
    // Ready blocks per type (index type + 1; the unspecialized ones a
    // min-heap by base position), and a min-heap of every ready
    // specialized block (pruned lazily).
    auto later = [&](int a, int b) { return pos[a] > pos[b]; };
    auto push = [&](std::vector<int> &heap, int b) {
        heap.push_back(b);
        std::push_heap(heap.begin(), heap.end(), later);
    };
    auto pop = [&](std::vector<int> &heap) {
        std::pop_heap(heap.begin(), heap.end(), later);
        const int b = heap.back();
        heap.pop_back();
        return b;
    };
    std::vector<std::vector<int>> ready(ntypes + 1);
    std::vector<int> any;
    std::vector<char> taken(nblocks, 0);
    auto makeReady = [&](int b) {
        if (type[b] < 0) {
            push(ready[0], b);
        } else {
            ready[type[b] + 1].push_back(b);
            push(any, b);
        }
    };
    for (int b : base) {
        if (indeg[b] == 0)
            makeReady(b);
    }

    std::vector<std::vector<int>> out;
    size_t placed = 0;
    bool spec = true, stalled = false;
    int cur = -1;
    while (placed < base.size()) {
        std::vector<int> batch;
        if (spec) {
            if (cur < 0 || ready[cur + 1].empty()) {
                while (!any.empty() && taken[any.front()])
                    pop(any);
                cur = any.empty() ? -1 : type[any.front()];
            }
            if (cur >= 0) {
                batch.swap(ready[cur + 1]);
                std::sort(batch.begin(), batch.end(),
                          [&](int a, int b) { return pos[a] < pos[b]; });
            }
        } else if (!ready[0].empty()) {
            batch.push_back(pop(ready[0]));
        }
        if (batch.empty()) {
            if (stalled)
                break;
            stalled = true;
            spec = !spec;
            continue;
        }
        stalled = false;
        for (int b : batch)
            taken[b] = 1;
        placed += batch.size();
        for (int b : batch) {
            for (int s : succ[b]) {
                if (--indeg[s] == 0)
                    makeReady(s);
            }
        }
        out.push_back(std::move(batch));
    }
    if (placed != base.size()) {
        // Defensive: fall back to the baseline order.
        out.clear();
        for (int b : base)
            out.push_back({b});
    }
    return out;
}

std::vector<std::vector<int>>
hazardBatches(const Elaboration &elab, const std::vector<int> &seq,
              const std::vector<int> &type)
{
    // The graph is built over positions in seq. Per token: its last
    // writer, and the readers since then as a list through `link`.
    const size_t n = seq.size();
    const size_t ntokens = elab.nets.size() + elab.arrays.size();
    std::vector<int> local(n), ltype(n);
    std::vector<std::vector<int>> succ(n);
    std::vector<int> indeg(n, 0);
    auto addEdge = [&](int a, int b) {
        if (a < 0 || a == b)
            return;
        succ[a].push_back(b);
        ++indeg[b];
    };
    std::vector<int> last_writer(ntokens, -1), readers(ntokens, -1);
    std::vector<std::pair<int, int>> link; //!< (reader, next link)
    int barrier = -1;
    std::vector<int> since_barrier;
    for (size_t i = 0; i < n; ++i) {
        const int b = static_cast<int>(i);
        const ElabBlock &blk = elab.blocks[seq[i]];
        local[i] = b;
        ltype[i] = type[seq[i]];
        addEdge(barrier, b);
        if (!blk.ir) {
            for (int a : since_barrier)
                addEdge(a, b);
            since_barrier.clear();
            barrier = b;
            continue;
        }
        since_barrier.push_back(b);
        for (int tok : blk.reads) {
            addEdge(last_writer[tok], b);
            link.emplace_back(b, readers[tok]);
            readers[tok] = static_cast<int>(link.size()) - 1;
        }
        for (int tok : blk.writes) {
            addEdge(last_writer[tok], b);
            for (int r = readers[tok]; r >= 0; r = link[r].second)
                addEdge(link[r].first, b);
            readers[tok] = -1;
            last_writer[tok] = b;
        }
    }
    std::vector<std::vector<int>> batches =
        typeBatches(local, succ, std::move(indeg), ltype);
    for (auto &batch : batches) {
        for (int &b : batch)
            b = seq[b];
    }
    return batches;
}

LayoutStats
SimulationTool::layoutStats() const
{
    LayoutStats s;
    s.slot_bound_signals = slotBoundSignals();
    if (!arena_)
        return s;
    s.words_per_phase = arena_->wordsPerPhase();
    s.flop_memcpy_ranges = static_cast<int>(flop_plan_.size());
    return s;
}

void
SimulationTool::enqueueReaders(int net)
{
    for (int blk : elab_->netReaders[net]) {
        int step = comb_step_of_block_[blk];
        if (step >= 0 && !in_worklist_[step]) {
            in_worklist_[step] = 1;
            worklist_.push_back(step);
            std::push_heap(worklist_.begin(), worklist_.end(),
                           std::greater<>());
        }
    }
}

bool
SimulationTool::isArrayToken(int token) const
{
    return token >= static_cast<int>(elab_->nets.size());
}

void
SimulationTool::copyArrayToArena(int token)
{
    int id = token - static_cast<int>(elab_->nets.size());
    const MemArray *array = elab_->arrays[id];
    for (int i = 0; i < array->depth(); ++i)
        arena_->arrayWrite(id, i, boxed_->arrayRead(id, i));
}

void
SimulationTool::copyArrayToBoxed(int token)
{
    int id = token - static_cast<int>(elab_->nets.size());
    const MemArray *array = elab_->arrays[id];
    for (int i = 0; i < array->depth(); ++i)
        boxed_->arrayWrite(id, i, arena_->arrayRead(id, i));
}

void
SimulationTool::buildSyncLists()
{
    // A token several lanes of a batch touch, like reset, crosses once.
    // Arena-owned tokens never cross: the compiled component keeps them.
    auto boundary = [&](const std::vector<int> &tokens,
                        std::vector<int> &out) {
        for (int t : tokens) {
            if (!tokenInArena(t))
                out.push_back(t);
        }
    };
    auto dedup = [](std::vector<int> &v) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    };
    for (const BcBatch &batch : bytecodeBatches()) {
        BatchSync sync;
        // A batch's lanes come from one sequence, the comb or the tick
        // order.
        sync.tick = isTick(elab_->blocks[batch.blocks.front()].kind);
        for (int b : batch.blocks) {
            boundary(elab_->blocks[b].reads, sync.reads);
            boundary(elab_->blocks[b].writes, sync.writes);
        }
        dedup(sync.reads);
        dedup(sync.writes);
        batch_sync_.push_back(std::move(sync));
    }
}

void
SimulationTool::syncIn(const BatchSync &sync)
{
    // Marshal the batch's boundary state into the arena before it runs
    // (the Python -> C++ call boundary).
    for (int net : sync.reads) {
        if (isArrayToken(net))
            copyArrayToArena(net);
        else
            arena_->write(net, boxed_->read(net));
    }
    for (int net : sync.writes) {
        if (isArrayToken(net))
            copyArrayToArena(net);
        else if (sync.tick)
            arena_->writeNext(net, boxed_->readNext(net));
        else
            arena_->write(net, boxed_->read(net));
    }
}

void
SimulationTool::syncOut(const BatchSync &sync)
{
    // Marshal the batch's results back (the C++ -> Python return
    // boundary).
    for (int net : sync.writes) {
        if (isArrayToken(net))
            copyArrayToBoxed(net);
        else if (sync.tick)
            boxed_->writeNext(net, arena_->readNext(net));
        else
            boxed_->write(net, arena_->read(net));
    }
}

void
SimulationTool::snapshotWrites(const Step &step)
{
    // A batch's values sit in the arena (from syncIn to syncOut on a
    // hybrid), so its snapshot is raw arena words; a lone block's
    // values are read through readNet.
    write_snapshot_.clear();
    write_words_.clear();
    for (int b : lanes(step)) {
        for (int net : elab_->blocks[b].writes) {
            if (isArrayToken(net))
                continue;
            if (step.batch >= 0) {
                const uint64_t *w = arena_->data() + arena_->offset(net);
                write_words_.insert(write_words_.end(), w,
                                    w + arena_->nwords(net));
            } else {
                write_snapshot_.push_back(readNet(net));
            }
        }
    }
}

void
SimulationTool::wakeChangedWrites(const Step &step)
{
    size_t at = 0;
    for (int b : lanes(step)) {
        for (int net : elab_->blocks[b].writes) {
            if (isArrayToken(net))
                continue;
            bool changed;
            if (step.batch >= 0) {
                const uint64_t *w = arena_->data() + arena_->offset(net);
                const int n = arena_->nwords(net);
                changed = !std::equal(w, w + n, write_words_.data() + at);
                at += n;
            } else {
                changed = readNet(net) != write_snapshot_[at++];
            }
            if (changed)
                enqueueReaders(net);
        }
    }
}

void
SimulationTool::runStep(const Step &step, bool wake)
{
    // Batches run on the arena. A boxed host marshals around them, so
    // from syncIn to syncOut the arena holds every net they write.
    const ElabBlock &blk = elab_->blocks[step.block];
    const bool batch = step.batch >= 0;
    const bool marshal = batch && useBoxed();
    if (marshal)
        syncIn(batch_sync_[step.batch]);
    if (wake)
        snapshotWrites(step);
    // A lambda writes through pokeNet, which leaves the waking to
    // wakeChangedWrites while the step runs.
    in_comb_step_ = wake;
    if (batch) {
        runBatch(step.batch, arena_->data(), frame(0));
    } else if (!blk.ir && isTick(blk.kind)) {
        runTickLambda(step.block);
    } else {
        runTimed(step.block, [&] {
            if (!blk.ir)
                blk.fn();
            else if (boxed_eval_)
                boxed_eval_->run(blk);
            else
                slot_eval_->run(blk);
        });
    }
    in_comb_step_ = false;
    if (wake)
        wakeChangedWrites(step);
    if (marshal)
        syncOut(batch_sync_[step.batch]);
}

void
SimulationTool::settle()
{
    if (!eventDriven()) {
        for (const Step &step : comb_steps_)
            runStep(step);
        return;
    }
    // A step, IR or lambda, wakes the readers of each net it declares
    // as written whose value after the step differs from its value
    // before it. So a block that re-reads its own earlier write (a
    // default, then a field override) does not wake itself over its
    // intermediate value. The worklist is a min-heap of step indices:
    // pending steps run in schedule order, so on an acyclic design a
    // settle runs each step at most once.
    size_t iterations = 0;
    const size_t limit = (elab_->blocks.size() + 1) * 10000;
    while (!worklist_.empty()) {
        std::pop_heap(worklist_.begin(), worklist_.end(), std::greater<>());
        const int idx = worklist_.back();
        worklist_.pop_back();
        in_worklist_[idx] = 0;
        runStep(comb_steps_[idx], true);
        if (++iterations > limit) {
            throw std::runtime_error(
                "combinational logic failed to converge "
                "(oscillating cycle?)");
        }
    }
}

void
SimulationTool::tick()
{
    for (const Step &step : tick_steps_)
        runStep(step);
}

void
SimulationTool::flop()
{
    if (flopsByRange()) {
        // No per-net change notification needed: copy the flop set as
        // whole-word ranges.
        arena_->flopRanges(flop_plan_);
        return;
    }
    for (int net : flopped_nets_) {
        bool ch = tokenInArena(net) ? arena_->flop(net)
                                    : boxed_->flop(net);
        if (ch && eventDriven())
            enqueueReaders(net);
    }
    if (eventDriven()) {
        for (int token : tick_array_tokens_)
            enqueueReaders(token);
    }
}

Bits
SimulationTool::readNet(int net) const
{
    return tokenInArena(net) ? arena_->read(net) : boxed_->read(net);
}

Bits
SimulationTool::readArray(const MemArray &array, uint64_t index) const
{
    int id = array.arrayId();
    return tokenInArena(elab_->arrayToken(id))
               ? arena_->arrayRead(id, index)
               : boxed_->arrayRead(id, index);
}

void
SimulationTool::writeArray(MemArray &array, uint64_t index,
                           const Bits &value)
{
    int id = array.arrayId();
    if (tokenInArena(elab_->arrayToken(id)))
        arena_->arrayWrite(id, index, value);
    else
        boxed_->arrayWrite(id, index, value);
    dirty_ = true;
    if (eventDriven())
        enqueueReaders(elab_->arrayToken(id));
}

Bits
SimulationTool::read(const Signal &sig) const
{
    return readNet(sig.netId());
}

void
SimulationTool::write(Signal &sig, const Bits &value)
{
    pokeNet(sig.netId(), value);
}

void
SimulationTool::writeNext(Signal &sig, const Bits &value)
{
    checkDeclaredWrite(sig);
    pokeNetNext(sig.netId(), value);
}

// ------------------------------------------- SimSnap state capture

Bits
SimulationTool::readNetNext(int net) const
{
    return tokenInArena(net) ? arena_->readNext(net) : boxed_->readNext(net);
}

void
SimulationTool::pokeNet(int net, const Bits &value)
{
    const bool ch = tokenInArena(net) ? arena_->write(net, value)
                                      : boxed_->write(net, value);
    if (ch) {
        dirty_ = true;
        if (eventDriven() && !in_comb_step_)
            enqueueReaders(net);
    }
}

void
SimulationTool::pokeNetNext(int net, const Bits &value)
{
    if (tokenInArena(net))
        arena_->writeNext(net, value);
    else
        boxed_->writeNext(net, value);
}

} // namespace cmtl
