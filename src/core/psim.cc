#include "psim.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <stdexcept>

#include "timing.h"

namespace cmtl {

namespace {

/**
 * Which replica the current thread addresses: worker threads bind to
 * their island for the thread's lifetime; the coordinating thread (and
 * any other host thread) stays at -1 and routes through token owners.
 */
thread_local int tls_island = -1;

} // namespace

ParSimulationTool::ParSimulationTool(std::shared_ptr<Elaboration> elab,
                                     SimConfig cfg)
    : Simulator(std::move(elab), cfg),
      plan_(partitionDesign(*elab_, cfg.threads)),
      bar_all_(plan_.nislands + 1),
      bar_workers_(plan_.nislands)
{
    Stopwatch sw;

    if (boxed_host_) {
        throw std::logic_error(
            "ParSim needs an arena-hosted backend; got '" +
            cfg_.toString() + "'");
    }
    if (cfg_.sched == SchedMode::Event) {
        throw std::logic_error(
            "ParSim is statically scheduled; SchedMode::Event is "
            "sequential-only");
    }

    replicas_.reserve(plan_.nislands);
    evals_.reserve(plan_.nislands);
    for (int i = 0; i < plan_.nislands; ++i) {
        replicas_.push_back(std::make_unique<ArenaStore>(*elab_));
        evals_.push_back(std::make_unique<SlotEvaluator>(*replicas_[i]));
    }

    accessor_.bindReplicas(&replicas_, &plan_);
    accessor_.onPokeChanged([this](int) { dirty_ = true; });

    // Per-island flop copy plans: an island's owned static flops
    // coalesce into whole-word ranges (disjoint across islands by
    // ownership, since a net never shares a word).
    island_flop_plans_.reserve(plan_.nislands);
    for (int i = 0; i < plan_.nislands; ++i)
        island_flop_plans_.push_back(
            replicas_[0]->flopPlan(plan_.islands[i].flopNets));

    const size_t nnets = elab_->nets.size();
    is_main_flop_.assign(nnets, 0);
    static_island_flop_.assign(nnets, 0);
    for (const Net &net : elab_->nets) {
        if (net.floppedStatic && plan_.ownerOf[net.id] >= 0)
            static_island_flop_[net.id] = 1;
    }

    for (Signal *sig : elab_->signals)
        sig->setAccess(this);
    bindSignals();
    try {
        buildIslandSchedules();
        double create_before_spec = sw.elapsed();
        if (specializes_)
            specialize();
        startWorkers();
        spec_stats_.simCreateSeconds =
            create_before_spec +
            (sw.elapsed() - create_before_spec -
             spec_stats_.codegenSeconds - spec_stats_.compileSeconds -
             spec_stats_.wrapSeconds);
    } catch (...) {
        for (Signal *sig : elab_->signals) {
            if (sig->access() == this)
                sig->setAccess(nullptr);
        }
        throw;
    }
}

ParSimulationTool::~ParSimulationTool()
{
    shutdownWorkers();
    for (Signal *sig : elab_->signals) {
        if (sig->access() == this)
            sig->setAccess(nullptr);
    }
}

void
ParSimulationTool::bindSignals()
{
    // Worker threads run comb lambdas against their own replica, so
    // the signals those touch stay on the virtual path; the rest are
    // read and non-blockingly written only by the coordinator, which
    // addresses each net in its home replica.
    std::vector<char> island_lambda(elab_->nets.size(), 0);
    for (const ElabBlock &blk : elab_->blocks) {
        if (blk.kind != BlockKind::CombLambda)
            continue;
        for (const std::vector<int> *tokens : {&blk.reads, &blk.writes}) {
            for (int t : *tokens) {
                if (t < static_cast<int>(island_lambda.size()))
                    island_lambda[t] = 1;
            }
        }
    }
    for (Signal *sig : elab_->signals) {
        const int net = sig->netId();
        ArenaStore &home = *replicas_[plan_.homeReplica(net)];
        if (home.narrow(net) && !island_lambda[net])
            sig->bindSlot(home.data() + home.offset(net));
    }
}

void
ParSimulationTool::buildIslandSchedules()
{
    const auto &blocks = elab_->blocks;
    spec_stats_.numBlocks = static_cast<int>(blocks.size());

    const int n = plan_.nislands;
    comb_steps_.resize(n);
    tick_steps_.resize(n);
    comb_pushes_.assign(
        n, std::vector<std::vector<CopyOp>>(plan_.nlevels));
    flop_pushes_.resize(n);

    // A push targets every non-owner island with a static reader. The
    // coordinating thread reads owner replicas directly and never
    // needs one.
    auto pushTargets = [&](int token, int owner, std::vector<CopyOp> &out) {
        if (token >= static_cast<int>(elab_->nets.size()))
            return; // arrays are island-local by construction
        for (int dst : plan_.readerIslands[token]) {
            if (dst != owner) {
                out.push_back(CopyOp{dst, replicas_[0]->offset(token),
                                     replicas_[0]->nwords(token)});
            }
        }
    };

    for (int i = 0; i < n; ++i) {
        const PartitionIsland &isl = plan_.islands[i];
        for (size_t k = 0; k < isl.combBlocks.size(); ++k) {
            PStep step;
            step.block = isl.combBlocks[k];
            step.level = isl.combLevels[k];
            comb_steps_[i].push_back(step);
        }
        for (int b : isl.tickBlocks) {
            PStep step;
            step.block = b;
            tick_steps_[i].push_back(step);
        }

        // Comb pushes, deduplicated per (level, token).
        std::set<std::pair<int, int>> seen;
        for (const PStep &step : comb_steps_[i]) {
            for (int t : blocks[step.block].writes) {
                if (seen.insert({step.level, t}).second)
                    pushTargets(t, i, comb_pushes_[i][step.level]);
            }
        }

        // Flop pushes: post-flop values of owned flopped nets, plus
        // nets this island's tick blocks write blockingly (a tick
        // write to a net that is not statically flopped mutates the
        // current value directly).
        std::set<int> fseen;
        for (int t : isl.flopNets) {
            if (fseen.insert(t).second)
                pushTargets(t, i, flop_pushes_[i]);
        }
        for (const PStep &step : tick_steps_[i]) {
            for (int t : blocks[step.block].writes) {
                if (t < static_cast<int>(elab_->nets.size()) &&
                    !elab_->nets[t].floppedStatic && fseen.insert(t).second)
                    pushTargets(t, i, flop_pushes_[i]);
            }
        }

        // Order each push list by (destination replica, word) so the
        // copies walk every replica's arena in address order.
        auto byTarget = [](std::vector<CopyOp> &ops) {
            std::sort(ops.begin(), ops.end(),
                      [](const CopyOp &a, const CopyOp &b) {
                          if (a.dst != b.dst)
                              return a.dst < b.dst;
                          return a.off < b.off;
                      });
        };
        for (auto &level : comb_pushes_[i])
            byTarget(level);
        byTarget(flop_pushes_[i]);
    }
}

void
ParSimulationTool::specialize()
{
    Stopwatch sw;
    const auto &blocks = elab_->blocks;
    specialized_.assign(blocks.size(), 0);
    for (size_t b = 0; b < blocks.size(); ++b) {
        if (blocks[b].ir && bcSpecializable(blocks[b], *replicas_[0])) {
            specialized_[b] = 1;
            ++spec_stats_.numSpecialized;
        }
    }

    // One shared program per block type: slot tables address the
    // arena by absolute offset, so every island runs them against its
    // own replica's data pointer. Frames are per island.
    const std::vector<int> type = buildModule(specialized_, *replicas_[0]);
    for (int i = 0; i < plan_.nislands; ++i) {
        batchSteps(comb_steps_[i], type);
        batchSteps(tick_steps_[i], type);
    }
    // Round each island's frame up to whole cache lines, plus one,
    // so no two islands' frames share a line.
    const size_t frame = (bc_.frameWords() + 15) & ~size_t(7);
    bc_frames_.assign(plan_.nislands, std::vector<uint64_t>(frame, 0));
    spec_stats_.codegenSeconds = sw.elapsed();
    if (native_blocks_ || designMode())
        buildNative();
}

void
ParSimulationTool::batchSteps(std::vector<PStep> &steps,
                              const std::vector<int> &type)
{
    // Batch each settle level (the tick list is all level 0) apart:
    // the push points between levels are immovable. cpp-block crosses
    // the C ABI once per block, as the sequential kernel does: every
    // block is a batch of its own, in schedule order.
    std::vector<PStep> out;
    size_t k = 0;
    while (k < steps.size()) {
        const int level = steps[k].level;
        std::vector<int> seq;
        for (; k < steps.size() && steps[k].level == level; ++k)
            seq.push_back(steps[k].block);
        std::vector<std::vector<int>> batches;
        if (native_blocks_) {
            for (int b : seq)
                batches.push_back({b});
        } else {
            batches = hazardBatches(*elab_, seq, type);
        }
        for (const auto &lanes : batches) {
            PStep step;
            step.block = lanes.front();
            step.level = level;
            if (type[step.block] >= 0) {
                step.kind = PStep::Kind::Batch;
                step.batch = static_cast<int>(bc_batches_.size());
                bc_batches_.push_back(bc_.batch(lanes));
            }
            out.push_back(step);
        }
    }
    steps = std::move(out);
}

LayoutStats
ParSimulationTool::layoutStats() const
{
    LayoutStats s;
    s.words_per_phase = replicas_[0]->wordsPerPhase();
    for (const auto &ranges : island_flop_plans_)
        s.flop_memcpy_ranges += static_cast<int>(ranges.size());
    s.dynamic_flops = static_cast<int>(main_flops_.size());
    s.dynamic_flop_ranges =
        static_cast<int>(replicas_[0]->flopPlan(main_flops_).size());
    for (const Signal *sig : elab_->signals) {
        if (sig->slotBound() && sig->access() == this)
            ++s.slot_bound_signals;
    }
    return s;
}

// ------------------------------------------------------ thread pool

void
ParSimulationTool::startWorkers()
{
    workers_.reserve(plan_.nislands);
    for (int i = 0; i < plan_.nislands; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

void
ParSimulationTool::shutdownWorkers()
{
    if (workers_.empty())
        return;
    cmd_ = Cmd::Exit;
    bar_all_.arriveAndWait();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
}

void
ParSimulationTool::workerLoop(int island)
{
    tls_island = island;
    // Done-barrier wait of the previous phase, banked locally: the
    // probe must never be touched after the done barrier (the
    // coordinator may detach/destroy it once cycle() returns), so the
    // sample is flushed here, after the next start barrier, when the
    // coordinator is provably inside a phase.
    double pending_bar = 0.0;
    for (;;) {
        bar_all_.arriveAndWait(); // start: cmd_ published by coordinator
        Cmd cmd = cmd_;
        if (cmd == Cmd::Exit)
            return;
        // probe_ is only swapped while workers are parked at the start
        // barrier, so one read per iteration is stable.
        ScopeProbe *p = probe_;
        if (p)
            p->island_barrier_seconds[island] += pending_bar;
        pending_bar = 0.0;
        double bar_before =
            p ? p->island_barrier_seconds[island] : 0.0;
        Stopwatch sw;
        try {
            switch (cmd) {
              case Cmd::Settle:
                runIslandSettle(island);
                break;
              case Cmd::Tick:
                runIslandTick(island);
                break;
              case Cmd::Flop:
                runIslandFlop(island);
                break;
              case Cmd::Exit:
                break;
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mu_);
            if (!worker_error_)
                worker_error_ = std::current_exception();
            failed_.store(true, std::memory_order_release);
        }
        if (p) {
            // Superstep barrier waits accumulated inside the phase are
            // barrier time, not compute time.
            double bar_during =
                p->island_barrier_seconds[island] - bar_before;
            double compute = sw.elapsed() - bar_during;
            switch (cmd) {
              case Cmd::Settle:
                p->island_settle_seconds[island] += compute;
                break;
              case Cmd::Tick:
                p->island_tick_seconds[island] += compute;
                break;
              case Cmd::Flop:
                p->island_flop_seconds[island] += compute;
                break;
              case Cmd::Exit:
                break;
            }
            Stopwatch swb;
            bar_all_.arriveAndWait(); // done
            pending_bar = swb.elapsed();
        } else {
            bar_all_.arriveAndWait(); // done
        }
    }
}

void
ParSimulationTool::runPhase(Cmd cmd)
{
    cmd_ = cmd;
    bar_all_.arriveAndWait(); // start
    if (cmd == Cmd::Tick) {
        // Tick lambdas (undeclared effects) always run here, in
        // declaration order: sequential semantics by construction.
        for (int b : plan_.lambdaTicks) {
            if (probe_ && probe_->shouldTime(b)) {
                Stopwatch sw;
                elab_->blocks[b].fn();
                probe_->addBlockTime(b, sw.elapsed());
            } else {
                elab_->blocks[b].fn();
            }
        }
    } else if (cmd == Cmd::Flop) {
        flopMainNets();
    }
    bar_all_.arriveAndWait(); // done
    if (failed_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(error_mu_);
        failed_.store(false, std::memory_order_relaxed);
        std::exception_ptr err = worker_error_;
        worker_error_ = nullptr;
        std::rethrow_exception(err);
    }
}

void
ParSimulationTool::flopMainNets()
{
    // A dynamically registered flop's next value is current in its
    // home replica (a slot-bound setNext stores only there): flop it
    // there, then copy the new current words into every other
    // replica. These nets are disjoint from every island's flop and
    // push targets. Both steps copy whole-word ranges, replanned when
    // the set grows.
    if (main_flops_.size() != main_flops_planned_) {
        std::vector<std::vector<int>> by_home(replicas_.size());
        for (int net : main_flops_)
            by_home[plan_.homeReplica(net)].push_back(net);
        main_flop_plans_.clear();
        for (const std::vector<int> &nets : by_home)
            main_flop_plans_.push_back(replicas_[0]->flopPlan(nets));
        main_flops_planned_ = main_flops_.size();
    }
    for (size_t home = 0; home < main_flop_plans_.size(); ++home) {
        const std::vector<FlopRange> &plan = main_flop_plans_[home];
        if (plan.empty())
            continue;
        replicas_[home]->flopRanges(plan);
        const uint64_t *src = replicas_[home]->data();
        for (size_t r = 0; r < replicas_.size(); ++r) {
            if (r == home)
                continue;
            uint64_t *dst = replicas_[r]->data();
            for (const FlopRange &range : plan) {
                std::memcpy(dst + range.off, src + range.off,
                            static_cast<size_t>(range.nwords) *
                                sizeof(uint64_t));
            }
        }
    }
}

// -------------------------------------------------- island execution

void
ParSimulationTool::runPStep(int island, const PStep &step)
{
    // Per-block counters are written only by the executing island's
    // worker (each block belongs to exactly one island), so the probe
    // needs no synchronization here. A batch times itself (runBatch).
    if (step.kind == PStep::Kind::Batch) {
        runBatch(step.batch, replicas_[island]->data(),
                 bc_frames_[island].data());
        return;
    }
    // A comb lambda runs its host code here; its signal accesses take
    // the virtual path to this island's replica.
    const ElabBlock &blk = elab_->blocks[step.block];
    auto run = [&] {
        if (blk.ir)
            evals_[island]->run(blk, nullptr);
        else
            blk.fn();
    };
    if (ScopeProbe *p = probe_; p && p->shouldTime(step.block)) {
        Stopwatch sw;
        run();
        p->addBlockTime(step.block, sw.elapsed());
        return;
    }
    run();
}

void
ParSimulationTool::pushCur(int island, const CopyOp &op)
{
    const uint64_t *src = replicas_[island]->data() + op.off;
    uint64_t *dst = replicas_[op.dst]->data() + op.off;
    const size_t bytes = static_cast<size_t>(op.n) * sizeof(uint64_t);
    std::memcpy(dst, src, bytes);
    if (ScopeProbe *p = probe_) {
        p->island_boundary_bytes[island] += bytes;
    }
}

void
ParSimulationTool::runIslandSettle(int island)
{
    const std::vector<PStep> &steps = comb_steps_[island];
    size_t k = 0;
    for (int lvl = 0; lvl < plan_.nlevels; ++lvl) {
        for (; k < steps.size() && steps[k].level == lvl; ++k)
            runPStep(island, steps[k]);
        for (const CopyOp &op : comb_pushes_[island][lvl])
            pushCur(island, op);
        // Cross-island readers of this superstep's values run at a
        // later level, after this barrier publishes the pushes.
        if (lvl + 1 < plan_.nlevels) {
            if (ScopeProbe *p = probe_) {
                Stopwatch sw;
                bar_workers_.arriveAndWait();
                p->island_barrier_seconds[island] += sw.elapsed();
            } else {
                bar_workers_.arriveAndWait();
            }
        }
    }
}

void
ParSimulationTool::runIslandTick(int island)
{
    for (const PStep &step : tick_steps_[island])
        runPStep(island, step);
}

void
ParSimulationTool::runIslandFlop(int island)
{
    // Whole-word range copies of the island's static flop set.
    replicas_[island]->flopRanges(island_flop_plans_[island]);
    // Publish post-flop (and blocking-tick-written) current values.
    // No barrier needed before the pushes: each copied net is owned by
    // exactly one island, and flop targets are island-owned too, so
    // all concurrent writes land in disjoint words.
    for (const CopyOp &op : flop_pushes_[island])
        pushCur(island, op);
}

// ------------------------------------------------------- simulation

void
ParSimulationTool::settlePhase()
{
    runPhase(Cmd::Settle);
    dirty_ = false;
}

void
ParSimulationTool::cycle()
{
    maybeSwapTier();
    if (dirty_)
        settlePhase();
    runPhase(Cmd::Tick);
    runPhase(Cmd::Flop);
    settlePhase();
    uint64_t now = ncycles_.fetch_add(1, std::memory_order_relaxed) + 1;
    for (const auto &hook : cycle_hooks_)
        hook(now);
}

void
ParSimulationTool::eval()
{
    maybeSwapTier();
    settlePhase();
}

// ----------------------------------------------------- signal access

ArenaStore &
ParSimulationTool::replicaFor(int net) const
{
    return *replicas_[tls_island >= 0 ? tls_island : plan_.homeReplica(net)];
}

void
ParSimulationTool::markMainFlop(int net)
{
    if (!is_main_flop_[net]) {
        is_main_flop_[net] = 1;
        main_flops_.push_back(net);
    }
}

Bits
ParSimulationTool::readNet(int net) const
{
    return replicaFor(net).read(net);
}

Bits
ParSimulationTool::read(const Signal &sig) const
{
    return replicaFor(sig.netId()).read(sig.netId());
}

void
ParSimulationTool::write(Signal &sig, const Bits &value)
{
    int net = sig.netId();
    if (tls_island >= 0) {
        // Comb lambda on a worker: writes are declared, so the push
        // lists already publish them; change detection is not needed
        // under static scheduling.
        replicas_[tls_island]->write(net, value);
        return;
    }
    // Coordinator (test bench or tick lambda): keep every replica
    // coherent so any reader island sees the value next phase.
    bool changed = replicaFor(net).write(net, value);
    for (auto &replica : replicas_)
        replica->write(net, value);
    if (changed)
        dirty_ = true;
}

void
ParSimulationTool::writeNext(Signal &sig, const Bits &value)
{
    int net = sig.netId();
    if (tls_island >= 0) {
        replicas_[tls_island]->writeNext(net, value);
        return;
    }
    for (auto &replica : replicas_)
        replica->writeNext(net, value);
    if (!static_island_flop_[net])
        markMainFlop(net);
    // The net is flopped now (by its owner island, or by flopMainNets
    // from the home replica), so later non-blocking writes may store
    // the home replica's next-phase word directly.
    if (sig.slotBound() && sig.access() == this)
        sig.bindNextSlot(replicas_[0]->wordsPerPhase());
}

// ------------------------------------------- SimSnap state capture

Bits
ParSimulationTool::readNetNext(int net) const
{
    return accessor_.readNetNext(net);
}

void
ParSimulationTool::pokeNet(int net, const Bits &value)
{
    accessor_.pokeNet(net, value);
}

void
ParSimulationTool::pokeNetNext(int net, const Bits &value)
{
    accessor_.pokeNetNext(net, value);
}

std::vector<int>
ParSimulationTool::dynamicFlopNets() const
{
    return NetAccessor::dynamicFlops(*elab_, main_flops_);
}

void
ParSimulationTool::registerDynamicFlops(const std::vector<int> &nets)
{
    for (int net : nets)
        if (!static_island_flop_[net])
            markMainFlop(net);
}

Bits
ParSimulationTool::readArray(const MemArray &array, uint64_t index) const
{
    return replicas_[plan_.homeReplica(elab_->arrayToken(array.arrayId()))]
        ->arrayRead(array.arrayId(), index);
}

void
ParSimulationTool::writeArray(MemArray &array, uint64_t index,
                              const Bits &value)
{
    replicas_[plan_.homeReplica(elab_->arrayToken(array.arrayId()))]
        ->arrayWrite(array.arrayId(), index, value);
    dirty_ = true;
}

// ---------------------------------------------------------- factory

std::unique_ptr<Simulator>
makeSimulator(std::shared_ptr<Elaboration> elab, SimConfig cfg)
{
    if (cfg.threads <= 1)
        return std::make_unique<SimulationTool>(std::move(elab), cfg);
    return std::make_unique<ParSimulationTool>(std::move(elab), cfg);
}

} // namespace cmtl
