#include "psim.h"

#include <algorithm>
#include <cstring>
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

    // Per-island flop copy plans: an island's owned static flops
    // coalesce into whole-word ranges (disjoint across islands by
    // ownership, since a net never shares a word).
    island_flop_plans_.reserve(plan_.nislands);
    for (int i = 0; i < plan_.nislands; ++i)
        island_flop_plans_.push_back(
            replicas_[0]->flopPlan(plan_.islands[i].flopNets));

    // The coordinator's flop plan: nets only tick lambdas write, per
    // home replica.
    std::vector<std::vector<int>> by_home(replicas_.size());
    for (const Net &net : elab_->nets) {
        if (lambda_writer_[net.id] && !net.floppedStatic)
            by_home[plan_.homeReplica(net.id)].push_back(net.id);
    }
    for (const std::vector<int> &nets : by_home)
        main_flop_plans_.push_back(replicas_[0]->flopPlan(nets));

    bindSignals();
    buildIslandSchedules();
    startWorkers();
    recordCreate(sw.elapsed());
}

ParSimulationTool::~ParSimulationTool()
{
    shutdownWorkers();
}

void
ParSimulationTool::bindSignals()
{
    // Worker threads run comb lambdas against their own replica, so
    // the signals those touch stay on the virtual path; the rest are
    // read and non-blockingly written only by the coordinator, which
    // addresses each net in its home replica. The tick lambdas'
    // declared nets take their next-phase word there too.
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
        if (!home.narrow(net) || island_lambda[net])
            continue;
        sig->bindSlot(home.data() + home.offset(net));
        bindLambdaNext(*sig, home.wordsPerPhase());
    }
}

void
ParSimulationTool::buildIslandSchedules()
{
    const auto &blocks = elab_->blocks;
    const int n = plan_.nislands;
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

    // Each push list takes a token once: seen[token] holds the number
    // of the last list that took it.
    std::vector<int> seen(elab_->nets.size() + elab_->arrays.size(), -1);
    int list = 0;
    auto once = [&](int token) {
        if (seen[token] == list)
            return false;
        seen[token] = list;
        return true;
    };

    // comb[island][level]: the island's comb blocks of each superstep.
    std::vector<std::vector<std::vector<int>>> comb(
        n, std::vector<std::vector<int>>(plan_.nlevels));
    for (int i = 0; i < n; ++i) {
        const PartitionIsland &isl = plan_.islands[i];
        for (size_t k = 0; k < isl.combBlocks.size(); ++k)
            comb[i][isl.combLevels[k]].push_back(isl.combBlocks[k]);

        // Comb pushes, deduplicated per (level, token).
        for (int lvl = 0; lvl < plan_.nlevels; ++lvl, ++list) {
            for (int b : comb[i][lvl]) {
                for (int t : blocks[b].writes) {
                    if (once(t))
                        pushTargets(t, i, comb_pushes_[i][lvl]);
                }
            }
        }

        // Flop pushes: post-flop values of owned flopped nets, plus
        // nets this island's tick blocks write blockingly (a tick
        // write to a net that is not statically flopped mutates the
        // current value directly).
        for (int t : isl.flopNets) {
            if (once(t))
                pushTargets(t, i, flop_pushes_[i]);
        }
        for (int b : isl.tickBlocks) {
            for (int t : blocks[b].writes) {
                if (t < static_cast<int>(elab_->nets.size()) &&
                    !elab_->nets[t].floppedStatic && once(t))
                    pushTargets(t, i, flop_pushes_[i]);
            }
        }
        ++list;

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

    // Each settle level is scheduled apart (the push points between
    // levels are immovable), and the tick list as one sequence. One
    // shared program per block type: every island runs it against its
    // own replica's data pointer, with a frame of its own.
    specialize(replicas_[0].get(), n, [&] {
        comb_steps_.assign(n, {});
        tick_steps_.assign(n, {});
        for (int i = 0; i < n; ++i) {
            for (const std::vector<int> &seq : comb[i])
                comb_steps_[i].push_back(batchSteps(seq));
            tick_steps_[i] = batchSteps(plan_.islands[i].tickBlocks);
        }
    });
}

LayoutStats
ParSimulationTool::layoutStats() const
{
    LayoutStats s;
    s.words_per_phase = replicas_[0]->wordsPerPhase();
    for (const auto &ranges : island_flop_plans_)
        s.flop_memcpy_ranges += static_cast<int>(ranges.size());
    for (const auto &ranges : main_flop_plans_)
        s.flop_memcpy_ranges += static_cast<int>(ranges.size());
    s.slot_bound_signals = slotBoundSignals();
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
    // A lambda that throws still meets the workers at the done
    // barrier; its error wins over a worker's.
    std::exception_ptr err;
    try {
        if (cmd == Cmd::Tick) {
            // Tick lambdas always run here, in declaration order:
            // sequential semantics by construction.
            for (int b : plan_.lambdaTicks)
                runTickLambda(b);
        } else if (cmd == Cmd::Flop) {
            flopMainNets();
        }
    } catch (...) {
        err = std::current_exception();
    }
    bar_all_.arriveAndWait(); // done
    if (failed_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(error_mu_);
        failed_.store(false, std::memory_order_relaxed);
        if (!err)
            err = worker_error_;
        worker_error_ = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

void
ParSimulationTool::flopMainNets()
{
    // A lambda flop's next value is current in its home replica (a
    // slot-bound setNext stores only there): flop it there, then copy
    // the new current words into every other replica. These nets are
    // disjoint from every island's flop and push targets. Both steps
    // copy whole-word ranges.
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
ParSimulationTool::runStep(int island, const Step &step)
{
    // Per-block counters are written only by the executing island's
    // worker (each block belongs to exactly one island), so the probe
    // needs no synchronization here. A batch times itself (runBatch).
    if (step.batch >= 0) {
        runBatch(step.batch, replicas_[island]->data(), frame(island));
        return;
    }
    // A comb lambda runs its host code here; its signal accesses take
    // the virtual path to this island's replica.
    const ElabBlock &blk = elab_->blocks[step.block];
    runTimed(step.block, [&] {
        if (blk.ir)
            evals_[island]->run(blk);
        else
            blk.fn();
    });
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
    for (int lvl = 0; lvl < plan_.nlevels; ++lvl) {
        for (const Step &step : comb_steps_[island][lvl])
            runStep(island, step);
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
    for (const Step &step : tick_steps_[island])
        runStep(island, step);
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

// ----------------------------------------------------- signal access

ArenaStore &
ParSimulationTool::replicaFor(int net) const
{
    return *replicas_[tls_island >= 0 ? tls_island : plan_.homeReplica(net)];
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
    if (tls_island >= 0) {
        // Comb lambda on a worker: writes are declared, so the push
        // lists already publish them; change detection is not needed
        // under static scheduling.
        replicas_[tls_island]->write(sig.netId(), value);
        return;
    }
    pokeNet(sig.netId(), value);
}

void
ParSimulationTool::writeNext(Signal &sig, const Bits &value)
{
    // Tick lambdas run on the coordinator only, so a worker's write
    // (a comb lambda's) fails the check too.
    checkDeclaredWrite(sig);
    pokeNetNext(sig.netId(), value);
}

// ------------------------------------------- SimSnap state capture

Bits
ParSimulationTool::readNetNext(int net) const
{
    return replicas_[plan_.homeReplica(net)]->readNext(net);
}

void
ParSimulationTool::pokeNet(int net, const Bits &value)
{
    // Coordinator (test bench, tick lambda or restore): keep every
    // replica coherent so any reader island sees the value next phase;
    // change detection runs against the home copy.
    const bool changed = replicas_[plan_.homeReplica(net)]->write(net, value);
    for (auto &replica : replicas_)
        replica->write(net, value);
    if (changed)
        dirty_ = true;
}

void
ParSimulationTool::pokeNetNext(int net, const Bits &value)
{
    // Only the home replica's next word is ever flopped: islands flop
    // their owned nets in their own replica, and flopMainNets flops
    // the lambda nets at home.
    replicas_[plan_.homeReplica(net)]->writeNext(net, value);
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
