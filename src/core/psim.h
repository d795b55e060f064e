/**
 * @file
 * ParSim: the bulk-synchronous parallel simulation kernel.
 *
 * ParSimulationTool runs a statically partitioned design (partition.h)
 * on a persistent pool of worker threads, one per island, coordinated
 * by the calling thread. Each island owns a full-size *replica* of the
 * dense word arena: every replica lays nets out in elaboration order —
 * identical offsets by construction — so bytecode and compiled-C++
 * programs run unchanged on any replica's data pointer, and a net
 * never shares a word, so whole-word boundary pushes stay sound.
 * Islands write only tokens they own and read everything from their
 * local replica; owners push boundary values into reader replicas at
 * phase ends, so all sharing is one-way word copies separated by
 * barriers.
 *
 * Cycle protocol (each parallel phase is fenced by a start and a done
 * barrier over all participants):
 *
 *   settle  - skipped when no external write is pending, like the
 *             sequential kernel. Runs the islands' levelized comb
 *             schedules as nlevels supersteps: superstep L executes
 *             every comb block whose longest cross-island dependency
 *             chain has length L, pushes the values written to
 *             cross-island readers, and joins a workers-only barrier.
 *   tick    - islands run their sequential IR blocks against their
 *             replicas; concurrently the coordinating thread runs every
 *             tick lambda (TickFl/TickCl) in declaration order. Ticks
 *             read current values and write next values, so the phase
 *             needs no internal synchronization.
 *   flop    - each island copies next->current for its owned flopped
 *             nets, then pushes post-flop values (and values written
 *             blockingly at tick time) to reader replicas; the
 *             coordinating thread flops the nets only tick lambdas
 *             declare in their home replica and copies them into every
 *             other. All targets are disjoint words.
 *   settle  - as above, always runs.
 *
 * Determinism: islands execute their blocks in the global static
 * schedule restricted to the island (batches reorder a level or the
 * tick list only where no hazard forbids it; see
 * Simulator::batchSteps in sim.h), values cross islands only at
 * barriers, and tick lambdas always run on one thread in declaration
 * order — so results are bit-identical to SimulationTool at any
 * thread count.
 * The one pattern outside the guarantee is a design whose tick
 * blocks communicate through *blocking* writes with a tick lambda
 * (already tick-order-fragile sequentially); blocking communication
 * between IR tick blocks is detected and the blocks are co-located.
 *
 * Signals: the coordinating thread reads each net from its home
 * replica (the owner island's, or replica 0), so narrow signals are
 * slot-bound to that replica's words (signal.h), and a tick lambda's
 * declared ones to its next-phase words too. Signals a comb lambda
 * touches stay on the virtual path, which resolves to the calling
 * worker's own replica.
 *
 * Requires an arena-hosted backend (optinterp, bytecode, cpp-block or
 * cpp-design; the boxed interp and interp+* hosts are rejected) and a
 * statically schedulable design (no combinational cycles).
 */

#ifndef CMTL_CORE_PSIM_H
#define CMTL_CORE_PSIM_H

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "partition.h"
#include "sim.h"

namespace cmtl {

/**
 * Sense-reversing spin barrier (with yield fallback). Worker counts
 * are small (one per island), so spinning through the short exchange
 * windows is cheaper than parking on a futex every superstep.
 */
class SpinBarrier
{
  public:
    explicit SpinBarrier(int nthreads) : nthreads_(nthreads) {}

    void
    arriveAndWait()
    {
        uint64_t phase = phase_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            nthreads_) {
            arrived_.store(0, std::memory_order_relaxed);
            phase_.fetch_add(1, std::memory_order_acq_rel);
        } else {
            int spins = 0;
            while (phase_.load(std::memory_order_acquire) == phase) {
                if (++spins > 4096)
                    std::this_thread::yield();
            }
        }
    }

  private:
    std::atomic<int> arrived_{0};
    std::atomic<uint64_t> phase_{0};
    const int nthreads_;
};

/**
 * The parallel bulk-synchronous simulator. Drop-in replacement for
 * SimulationTool behind the Simulator interface; construct directly or
 * through makeSimulator() with cfg.threads > 1.
 */
class ParSimulationTool : public Simulator
{
  public:
    explicit ParSimulationTool(std::shared_ptr<Elaboration> elab,
                               SimConfig cfg = SimConfig{});
    ~ParSimulationTool() override;

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

    /** The partition this simulator runs (for quality reporting). */
    const PartitionPlan &plan() const { return plan_; }

  private:
    enum class Cmd { Settle, Tick, Flop, Exit };

    /** Boundary word copy: cur words [off, off+n) into replica dst. */
    struct CopyOp
    {
        int dst;
        int off;
        int n;
    };

    void settle() override { runPhase(Cmd::Settle); }
    void tick() override { runPhase(Cmd::Tick); }
    void flop() override { runPhase(Cmd::Flop); }
    void buildIslandSchedules();
    void startWorkers();
    void shutdownWorkers();
    void workerLoop(int island);
    void runPhase(Cmd cmd);
    void runStep(int island, const Step &step);
    void runIslandSettle(int island);
    void runIslandTick(int island);
    void runIslandFlop(int island);
    void pushCur(int island, const CopyOp &op);

    void bindSignals();
    void flopMainNets();
    ArenaStore &replicaFor(int net) const;

    PartitionPlan plan_;
    std::vector<std::unique_ptr<ArenaStore>> replicas_;
    std::vector<std::unique_ptr<SlotEvaluator>> evals_;
    /** Per-island flop phase coalesced into whole-word copy ranges
     *  (identical offsets, so ranges are valid in every replica). */
    std::vector<std::vector<FlopRange>> island_flop_plans_;

    // Per-island schedules: comb_steps_[island][level] runs in settle
    // superstep level. Specialization (Simulator::specialize) is
    // shared read-only across islands: slot tables and kernel rows
    // hold absolute arena offsets, identical in every replica, and
    // each island runs batches with its own frame. The cpp-design tier
    // swap (Simulator::maybeSwapTier) switches every island's batches
    // to their kernels on the coordinator, while every worker is
    // parked before a start barrier.
    std::vector<std::vector<std::vector<Step>>> comb_steps_;
    std::vector<std::vector<Step>> tick_steps_;
    /** comb_pushes_[island][level]: copies at the end of a superstep. */
    std::vector<std::vector<std::vector<CopyOp>>> comb_pushes_;
    /** flop_pushes_[island]: copies after the island's flops. */
    std::vector<std::vector<CopyOp>> flop_pushes_;

    /** Per home replica: the nets only tick lambdas write, which the
     *  coordinating thread flops, as word ranges. (Nets IR tick blocks
     *  write belong to their owner island's plan.) */
    std::vector<std::vector<FlopRange>> main_flop_plans_;

    // Thread pool and phase coordination.
    std::vector<std::thread> workers_;
    SpinBarrier bar_all_;     //!< workers + coordinator
    SpinBarrier bar_workers_; //!< workers only (settle supersteps)
    Cmd cmd_ = Cmd::Settle;   //!< written before the start barrier
    std::atomic<bool> failed_{false};
    std::exception_ptr worker_error_;
    std::mutex error_mu_;
};

/**
 * Construct the simulator cfg asks for: the sequential SimulationTool
 * when cfg.threads <= 1, the parallel ParSimulationTool otherwise.
 */
std::unique_ptr<Simulator> makeSimulator(std::shared_ptr<Elaboration> elab,
                                         SimConfig cfg = SimConfig{});

} // namespace cmtl

#endif // CMTL_CORE_PSIM_H
