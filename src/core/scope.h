/**
 * @file
 * SimScope: the CMTL observability layer.
 *
 * A user-style tool over the model/tool split (like VcdWriter and
 * ActivityTool): it attaches to a running simulator — either kernel —
 * and collects the measurements every perf argument needs to rest on:
 *
 *  - per-block self time (exact, or sampled one-out-of-N for lower
 *    overhead), ranked and mapped back to hierarchical model paths,
 *    and summed per kernel type (the blocks of one IR shape);
 *  - per-phase timing: settle/tick/flop on the sequential kernel,
 *    per-island compute + barrier-wait + boundary-exchange bytes on
 *    the bulk-synchronous ParSim kernel, so load imbalance and
 *    synchronization overhead become visible;
 *  - val/rdy channel tracing: transfers, occupancy, backpressure
 *    stall cycles and a waiting-latency histogram per channel;
 *  - one JSON snapshot of all of the above plus the backend's JIT
 *    costs, consumed by the benches (BENCH_*.json "metrics"
 *    sections), SimServer's profiled jobs and the examples'
 *    --profile=json flag.
 *
 * Overhead model: while detached the kernels pay one pointer test per
 * phase and per scheduled step (measured ≤2% on the Figure-14 RTL
 * mesh). While attached in exact mode every block execution brackets
 * two steady_clock reads; sampled mode reduces that to one out of
 * sample_period executions, scaling the recorded time accordingly.
 *
 * Lifetime: detach() (or destruction) must happen before the
 * simulator is destroyed. The per-cycle channel sampler stays
 * registered on the simulator but becomes inert after detach().
 */

#ifndef CMTL_CORE_SCOPE_H
#define CMTL_CORE_SCOPE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "json.h"
#include "sim.h"

namespace cmtl {

/**
 * Power-of-two-bucketed histogram: bucket 0 counts zeros, bucket k
 * counts values in [2^(k-1), 2^k - 1].
 */
class ScopeHistogram
{
  public:
    void record(uint64_t value);

    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }
    uint64_t min() const { return count_ ? min_ : 0; }
    uint64_t max() const { return max_; }
    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }
    /** Bucket counts, trimmed to the highest non-empty bucket. */
    std::vector<uint64_t> buckets() const;

  private:
    uint64_t counts_[65] = {};
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
    uint64_t min_ = ~0ull;
    uint64_t max_ = 0;
};

/** The profiling/metrics tool. One per simulator at a time. */
class SimScope
{
  public:
    enum class Timing { Exact, Sampled };

    struct Options
    {
        Timing timing = Timing::Exact;
        /** Sampled mode: time one out of this many block executions. */
        uint32_t sample_period = 64;
    };

    /** Attach to @p sim; collection starts immediately. */
    explicit SimScope(Simulator &sim) : SimScope(sim, Options{}) {}
    SimScope(Simulator &sim, Options opt);
    ~SimScope();
    SimScope(const SimScope &) = delete;
    SimScope &operator=(const SimScope &) = delete;

    /** Stop collecting and restore the kernel's fast path. */
    void detach();
    bool attached() const;

    /** Cycles observed while attached. */
    uint64_t cycles() const;

    // --- val/rdy channel tracing -----------------------------------

    /** Per-channel transaction statistics (sampled at cycle end). */
    struct ChannelStats
    {
        std::string name;
        int msg_net = -1;
        int val_net = -1;
        int rdy_net = -1;
        uint64_t cycles = 0;       //!< cycles observed
        uint64_t transfers = 0;    //!< val && rdy
        uint64_t stall_cycles = 0; //!< val && !rdy (backpressure)
        uint64_t idle_cycles = 0;  //!< !val
        /** Stalled cycles between val assertion and the transfer
         *  (0 = fired the cycle val rose). */
        ScopeHistogram latency;
        uint64_t pending_age = 0; //!< internal: current wait length

        /** Fraction of observed cycles with val asserted. */
        double
        occupancy() const
        {
            return cycles ? static_cast<double>(cycles - idle_cycles) /
                                static_cast<double>(cycles)
                          : 0.0;
        }
    };

    /** Trace one channel given its three endpoint signals. */
    void traceValRdy(const std::string &name, const Signal &msg,
                     const Signal &val, const Signal &rdy);

    /**
     * Discover and trace every val/rdy bundle in the design: any
     * <prefix>_msg/_val/_rdy signal triple on one model (the naming
     * contract of stdlib/valrdy.h). Connected endpoints share nets and
     * are traced once, under the shallowest model's name. Returns the
     * number of channels traced.
     */
    int traceAllValRdy();

    const std::vector<ChannelStats> &channels() const;

    // --- results ---------------------------------------------------

    /** One entry of the hot-block ranking. */
    struct BlockCost
    {
        std::string path; //!< hierarchical block name
        double seconds = 0.0;
        uint64_t calls = 0;
    };

    /** The @p n most expensive blocks by cumulative self time. */
    std::vector<BlockCost> hotBlocks(size_t n = 10) const;

    /**
     * One entry of the kernel-type ranking: the blocks of one IR shape,
     * which share one bytecode program and one native kernel, or the
     * lambda blocks of one model type and block name.
     */
    struct KernelCost
    {
        std::string name; //!< the first lane's typeName().block
        int lanes = 0;    //!< blocks of the type that ran
        double seconds = 0.0;
        uint64_t calls = 0; //!< block executions, summed over lanes
    };

    /**
     * The @p n most expensive kernel types by their blocks' summed self
     * time. On the bytecode and native tiers, where one block of a
     * 64-lane type reads a share too small to rank, this shows where
     * the time goes.
     */
    std::vector<KernelCost> hotKernels(size_t n = 10) const;

    /** Aggregated phase timing (either kernel). */
    struct PhaseBreakdown
    {
        double settle_seconds = 0.0;
        double tick_seconds = 0.0;
        double flop_seconds = 0.0;
        double barrier_seconds = 0.0;  //!< ParSim only
        uint64_t boundary_bytes = 0;   //!< ParSim only
        int nislands = 1;
    };
    PhaseBreakdown phaseBreakdown() const;

    /** Raw probe (per-island vectors etc.), always valid. */
    const ScopeProbe &probe() const { return probe_; }

    /**
     * Everything collected, as one JSON object: {"scope_version":5,
     * "kernel":..,"backend":..,"timing":..,"cycles":..,"layout":{..},
     * "phases":{..,"islands":[..]},"blocks":[..],"kernels":[..],
     * "channels":[..],"jit":{..}}. "jit" uses perfbench's METRICS.md
     * names.
     */
    Json snapshot() const;

    /** Human-readable report: phases, hot kernel types, hot blocks,
     *  channels. */
    std::string report(size_t nblocks = 10) const;

  private:
    struct State; //!< shared with the cycle hook (outlives the tool)

    Simulator &sim_;
    ScopeProbe probe_;
    std::shared_ptr<State> state_;
    bool parsim_ = false;
};

} // namespace cmtl

#endif // CMTL_CORE_SCOPE_H
