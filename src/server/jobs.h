/**
 * @file
 * SimServer job scheduler: N concurrent simulation jobs multiplexed
 * over a bounded thread budget, with SimSnap-backed preemption.
 *
 * Every job owns its own model + elaboration + makeSimulator()
 * instance (one simulator may be live per elaboration, and traffic
 * parameters are baked into the model), so jobs are fully independent;
 * what they share is the resident process and the warm on-disk SimJIT
 * cache — the second job with the same design/backend pays no compile.
 *
 * Scheduling: shortest-remaining-cycles first over the queued set. A
 * budget unit is one OS thread. A sequential job costs one; a ParSim
 * job with cfg.threads = T runs T island threads plus its coordinator
 * and costs T + 1. A job asking for more than the budget holds runs
 * with the most threads that fit (sequentially when not even two
 * islands fit), so ParSim jobs and sequential jobs share one pool.
 * Preemption composes the two cooperative primitives grown for it:
 * Simulator::requestPause() stops the victim at the next cycle
 * boundary, snapSave() captures its complete architectural state into
 * memory, and the victim's slot (simulator, arena, JIT handles) is
 * torn down — the snapshot, not the simulator, waits in the queue.
 * When the job is picked again, a fresh simulator is built and
 * snapRestore()d; SimSnap's bit-identical guarantee makes a preempted
 * run's final digest equal to an unpreempted one's. Jobs writing VCD
 * waveforms or periodic checkpoints are never chosen as victims (a
 * fresh VcdWriter would restart their dump mid-file).
 *
 * States: Queued -> Running -> {Done, Failed, Cancelled}; a preempted
 * job returns to Queued with its snapshot in hand. cancel() works in
 * any non-terminal state and interrupts a running job at the next
 * cycle boundary via the same pause hook.
 */

#ifndef CMTL_SERVER_JOBS_H
#define CMTL_SERVER_JOBS_H

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/psim.h"
#include "core/sim.h"
#include "core/snap.h"

namespace cmtl {
namespace server {

enum class JobState { Queued, Running, Done, Failed, Cancelled };

const char *jobStateName(JobState s);

/** Everything a submit/sweep-point request pins down about one run. */
struct JobSpec
{
    std::string design = "mesh"; //!< registered corpus name
    std::string level = "rtl";   //!< abstraction level (mesh designs)
    /** Backend + threads + jit cache. */
    SimConfig cfg;
    uint64_t cycles = 1000; //!< run length (from cycle 0)
    // Traffic parameters (interpreted by the design factory).
    double injection = 0.30; //!< per-terminal injection rate [0, 1]
    uint64_t seed = 7;
    int nrouters = 16;
    bool profile = false; //!< attach SimScope, return its snapshot
    std::string vcd;      //!< server-side waveform path, "" = off
    /** Periodic checkpoint base path ("" = off); files are tagged
     *  with the job id so concurrent jobs never clobber each other. */
    std::string checkpoint;
    uint64_t checkpoint_every = 1000;
};

struct JobResult
{
    uint64_t cycles = 0;     //!< cycles actually simulated
    uint64_t digest = 0;     //!< stateDigest() at the final cycle
    double wall_ms = 0.0;    //!< run segments incl. build/restore
    std::string backend;     //!< canonical backend actually used
    std::string metrics_json; //!< SimScope snapshot when profiled
    std::string error;       //!< Failed: what went wrong
};

/** A point-in-time public view of one job. */
struct JobInfo
{
    int id = -1;
    JobState state = JobState::Queued;
    JobSpec spec;
    uint64_t cycle = 0;  //!< progress (live for running jobs)
    int preemptions = 0; //!< times checkpoint-preempted back to queue
    uint64_t owner = 0;  //!< submitting connection id, 0 = detached
    JobResult result;    //!< valid in terminal states
};

/** Builds the (unelaborated) top model a spec asks for. */
using DesignFactory =
    std::function<std::unique_ptr<Model>(const JobSpec &)>;

/**
 * Run one spec to completion in the calling thread. It builds the
 * simulator, attaches the side artifacts and fills the result through
 * the same steps a scheduler worker runs (one code path in jobs.cc),
 * so `sim_client oneshot` and the digest cross-checks compare
 * like-for-like against server runs. Its checkpoint files carry no
 * job tag.
 */
JobResult runOneShot(const JobSpec &spec, const DesignFactory &make);

class JobScheduler
{
  public:
    /**
     * @param thread_budget total concurrent OS threads for jobs (a
     *        job costs the OS threads its cfg.threads runs, after
     *        submit lowers cfg.threads to fit the budget)
     * @param queue_cap     max jobs waiting or running; submits beyond
     *        it are rejected, keeping the daemon's memory bounded
     * @param make_design   factory resolving spec.design (throws on
     *        unknown names; submit validates first via canBuild)
     */
    JobScheduler(int thread_budget, int queue_cap,
                 DesignFactory make_design);
    ~JobScheduler();
    JobScheduler(const JobScheduler &) = delete;
    JobScheduler &operator=(const JobScheduler &) = delete;

    /**
     * Enqueue a job. Returns its id, or -1 with *error set when the
     * queue is full or the spec is invalid. @p owner ties the job to a
     * client connection for reapOwner(); 0 = detached (survives
     * disconnect).
     */
    int submit(JobSpec spec, uint64_t owner, std::string *error);

    /** Cancel a job in any non-terminal state; false if terminal or
     *  unknown. Running jobs stop at the next cycle boundary. */
    bool cancel(int id);

    /** Snapshot of one job (@p id >= 0) or every job (-1). */
    std::vector<JobInfo> status(int id = -1) const;

    bool exists(int id) const;

    /** Block until @p id reaches a terminal state; returns its info.
     *  Throws std::invalid_argument for an unknown id. */
    JobInfo awaitResult(int id);

    /**
     * Block until one of @p ids is terminal and not yet claimed
     * through this call; returns that id, or -1 when all are claimed.
     * The completion-order stream behind the sweep verb.
     */
    int awaitAny(const std::vector<int> &ids);

    /** Cancel every non-terminal job owned by @p owner (client
     *  disconnect reaping); returns the number cancelled. */
    int reapOwner(uint64_t owner);

    /** Cancel everything and join the workers. Idempotent. */
    void stop();

    int threadBudget() const { return budget_total_; }
    int queueCapacity() const { return queue_cap_; }
    /** Total preemptions performed since construction. */
    int preemptionCount() const;

  private:
    struct Job
    {
        int id = -1;
        JobState state = JobState::Queued;
        JobSpec spec;
        uint64_t owner = 0;
        uint64_t cycle = 0;
        int preemptions = 0;
        bool claimed = false; //!< returned by awaitAny already
        bool cancel_requested = false;
        bool preempt_requested = false;
        /** Paused state of a preempted job awaiting resumption. */
        std::unique_ptr<SimSnapshot> snapshot;
        /** Published by the running worker for pause/progress. */
        Simulator *live = nullptr;
        JobResult result;
    };

    void workerLoop();
    /** Next admissible queued job (shortest remaining first). */
    std::shared_ptr<Job> pickLocked();
    void runJob(const std::shared_ptr<Job> &job);
    /** Budget units (OS threads) a job runs. */
    int costOf(const JobSpec &spec) const;
    /** The most threads, up to @p threads, whose cost fits the budget. */
    int threadsWithin(int threads) const;
    void maybePreemptLocked(const Job &incoming);
    static bool terminal(JobState s);
    static uint64_t remainingOf(const Job &job);

    const int budget_total_;
    const int queue_cap_;
    const DesignFactory make_design_;

    mutable std::mutex mu_;
    std::condition_variable cv_;      //!< queue/budget/state changes
    std::map<int, std::shared_ptr<Job>> jobs_;
    int next_id_ = 1;
    int budget_free_;
    int nonterminal_ = 0; //!< queued + running (queue-cap accounting)
    int preemptions_total_ = 0;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

} // namespace server
} // namespace cmtl

#endif // CMTL_SERVER_JOBS_H
