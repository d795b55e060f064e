/**
 * @file
 * SimServer sweep throughput: the simulation-as-a-service claim in
 * numbers.
 *
 * Drives the real daemon end-to-end — Unix socket, wire protocol,
 * scheduler, per-job elaboration — with batched sweeps of >= 100 grid
 * points and records jobs/min into BENCH_server_throughput.json for
 * 1, 2 and 4 concurrent jobs, cold vs warm SimJIT cache. The cold row
 * starts from an empty cache directory (the first jobs pay the
 * compile); the warm row reruns the identical sweep against the cache
 * the cold run left behind — the amortization a resident server
 * exists to provide. Every streamed digest is cross-checked against
 * an in-process one-shot baseline run on a different backend
 * (digest_mismatches must stay 0: the service returns exactly what a
 * CLI run would).
 *
 * Without a host compiler the sweep backend falls back to bytecode
 * (reported as jit_available=false) and cold/warm rows measure the
 * same thing; CI asserts warm > cold only when a compiler exists.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <map>

#include "common.h"
#include "core/jit_cpp.h"
#include "server/server.h"

namespace {

using namespace cmtl;
using namespace cmtl::bench;
using namespace cmtl::server;

struct SweepOutcome
{
    double wall_s = 0.0;
    int points = 0;
    int errors = 0;
    int mismatches = 0;
    int preemptions = 0;
};

/** Run one wire-protocol sweep and check digests against @p golden. */
SweepOutcome
runSweep(const std::string &socket, const std::vector<double> &grid,
         const std::string &backend, uint64_t cycles,
         const std::map<int, uint64_t> &golden)
{
    SweepOutcome out;
    ProtoClient client;
    client.connect(socket);

    Json req = Json::object();
    req.set("verb", Json::string("sweep"));
    req.set("level", Json::string("cl"));
    req.set("cycles", Json::number(cycles));
    Json injections = Json::array();
    for (double inj : grid)
        injections.push(Json::number(inj));
    req.set("injections", std::move(injections));
    Json backends = Json::array();
    backends.push(Json::string(backend));
    req.set("backends", std::move(backends));

    Stopwatch timer;
    client.send(req);
    client.readReply(); // header frame
    for (;;) {
        Json frame = client.readReply();
        if (frame.find("sweep_done")) {
            const Json *p = frame.find("preemptions");
            out.preemptions = p ? p->asInt() : 0;
            break;
        }
        if (!frame.find("ok") || !frame.find("ok")->b) {
            ++out.errors;
            continue;
        }
        ++out.points;
        int index = frame.find("index") ? frame.find("index")->asInt()
                                        : -1;
        auto it = golden.find(index);
        const Json *digest = frame.find("digest");
        if (it == golden.end() || !digest ||
            digest->asStr() != hexU64(it->second))
            ++out.mismatches;
    }
    out.wall_s = timer.elapsed();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    SimOptions opts = SimOptions::parse(argc, argv);
    const int sweep_points = opts.full ? 200 : 100;
    const uint64_t cycles = opts.cycles ? opts.cycles : 200;
    const bool jit = CppJit::compilerAvailable();
    const std::string backend = jit ? "cpp-block" : "bytecode";

    // Injection grid: sweep_points rates spread over (0, 0.5]. Every
    // point shares one elaboration *structure*, so one JIT compile
    // serves the whole grid — the amortization under test.
    std::vector<double> grid;
    for (int i = 1; i <= sweep_points; ++i)
        grid.push_back(0.5 * i / sweep_points);

    // One-shot baselines on a different backend (bit-identical by the
    // backend contract), keyed by grid index.
    std::printf("computing %d one-shot baseline digests...\n",
                sweep_points);
    std::map<int, uint64_t> golden;
    for (int i = 0; i < sweep_points; ++i) {
        JobSpec spec;
        spec.level = "cl";
        spec.cycles = cycles;
        spec.injection = grid[static_cast<size_t>(i)];
        golden[i] = runOneShot(spec, defaultCorpusFactory()).digest;
    }

    const std::string cache_dir =
        "/tmp/cmtl-bench-server-cache-" + std::to_string(::getpid());
    Json json = Json::object()
                    .set("bench", Json::string("server_throughput"))
                    .set("design", Json::string("mesh"))
                    .set("level", Json::string("cl"))
                    .set("nrouters", Json::number(16))
                    .set("cycles_per_job", Json::number(cycles))
                    .set("sweep_points", Json::number(sweep_points))
                    .set("backend", Json::string(backend))
                    .set("jit_available", Json::boolean(jit));
    hostFields(json);
    Json results = Json::array();

    std::printf("%6s %6s %10s %12s %10s %12s\n", "jobs", "cache",
                "wall_s", "jobs_per_min", "errors", "mismatches");
    bool all_clean = true;
    for (int jobs : {1, 2, 4}) {
        // A fresh cache directory makes the first sweep cold; the
        // second sweep on the same server reuses the published .so.
        std::string rm = "rm -rf " + cache_dir;
        if (std::system(rm.c_str()) != 0)
            std::fprintf(stderr, "warning: could not clear %s\n",
                         cache_dir.c_str());
        ::setenv("CMTL_JIT_CACHE", cache_dir.c_str(), 1);

        ServerConfig cfg;
        cfg.socket_path = "/tmp/cmtl-bench-server-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(jobs) + ".sock";
        cfg.jobs = jobs;
        cfg.queue_cap = 64; // < sweep_points: waves exercised
        SimServer server(cfg);
        server.registerDefaultCorpus();
        std::string error;
        if (!server.start(&error)) {
            std::fprintf(stderr, "cannot start server: %s\n",
                         error.c_str());
            return 1;
        }

        for (const char *cache : {"cold", "warm"}) {
            SweepOutcome res = runSweep(cfg.socket_path, grid, backend,
                                        cycles, golden);
            double jobs_per_min =
                res.wall_s > 0 ? res.points * 60.0 / res.wall_s : 0;
            std::printf("%6d %6s %10.2f %12.1f %10d %12d\n", jobs,
                        cache, res.wall_s, jobs_per_min, res.errors,
                        res.mismatches);
            all_clean = all_clean && res.errors == 0 &&
                        res.mismatches == 0 &&
                        res.points == sweep_points;
            results.push(
                Json::object()
                    .set("jobs", Json::number(jobs))
                    .set("cache", Json::string(cache))
                    .set("points_done", Json::number(res.points))
                    .set("errors", Json::number(res.errors))
                    .set("digest_mismatches", Json::number(res.mismatches))
                    .set("preemptions", Json::number(res.preemptions))
                    .set("wall_s", Json::number(res.wall_s))
                    .set("jobs_per_min", Json::number(jobs_per_min)));
        }
        server.stop();
    }
    json.set("results", std::move(results));
    writeJson("BENCH_server_throughput.json", json);
    std::string rm = "rm -rf " + cache_dir;
    if (std::system(rm.c_str()) != 0)
        std::fprintf(stderr, "warning: could not clear %s\n",
                     cache_dir.c_str());
    std::printf("wrote BENCH_server_throughput.json\n");
    return all_clean ? 0 : 1;
}
