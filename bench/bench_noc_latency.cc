/**
 * @file
 * NoC latency vs. offered load across traffic patterns.
 *
 * Sweeps the mesh network (CL IR subset, so every backend can run it)
 * over offered loads for each spatial/temporal traffic pattern and
 * records average generation-to-ejection latency plus accepted
 * throughput. The classic NoC picture falls out: uniform and
 * bit-complement saturate late, tornado saturates early (half-mesh
 * hops fight dimension-ordered routing), hotspot collapses onto the
 * congested node, and bursty tracks uniform in volume while paying a
 * latency premium for its on/off clumping.
 *
 * Writes BENCH_noc_latency.json (schema-gated in CI).
 */

#include <algorithm>

#include "common.h"
#include "net/traffic.h"

namespace {

using namespace cmtl;
using namespace cmtl::bench;
using namespace cmtl::net;

struct Point
{
    double injection = 0.0;
    double avg_latency = 0.0;
    double max_latency = 0.0;
    double throughput = 0.0;  //!< received / terminal / cycle
    double accepted = 0.0;    //!< injected / generated (1.0 unsaturated)
};

Point
measurePoint(int nrouters, int nentries, double injection, uint64_t seed,
             TrafficPattern pattern, const SimConfig &cfg,
             uint64_t warmup, uint64_t measure)
{
    MeshTrafficTop top("top", NetLevel::CLSpec, nrouters, nentries,
                       injection, seed, pattern);
    auto elab = top.elaborate();
    SimulationTool sim(elab, cfg);
    sim.cycle(warmup);
    top.resetStats();
    sim.cycle(measure);

    const NetStats &st = top.stats();
    Point p;
    p.injection = injection;
    p.avg_latency = st.avgLatency();
    p.max_latency = static_cast<double>(st.latency_max);
    p.throughput = st.throughput(top.numTerminals());
    // Clamped: messages generated before resetStats() can be accepted
    // after it, nudging the windowed ratio a hair above 1 when the
    // network is keeping up.
    p.accepted = st.generated
                     ? std::min(1.0, static_cast<double>(st.injected) /
                                         static_cast<double>(st.generated))
                     : 1.0;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    SimOptions opts = SimOptions::parse(argc, argv);
    bool full = opts.full;

    int nrouters = full ? 64 : 16;
    int nentries = 4;
    uint64_t seed = opts.seed_set ? opts.seed : 7;
    uint64_t warmup = full ? 1000 : 500;
    uint64_t measure = full ? 8000 : 2000;

    std::vector<double> loads = {0.02, 0.10, 0.20, 0.30, 0.40};
    if (full)
        loads = {0.02, 0.05, 0.10, 0.15, 0.20, 0.25,
                 0.30, 0.35, 0.40, 0.45};

    std::vector<TrafficPattern> patterns = allTrafficPatterns();
    if (!opts.traffic.empty()) {
        TrafficPattern one;
        if (!trafficPatternFromName(opts.traffic, &one)) {
            std::fprintf(stderr, "unknown traffic pattern '%s'\n",
                         opts.traffic.c_str());
            return 2;
        }
        patterns = {one};
    }

    std::printf("NoC latency vs offered load, %d-node CL mesh "
                "(seed %llu)\n",
                nrouters, static_cast<unsigned long long>(seed));

    Json json = Json::object();
    json.set("bench", Json::string("noc_latency"));
    hostFields(json);
    json.set("nrouters", Json::number(nrouters));
    json.set("nentries", Json::number(nentries));
    json.set("seed", Json::number(seed));
    json.set("warmup_cycles", Json::number(warmup));
    json.set("measure_cycles", Json::number(measure));
    json.set("full", Json::boolean(full));
    Json pattern_rows = Json::array();

    for (TrafficPattern pattern : patterns) {
        rule('=');
        std::printf("%s\n", trafficPatternName(pattern));
        rule('=');
        std::printf("%10s %14s %14s %12s %10s\n", "offered", "avg lat",
                    "max lat", "throughput", "accepted");

        Json points = Json::array();

        for (double load : loads) {
            Point p = measurePoint(nrouters, nentries, load, seed,
                                   pattern, opts.cfg, warmup, measure);
            std::printf("%9.0f%% %14.2f %14.0f %12.4f %9.0f%%\n",
                        p.injection * 100, p.avg_latency, p.max_latency,
                        p.throughput, p.accepted * 100);
            std::fflush(stdout);

            points.push(Json::object()
                            .set("injection", Json::number(p.injection))
                            .set("avg_latency", Json::number(p.avg_latency))
                            .set("max_latency", Json::number(p.max_latency))
                            .set("throughput", Json::number(p.throughput))
                            .set("accepted", Json::number(p.accepted)));
        }
        pattern_rows.push(
            Json::object()
                .set("pattern", Json::string(trafficPatternName(pattern)))
                .set("points", std::move(points)));
    }
    json.set("patterns", std::move(pattern_rows));
    writeJson("BENCH_noc_latency.json", json);
    std::printf("wrote BENCH_noc_latency.json\n");
    return 0;
}
