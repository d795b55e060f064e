#include "scope.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "psim.h"

namespace cmtl {

// --------------------------------------------------- ScopeHistogram

void
ScopeHistogram::record(uint64_t value)
{
    int idx = 0;
    if (value > 0) {
        idx = 64 - __builtin_clzll(value); // 1 + floor(log2(value))
        if (idx > 64)
            idx = 64;
    }
    ++counts_[idx];
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

std::vector<uint64_t>
ScopeHistogram::buckets() const
{
    int top = -1;
    for (int i = 0; i < 65; ++i) {
        if (counts_[i])
            top = i;
    }
    return std::vector<uint64_t>(counts_, counts_ + top + 1);
}

// ----------------------------------------------------------- SimScope

/**
 * Hook-shared state: the per-cycle channel sampler captures a
 * shared_ptr to this, so the hook stays safe (and inert) after the
 * SimScope object is detached or destroyed.
 */
struct SimScope::State
{
    Simulator *sim = nullptr;
    bool attached = true;
    uint64_t cycles = 0;
    std::vector<ChannelStats> channels;
};

namespace {

void
sampleChannel(const Simulator &sim, SimScope::ChannelStats &ch)
{
    bool val = sim.readNet(ch.val_net).any();
    bool rdy = sim.readNet(ch.rdy_net).any();
    ++ch.cycles;
    if (!val) {
        ++ch.idle_cycles;
        ch.pending_age = 0;
        return;
    }
    if (rdy) {
        ++ch.transfers;
        ch.latency.record(ch.pending_age);
        ch.pending_age = 0;
    } else {
        ++ch.stall_cycles;
        ++ch.pending_age;
    }
}

} // namespace

SimScope::SimScope(Simulator &sim, Options opt)
    : sim_(sim), state_(std::make_shared<State>())
{
    state_->sim = &sim;
    probe_.exact = opt.timing == Timing::Exact;
    probe_.sample_period = std::max<uint32_t>(1, opt.sample_period);

    const size_t nblocks = sim.elaboration().blocks.size();
    probe_.block_seconds.assign(nblocks, 0.0);
    probe_.block_calls.assign(nblocks, 0);
    probe_.until_sample.assign(nblocks, probe_.sample_period);

    if (const auto *par = dynamic_cast<const ParSimulationTool *>(&sim)) {
        parsim_ = true;
        const size_t n =
            static_cast<size_t>(par->plan().nislands);
        probe_.island_settle_seconds.assign(n, 0.0);
        probe_.island_tick_seconds.assign(n, 0.0);
        probe_.island_flop_seconds.assign(n, 0.0);
        probe_.island_barrier_seconds.assign(n, 0.0);
        probe_.island_boundary_bytes.assign(n, 0);
    }

    sim.attachScope(&probe_);
    sim.onCycleEnd([state = state_](uint64_t) {
        if (!state->attached)
            return;
        ++state->cycles;
        for (ChannelStats &ch : state->channels)
            sampleChannel(*state->sim, ch);
    });
}

SimScope::~SimScope()
{
    detach();
}

void
SimScope::detach()
{
    if (!state_->attached)
        return;
    state_->attached = false;
    if (sim_.scopeProbe() == &probe_)
        sim_.attachScope(nullptr);
}

bool
SimScope::attached() const
{
    return state_->attached;
}

uint64_t
SimScope::cycles() const
{
    return state_->cycles;
}

void
SimScope::traceValRdy(const std::string &name, const Signal &msg,
                      const Signal &val, const Signal &rdy)
{
    ChannelStats ch;
    ch.name = name;
    ch.msg_net = msg.netId();
    ch.val_net = val.netId();
    ch.rdy_net = rdy.netId();
    state_->channels.push_back(std::move(ch));
}

int
SimScope::traceAllValRdy()
{
    // Connected endpoints (e.g. a queue's deq and the next router's
    // in_) share one net triple; trace each triple once, under the
    // first model in pre-order (the shallowest/owning scope).
    std::set<std::tuple<int, int, int>> seen;
    for (const ChannelStats &ch : state_->channels)
        seen.insert({ch.msg_net, ch.val_net, ch.rdy_net});

    int traced = 0;
    for (const Model *model : sim_.elaboration().models) {
        std::map<std::string, const Signal *> byName;
        for (const Signal *sig : model->ownSignals())
            byName[sig->name()] = sig;
        for (const auto &[name, val] : byName) {
            if (name.size() <= 4 ||
                name.compare(name.size() - 4, 4, "_val") != 0)
                continue;
            std::string prefix = name.substr(0, name.size() - 4);
            auto msg = byName.find(prefix + "_msg");
            auto rdy = byName.find(prefix + "_rdy");
            if (msg == byName.end() || rdy == byName.end())
                continue;
            std::tuple<int, int, int> key{msg->second->netId(),
                                          val->netId(),
                                          rdy->second->netId()};
            if (!seen.insert(key).second)
                continue;
            traceValRdy(model->fullName() + "." + prefix, *msg->second,
                        *val, *rdy->second);
            ++traced;
        }
    }
    return traced;
}

const std::vector<SimScope::ChannelStats> &
SimScope::channels() const
{
    return state_->channels;
}

std::vector<SimScope::BlockCost>
SimScope::hotBlocks(size_t n) const
{
    const auto &blocks = sim_.elaboration().blocks;
    std::vector<int> order;
    for (size_t i = 0; i < probe_.block_calls.size(); ++i) {
        if (probe_.block_calls[i])
            order.push_back(static_cast<int>(i));
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return probe_.block_seconds[a] > probe_.block_seconds[b];
    });
    if (order.size() > n)
        order.resize(n);

    std::vector<BlockCost> out;
    out.reserve(order.size());
    for (int idx : order) {
        BlockCost cost;
        cost.path = blocks[idx].name;
        cost.seconds = probe_.block_seconds[idx];
        cost.calls = probe_.block_calls[idx];
        out.push_back(std::move(cost));
    }
    return out;
}

std::vector<SimScope::KernelCost>
SimScope::hotKernels(size_t n) const
{
    const Elaboration &elab = sim_.elaboration();
    std::vector<KernelCost> out;
    std::vector<int> of_shape(elab.irShapes.size(), -1);
    std::map<std::string, int> of_lambda;
    for (size_t i = 0; i < probe_.block_calls.size(); ++i) {
        if (!probe_.block_calls[i])
            continue;
        const ElabBlock &blk = elab.blocks[i];
        std::string name = blk.model->typeName() +
                           blk.name.substr(blk.name.rfind('.'));
        int &at = blk.shape >= 0 ? of_shape[blk.shape]
                                 : of_lambda.try_emplace(name, -1)
                                       .first->second;
        if (at < 0) {
            at = static_cast<int>(out.size());
            out.push_back({std::move(name)});
        }
        KernelCost &k = out[at];
        ++k.lanes;
        k.seconds += probe_.block_seconds[i];
        k.calls += probe_.block_calls[i];
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const KernelCost &a, const KernelCost &b) {
                         return a.seconds > b.seconds;
                     });
    if (out.size() > n)
        out.resize(n);
    return out;
}

SimScope::PhaseBreakdown
SimScope::phaseBreakdown() const
{
    PhaseBreakdown pb;
    if (parsim_) {
        pb.nislands =
            static_cast<int>(probe_.island_settle_seconds.size());
        for (int i = 0; i < pb.nislands; ++i) {
            pb.settle_seconds += probe_.island_settle_seconds[i];
            pb.tick_seconds += probe_.island_tick_seconds[i];
            pb.flop_seconds += probe_.island_flop_seconds[i];
            pb.barrier_seconds += probe_.island_barrier_seconds[i];
            pb.boundary_bytes += probe_.island_boundary_bytes[i];
        }
    } else {
        pb.settle_seconds = probe_.settle_seconds;
        pb.tick_seconds = probe_.tick_seconds;
        pb.flop_seconds = probe_.flop_seconds;
    }
    return pb;
}

namespace {

/** One island's phase split (the sequential kernel is one island). */
Json
islandJson(double settle, double tick, double flop, double barrier,
           uint64_t boundary_bytes)
{
    return Json::object()
        .set("compute_seconds", Json::number(settle + tick + flop))
        .set("settle_seconds", Json::number(settle))
        .set("tick_seconds", Json::number(tick))
        .set("flop_seconds", Json::number(flop))
        .set("barrier_seconds", Json::number(barrier))
        .set("boundary_bytes", Json::number(boundary_bytes));
}

Json
histogramJson(const ScopeHistogram &h)
{
    Json buckets = Json::array();
    for (uint64_t n : h.buckets())
        buckets.push(Json::number(n));
    return Json::object()
        .set("count", Json::number(h.count()))
        .set("sum", Json::number(h.sum()))
        .set("min", Json::number(h.min()))
        .set("max", Json::number(h.max()))
        .set("mean", Json::number(h.mean()))
        .set("buckets", std::move(buckets));
}

} // namespace

Json
SimScope::snapshot() const
{
    const LayoutStats lay = sim_.layoutStats();
    const PhaseBreakdown pb = phaseBreakdown();
    Json islands = Json::array();
    if (parsim_) {
        for (int i = 0; i < pb.nislands; ++i)
            islands.push(islandJson(probe_.island_settle_seconds[i],
                                    probe_.island_tick_seconds[i],
                                    probe_.island_flop_seconds[i],
                                    probe_.island_barrier_seconds[i],
                                    probe_.island_boundary_bytes[i]));
    } else {
        islands.push(islandJson(pb.settle_seconds, pb.tick_seconds,
                                pb.flop_seconds, 0.0, 0));
    }
    Json blocks = Json::array();
    for (const BlockCost &b : hotBlocks(20))
        blocks.push(Json::object()
                        .set("path", Json::string(b.path))
                        .set("seconds", Json::number(b.seconds))
                        .set("calls", Json::number(b.calls)));
    Json kernels = Json::array();
    for (const KernelCost &k : hotKernels(20))
        kernels.push(Json::object()
                         .set("name", Json::string(k.name))
                         .set("lanes", Json::number(k.lanes))
                         .set("seconds", Json::number(k.seconds))
                         .set("calls", Json::number(k.calls)));
    Json channels = Json::array();
    for (const ChannelStats &ch : state_->channels)
        channels.push(Json::object()
                          .set("name", Json::string(ch.name))
                          .set("transfers", Json::number(ch.transfers))
                          .set("stall_cycles", Json::number(ch.stall_cycles))
                          .set("idle_cycles", Json::number(ch.idle_cycles))
                          .set("occupancy", Json::number(ch.occupancy()))
                          .set("latency", histogramJson(ch.latency)));
    // The C++ backends' code generation and compile costs, under the
    // names perfbench's METRICS.md gives them (codegen reads 0 on a
    // backend that emits no C++).
    const SpecStats &spec = sim_.specStats();
    Json jit = Json::object();
    jit.set("ir_cpp.codegen_s",
            Json::number(spec.emittedTuBytes ? spec.codegenSeconds : 0.0));
    jit.set("jit_cpp.compile_s", Json::number(spec.compileSeconds));
    jit.set("jit_cpp.cache_hit", Json::number(spec.cacheHit ? 1 : 0));
    if (spec.tiered) {
        // -1 while the bytecode tier still runs, else the cycle the
        // native kernels went live at.
        jit.set("jit_cpp.swap_cycle",
                Json::number(static_cast<double>(spec.tierSwapCycle)));
    }

    return Json::object()
        .set("scope_version", Json::number(5))
        .set("kernel", Json::string(parsim_ ? "parsim" : "sequential"))
        // Same canonical string SimConfig round-trips and
        // simulatorReport prints.
        .set("backend", Json::string(sim_.config().toString()))
        .set("timing", Json::string(probe_.exact ? "exact" : "sampled"))
        .set("cycles", Json::number(cycles()))
        .set("layout",
             Json::object()
                 .set("words_per_phase", Json::number(lay.words_per_phase))
                 .set("flop_memcpy_ranges",
                      Json::number(lay.flop_memcpy_ranges)))
        .set("phases",
             Json::object()
                 .set("settle_seconds", Json::number(pb.settle_seconds))
                 .set("tick_seconds", Json::number(pb.tick_seconds))
                 .set("flop_seconds", Json::number(pb.flop_seconds))
                 .set("barrier_seconds", Json::number(pb.barrier_seconds))
                 .set("boundary_bytes", Json::number(pb.boundary_bytes))
                 .set("islands", std::move(islands)))
        .set("blocks", std::move(blocks))
        .set("kernels", std::move(kernels))
        .set("channels", std::move(channels))
        .set("jit", std::move(jit));
}

std::string
SimScope::report(size_t nblocks) const
{
    std::ostringstream os;
    os << "SimScope: " << cycles() << " cycles profiled, "
       << (probe_.exact ? "exact" : "sampled") << " timing\n";

    PhaseBreakdown pb = phaseBreakdown();
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  phases: settle %.4fs  tick %.4fs  flop %.4fs",
                  pb.settle_seconds, pb.tick_seconds, pb.flop_seconds);
    os << buf;
    if (parsim_) {
        std::snprintf(buf, sizeof(buf), "  barrier %.4fs",
                      pb.barrier_seconds);
        os << buf;
    }
    os << "\n";
    if (parsim_) {
        for (int i = 0; i < pb.nislands; ++i) {
            std::snprintf(
                buf, sizeof(buf),
                "  island %d: compute %.4fs  barrier %.4fs  boundary "
                "%llu B\n",
                i,
                probe_.island_settle_seconds[i] +
                    probe_.island_tick_seconds[i] +
                    probe_.island_flop_seconds[i],
                probe_.island_barrier_seconds[i],
                static_cast<unsigned long long>(
                    probe_.island_boundary_bytes[i]));
            os << buf;
        }
    }

    double total = 0.0;
    for (double s : probe_.block_seconds)
        total += s;
    const std::vector<KernelCost> kernels = hotKernels(nblocks);
    os << "  hot kernel types (self time, summed over lanes):\n";
    for (size_t i = 0; i < kernels.size(); ++i) {
        std::snprintf(buf, sizeof(buf),
                      "  %3zu. %10.6fs %5.1f%% %10llu calls %5d lanes  "
                      "%s\n",
                      i + 1, kernels[i].seconds,
                      total > 0 ? 100.0 * kernels[i].seconds / total : 0.0,
                      static_cast<unsigned long long>(kernels[i].calls),
                      kernels[i].lanes, kernels[i].name.c_str());
        os << buf;
    }

    std::vector<BlockCost> hot = hotBlocks(nblocks);
    os << "  hot blocks (self time):\n";
    for (size_t i = 0; i < hot.size(); ++i) {
        std::snprintf(buf, sizeof(buf),
                      "  %3zu. %10.6fs %5.1f%% %10llu calls  %s\n",
                      i + 1, hot[i].seconds,
                      total > 0 ? 100.0 * hot[i].seconds / total : 0.0,
                      static_cast<unsigned long long>(hot[i].calls),
                      hot[i].path.c_str());
        os << buf;
    }

    if (!state_->channels.empty()) {
        os << "  channels:\n";
        for (const ChannelStats &ch : state_->channels) {
            std::snprintf(
                buf, sizeof(buf),
                "    %-40s %8llu xfers %8llu stalls  occ %.2f  avg "
                "wait %.2f\n",
                ch.name.c_str(),
                static_cast<unsigned long long>(ch.transfers),
                static_cast<unsigned long long>(ch.stall_cycles),
                ch.occupancy(), ch.latency.mean());
            os << buf;
        }
    }
    return os.str();
}

} // namespace cmtl
