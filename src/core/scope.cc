#include "scope.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "psim.h"

namespace cmtl {

namespace {

/** JSON string escape (quotes included). */
void
jsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\';
        os << c;
    }
    os << '"';
}

/** Compact double formatting ("%.9g", no locale surprises). */
void
jsonNum(std::ostream &os, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    os << buf;
}

} // namespace

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

std::string
ScopeHistogram::toJson() const
{
    std::ostringstream os;
    os << "{\"count\":" << count_ << ",\"sum\":" << sum_
       << ",\"min\":" << min() << ",\"max\":" << max_ << ",\"mean\":";
    jsonNum(os, mean());
    os << ",\"buckets\":[";
    std::vector<uint64_t> b = buckets();
    for (size_t i = 0; i < b.size(); ++i)
        os << (i ? "," : "") << b[i];
    os << "]}";
    return os.str();
}

// -------------------------------------------------- MetricsRegistry

void
MetricsRegistry::merge(const MetricsRegistry &other)
{
    for (const auto &[name, v] : other.counters_)
        counters_[name] += v;
    for (const auto &[name, v] : other.gauges_)
        gauges_[name] = v;
    for (const auto &[name, h] : other.histograms_) {
        // Histograms are merged by value: last write wins per name.
        histograms_[name] = h;
    }
}

std::string
MetricsRegistry::toJson() const
{
    std::ostringstream os;
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, v] : counters_) {
        os << (first ? "" : ",");
        first = false;
        jsonString(os, name);
        os << ":" << v;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, v] : gauges_) {
        os << (first ? "" : ",");
        first = false;
        jsonString(os, name);
        os << ":";
        jsonNum(os, v);
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : histograms_) {
        os << (first ? "" : ",");
        first = false;
        jsonString(os, name);
        os << ":" << h.toJson();
    }
    os << "}}";
    return os.str();
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

void
SimScope::exportMetrics(MetricsRegistry &reg) const
{
    reg.setCounter("scope.cycles", cycles());
    // Backend/JIT cost metrics, so --profile=json and the bench
    // "metrics" sections carry compile overhead and the tier
    // transition next to the runtime phase numbers.
    const SpecStats &spec = sim_.specStats();
    reg.setGauge("scope.jit.codegen_seconds", spec.codegenSeconds);
    reg.setGauge("scope.jit.compile_seconds", spec.compileSeconds);
    reg.setCounter("scope.jit.cache_hit", spec.cacheHit ? 1 : 0);
    if (spec.tiered) {
        // Tier-transition event: -1 while the warm-up (bytecode) tier
        // is still running, else the cycle the native module went
        // live at a cycle boundary.
        reg.setGauge("scope.jit.tier_swap_cycle",
                     static_cast<double>(spec.tierSwapCycle));
        reg.setCounter("scope.jit.tier_swaps",
                       spec.tierSwapCycle >= 0 ? 1 : 0);
    }
    PhaseBreakdown pb = phaseBreakdown();
    reg.setGauge("scope.phase.settle_seconds", pb.settle_seconds);
    reg.setGauge("scope.phase.tick_seconds", pb.tick_seconds);
    reg.setGauge("scope.phase.flop_seconds", pb.flop_seconds);
    if (parsim_) {
        reg.setGauge("scope.phase.barrier_seconds", pb.barrier_seconds);
        reg.setCounter("scope.boundary_bytes", pb.boundary_bytes);
        for (int i = 0; i < pb.nislands; ++i) {
            std::string base = "scope.island." + std::to_string(i);
            reg.setGauge(base + ".compute_seconds",
                         probe_.island_settle_seconds[i] +
                             probe_.island_tick_seconds[i] +
                             probe_.island_flop_seconds[i]);
            reg.setGauge(base + ".barrier_seconds",
                         probe_.island_barrier_seconds[i]);
            reg.setCounter(base + ".boundary_bytes",
                           probe_.island_boundary_bytes[i]);
        }
    }
    for (const ChannelStats &ch : state_->channels) {
        std::string base = "scope.channel." + ch.name;
        reg.setCounter(base + ".transfers", ch.transfers);
        reg.setCounter(base + ".stall_cycles", ch.stall_cycles);
        reg.setCounter(base + ".idle_cycles", ch.idle_cycles);
        reg.setGauge(base + ".occupancy", ch.occupancy());
        reg.histogram(base + ".latency_cycles") = ch.latency;
    }
}

std::string
SimScope::jsonSnapshot() const
{
    std::ostringstream os;
    os << "{\"scope_version\":3,\"kernel\":"
       << (parsim_ ? "\"parsim\"" : "\"sequential\"")
       << ",\"backend\":";
    // Same canonical string SimConfig round-trips and
    // simulatorReport prints.
    jsonString(os, sim_.config().toString());
    os << ",\"timing\":" << (probe_.exact ? "\"exact\"" : "\"sampled\"")
       << ",\"cycles\":" << cycles();

    {
        const LayoutStats lay = sim_.layoutStats();
        os << ",\"layout\":{\"words_per_phase\":" << lay.words_per_phase
           << ",\"flop_memcpy_ranges\":" << lay.flop_memcpy_ranges
           << "}";
    }

    PhaseBreakdown pb = phaseBreakdown();
    os << ",\"phases\":{\"settle_seconds\":";
    jsonNum(os, pb.settle_seconds);
    os << ",\"tick_seconds\":";
    jsonNum(os, pb.tick_seconds);
    os << ",\"flop_seconds\":";
    jsonNum(os, pb.flop_seconds);
    os << ",\"barrier_seconds\":";
    jsonNum(os, pb.barrier_seconds);
    os << ",\"boundary_bytes\":" << pb.boundary_bytes
       << ",\"islands\":[";
    if (parsim_) {
        for (int i = 0; i < pb.nislands; ++i) {
            os << (i ? "," : "") << "{\"compute_seconds\":";
            jsonNum(os, probe_.island_settle_seconds[i] +
                            probe_.island_tick_seconds[i] +
                            probe_.island_flop_seconds[i]);
            os << ",\"settle_seconds\":";
            jsonNum(os, probe_.island_settle_seconds[i]);
            os << ",\"tick_seconds\":";
            jsonNum(os, probe_.island_tick_seconds[i]);
            os << ",\"flop_seconds\":";
            jsonNum(os, probe_.island_flop_seconds[i]);
            os << ",\"barrier_seconds\":";
            jsonNum(os, probe_.island_barrier_seconds[i]);
            os << ",\"boundary_bytes\":"
               << probe_.island_boundary_bytes[i] << "}";
        }
    } else {
        // The sequential kernel is one island with no barriers, so
        // consumers can treat both kernels uniformly.
        os << "{\"compute_seconds\":";
        jsonNum(os, pb.settle_seconds + pb.tick_seconds +
                        pb.flop_seconds);
        os << ",\"settle_seconds\":";
        jsonNum(os, pb.settle_seconds);
        os << ",\"tick_seconds\":";
        jsonNum(os, pb.tick_seconds);
        os << ",\"flop_seconds\":";
        jsonNum(os, pb.flop_seconds);
        os << ",\"barrier_seconds\":0,\"boundary_bytes\":0}";
    }
    os << "]}";

    os << ",\"blocks\":[";
    bool first = true;
    for (const BlockCost &b : hotBlocks(20)) {
        os << (first ? "" : ",") << "{\"path\":";
        first = false;
        jsonString(os, b.path);
        os << ",\"seconds\":";
        jsonNum(os, b.seconds);
        os << ",\"calls\":" << b.calls << "}";
    }
    os << "]";

    os << ",\"channels\":[";
    first = true;
    for (const ChannelStats &ch : state_->channels) {
        os << (first ? "" : ",") << "{\"name\":";
        first = false;
        jsonString(os, ch.name);
        os << ",\"transfers\":" << ch.transfers
           << ",\"stall_cycles\":" << ch.stall_cycles
           << ",\"idle_cycles\":" << ch.idle_cycles
           << ",\"occupancy\":";
        jsonNum(os, ch.occupancy());
        os << ",\"latency\":" << ch.latency.toJson() << "}";
    }
    os << "]";

    MetricsRegistry merged = user_metrics_;
    exportMetrics(merged);
    os << ",\"metrics\":" << merged.toJson() << "}";
    return os.str();
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

    std::vector<BlockCost> hot = hotBlocks(nblocks);
    double total = 0.0;
    for (double s : probe_.block_seconds)
        total += s;
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
