#include "stats.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "psim.h"
#include "race_audit.h"
#include "snap.h"

namespace cmtl {

std::string
simulatorReport(const Simulator &sim)
{
    std::ostringstream os;
    const SimConfig &cfg = sim.config();
    // The canonical backend string — the same spelling SimConfig
    // round-trips and SimScope snapshots carry, so text and JSON
    // reports agree on what ran.
    os << "simulator: backend " << cfg.toString() << ", threads "
       << cfg.threads << "\n";
    const SpecStats &spec = sim.specStats();
    os << "  blocks: " << spec.numBlocks << " total, "
       << spec.numSpecialized << " specialized, " << spec.kernelTypes
       << " kernel(s)\n";
    {
        // The snapshot compatibility key (snap.h): two reports showing
        // the same fingerprint can exchange checkpoints.
        char buf[80];
        std::snprintf(buf, sizeof(buf),
                      "  design fingerprint %016llx\n",
                      static_cast<unsigned long long>(
                          designFingerprint(sim.elaboration())));
        os << buf;
    }
    if (spec.tiered) {
        char buf[160];
        if (sim.tierPending()) {
            os << "  tier: bytecode warm-up (native compile in "
                  "flight)\n";
        } else {
            std::snprintf(buf, sizeof(buf),
                          "  tier: native since cycle %lld (compile "
                          "%.3fs%s)\n",
                          static_cast<long long>(spec.tierSwapCycle),
                          spec.compileSeconds,
                          spec.cacheHit ? ", cache hit" : "");
            os << buf;
        }
    }
    {
        const LayoutStats lay = sim.layoutStats();
        os << "  layout: " << lay.words_per_phase
           << " words/phase, flop memcpy ranges "
           << lay.flop_memcpy_ranges << "\n";
        // Signals left unbound take the virtual access path (wide
        // nets, the boxed store, and on ParSim what comb lambdas touch).
        os << "  signals: " << lay.slot_bound_signals << " slot-bound of "
           << sim.elaboration().signals.size() << "\n";
    }
    if (const auto *par = dynamic_cast<const ParSimulationTool *>(&sim)) {
        os << partitionReport(sim.elaboration(), par->plan());
        // Static race audit verdict: prove (or refute) the partition
        // invariants that make the BSP schedule race-free.
        os << "  "
           << auditPartition(sim.elaboration(), par->plan()).summary()
           << "\n";
    }
    if (const ScopeProbe *p = sim.scopeProbe()) {
        char buf[160];
        if (!p->island_settle_seconds.empty()) {
            for (size_t i = 0; i < p->island_settle_seconds.size();
                 ++i) {
                std::snprintf(
                    buf, sizeof(buf),
                    "  scope island %zu: compute %.4fs (settle %.4f "
                    "tick %.4f flop %.4f)  barrier %.4fs  boundary "
                    "%llu B\n",
                    i,
                    p->island_settle_seconds[i] +
                        p->island_tick_seconds[i] +
                        p->island_flop_seconds[i],
                    p->island_settle_seconds[i],
                    p->island_tick_seconds[i], p->island_flop_seconds[i],
                    p->island_barrier_seconds[i],
                    static_cast<unsigned long long>(
                        p->island_boundary_bytes[i]));
                os << buf;
            }
        } else {
            std::snprintf(buf, sizeof(buf),
                          "  scope phases: settle %.4fs  tick %.4fs  "
                          "flop %.4fs\n",
                          p->settle_seconds, p->tick_seconds,
                          p->flop_seconds);
            os << buf;
        }
    }
    return os.str();
}

namespace {

uint64_t
popcountDiff(const Bits &a, const Bits &b)
{
    uint64_t toggles = 0;
    int nwords = std::max(a.nwords(), b.nwords());
    for (int i = 0; i < nwords; ++i)
        toggles += static_cast<uint64_t>(
            __builtin_popcountll(a.word(i) ^ b.word(i)));
    return toggles;
}

} // namespace

ActivityTool::ActivityTool(Simulator &sim) : sim_(sim)
{
    const size_t nnets = sim_.elaboration().nets.size();
    last_.assign(nnets, Bits());
    toggles_.assign(nnets, 0);
    sim_.onCycleEnd([this](uint64_t cycle) { sample(cycle); });
}

void
ActivityTool::reset()
{
    std::fill(toggles_.begin(), toggles_.end(), 0);
    cycles_ = 0;
}

void
ActivityTool::sample(uint64_t)
{
    const auto &nets = sim_.elaboration().nets;
    for (const Net &net : nets) {
        Bits value = sim_.readNet(net.id);
        if (!first_)
            toggles_[net.id] += popcountDiff(value, last_[net.id]);
        last_[net.id] = value;
    }
    first_ = false;
    ++cycles_;
}

uint64_t
ActivityTool::modelToggles(const Model &model) const
{
    // Sum over nets whose name-bearing signal lives in the subtree.
    uint64_t total = 0;
    for (const Net &net : sim_.elaboration().nets) {
        for (const Signal *sig : net.signals) {
            const Model *m = sig->owner();
            bool inside = false;
            while (m) {
                if (m == &model) {
                    inside = true;
                    break;
                }
                m = m->parent();
            }
            if (inside) {
                total += toggles_[net.id];
                break; // count each net once
            }
        }
    }
    return total;
}

double
ActivityTool::toggleRate() const
{
    if (cycles_ == 0)
        return 0.0;
    uint64_t total = 0;
    for (uint64_t t : toggles_)
        total += t;
    return static_cast<double>(total) / static_cast<double>(cycles_);
}

std::string
ActivityTool::report(size_t n) const
{
    const auto &nets = sim_.elaboration().nets;
    std::vector<int> order(nets.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return toggles_[a] > toggles_[b];
    });
    std::ostringstream os;
    for (size_t i = 0; i < std::min(n, order.size()); ++i) {
        os << nets[order[i]].name << ": " << toggles_[order[i]]
           << " toggles\n";
    }
    return os.str();
}

TextWaveTool::TextWaveTool(Simulator &sim,
                           std::vector<const Signal *> watch,
                           size_t max_cycles)
    : sim_(sim), watch_(std::move(watch)), samples_(watch_.size()),
      max_cycles_(max_cycles)
{
    sim_.onCycleEnd([this](uint64_t) {
        for (size_t i = 0; i < watch_.size(); ++i) {
            if (samples_[i].size() < max_cycles_)
                samples_[i].push_back(
                    sim_.readNet(watch_[i]->netId()));
        }
    });
}

std::string
TextWaveTool::render() const
{
    std::ostringstream os;
    size_t name_width = 0;
    for (const Signal *sig : watch_)
        name_width = std::max(name_width, sig->fullName().size());

    for (size_t i = 0; i < watch_.size(); ++i) {
        const Signal *sig = watch_[i];
        os << sig->fullName()
           << std::string(name_width - sig->fullName().size() + 1, ' ');
        if (sig->nbits() == 1) {
            // Single-bit: draw levels.
            for (const Bits &v : samples_[i])
                os << (v.any() ? '#' : '_');
        } else {
            // Multi-bit: hex values, change-separated.
            for (size_t c = 0; c < samples_[i].size(); ++c) {
                if (c > 0 && samples_[i][c] == samples_[i][c - 1]) {
                    os << '.';
                } else {
                    std::string hex =
                        samples_[i][c].toHexString().substr(2);
                    os << ' ' << hex;
                }
            }
        }
        os << "\n";
    }
    return os.str();
}

} // namespace cmtl
