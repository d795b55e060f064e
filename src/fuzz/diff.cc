/**
 * @file
 * SimFuzz differential runner: the backend matrix, fault injection
 * and lockstep pair comparison. See fuzz.h for the pipeline overview.
 */

#include "fuzz.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "core/jit_cpp.h"
#include "core/lint.h"
#include "core/partition.h"
#include "core/psim.h"
#include "core/race_audit.h"

namespace cmtl {
namespace fuzz {

// ----------------------------------------------------------- FuzzSide

SimConfig
FuzzSide::toSimConfig() const
{
    SimConfig cfg;
    try {
        cfg = SimConfig::fromString(backend);
    } catch (const std::invalid_argument &e) {
        throw std::runtime_error(std::string("fuzz side: ") + e.what());
    }
    cfg.threads = threads;
    // Tiered cpp-design hot-swaps mid-run on compiler timing; force the
    // blocking compile so fuzz runs are scheduling-independent.
    cfg.jit_tiered = false;
    return cfg;
}

std::string
FuzzSide::str() const
{
    std::ostringstream os;
    os << backend << " t" << threads;
    return os.str();
}

bool
FuzzSide::needsCompiler() const
{
    return backend.find("cpp") != std::string::npos;
}

// --------------------------------------------------------- fuzzMatrix

std::vector<FuzzSide>
fuzzMatrix(bool full)
{
    auto side = [](const char *backend, int threads) {
        FuzzSide s;
        s.backend = backend;
        s.threads = threads;
        return s;
    };
    std::vector<FuzzSide> m;
    // Interpreter family: every thread corner.
    m.push_back(side("optinterp", 1));
    m.push_back(side("optinterp", 4));
    m.push_back(side("bytecode", 1));
    m.push_back(side("bytecode", 4));
    if (!full)
        return m;
    m.push_back(side("cpp-block", 1));
    m.push_back(side("cpp-block", 4));
    m.push_back(side("cpp-design", 1));
    m.push_back(side("cpp-design", 4));
    // Boxed hybrids are sequential-only (ParSim needs the arena).
    m.push_back(side("interp+bytecode", 1));
    m.push_back(side("interp+cpp-block", 1));
    return m;
}

// --------------------------------------------------------- FuzzRunner

namespace {

/**
 * Register the injected-fault hook: at the end of spec.fault.cycle,
 * flip one bit of one net.
 */
void
attachFault(Simulator &sim, const FuzzSpec &spec)
{
    const Elaboration &elab = sim.elaboration();
    if (!spec.fault.active || elab.nets.empty())
        return;
    int nnets = static_cast<int>(elab.nets.size());
    int net = ((spec.fault.net_ordinal % nnets) + nnets) % nnets;
    int nbits = elab.nets[net].nbits;
    int bit = ((spec.fault.bit % nbits) + nbits) % nbits;
    uint64_t at = spec.fault.cycle;
    Simulator *s = &sim;
    sim.onCycleEnd([s, net, bit, at](uint64_t cycle) {
        if (cycle != at)
            return;
        Bits v = s->readNet(net);
        bool cur = (v.word(bit / 64) >> (bit % 64)) & 1;
        v.setBit(bit, !cur);
        s->pokeNet(net, v);
    });
}

/**
 * The state digests of @p side running @p spec's design under @p tape,
 * where findDivergence takes them: before the first cycle and after
 * every cycle. With @p ref, the run stops at the first digest that
 * differs from ref's. Throws whatever building or running the side
 * throws.
 */
std::vector<uint64_t>
sideDigests(const FuzzSpec &spec, const FuzzSide &side, bool fault,
            StimTape &tape, const std::vector<uint64_t> *ref = nullptr)
{
    FuzzDesign top(spec);
    std::unique_ptr<Simulator> sim =
        makeSimulator(top.elaborate(), side.toSimConfig());
    if (fault)
        attachFault(*sim, spec);
    std::vector<uint64_t> out{stateDigest(*sim)};
    while (out.size() <= spec.cycles &&
           (!ref || out.back() == (*ref)[out.size() - 1])) {
        tape.applyTo(*sim);
        sim->cycle();
        out.push_back(stateDigest(*sim));
    }
    return out;
}

} // namespace

DivergenceReport
FuzzRunner::comparePair(const FuzzSpec &spec)
{
    // Each Elaboration references its model by raw pointer, so the
    // models are declared before, and outlive, the simulators.
    FuzzDesign top_a(spec);
    FuzzDesign top_b(spec);
    std::unique_ptr<Simulator> sim_a, sim_b;
    const char *building = "a";
    try {
        sim_a = makeSimulator(top_a.elaborate(), spec.side_a.toSimConfig());
        building = "b";
        sim_b = makeSimulator(top_b.elaborate(), spec.side_b.toSimConfig());
    } catch (const std::exception &e) {
        DivergenceReport rep;
        rep.diverged = true;
        rep.error = std::string("side ") + building + " threw: " + e.what();
        return rep;
    }
    attachFault(*sim_b, spec);
    // Both designs come from one spec, so their net ids agree and one
    // tape (indexed by numCycles()) drives both sides.
    StimTape tape = makeFuzzStim(spec);
    return findDivergence(*sim_a, *sim_b, spec.cycles,
                          [&tape](Simulator &s) { tape.applyTo(s); });
}

FuzzCaseResult
FuzzRunner::runCase(const FuzzSpec &spec,
                    const std::vector<FuzzSide> &matrix)
{
    FuzzCaseResult res;
    res.seed = spec.seed;

    FuzzDesign top(spec);
    auto elab = top.elaborate();
    res.fingerprint = designFingerprint(*elab);
    res.nets = static_cast<int>(elab->nets.size());
    res.blocks = static_cast<int>(elab->blocks.size());

    // Every generated design must be lint-error-free (warnings —
    // undriven stim ports, masked logic — are expected) and pass the
    // static race audit at representative island counts.
    LintTool lint;
    for (const LintIssue &issue : lint.run(*elab)) {
        if (issue.severity != LintSeverity::Error)
            continue;
        res.lint_errors.push_back(issue.check + " @ " + issue.path +
                                  ": " + issue.message);
    }
    for (int nislands : {2, 4}) {
        RaceAuditReport audit =
            auditPartition(*elab, partitionDesign(*elab, nislands));
        if (!audit.ok())
            res.audit_errors.push_back(std::to_string(nislands) +
                                       " islands: " + audit.summary());
    }

    // The reference side runs once. A side whose digests all equal its
    // digests agrees with it; any other side, and every side when the
    // reference throws, is re-run in lockstep by comparePair, so its
    // report is the one findDivergence writes.
    StimTape tape = makeFuzzStim(spec);
    std::vector<uint64_t> ref;
    try {
        ref = sideDigests(spec, spec.side_a, false, tape);
    } catch (const std::exception &) {
        // ref stays empty.
    }
    bool have_compiler = CppJit::compilerAvailable();
    for (const FuzzSide &side : matrix) {
        if (side.needsCompiler() && !have_compiler) {
            ++res.matrix_skipped;
            continue;
        }
        FuzzSpec pair = spec;
        pair.side_b = side;
        bool agrees = false;
        try {
            agrees = !ref.empty() &&
                     sideDigests(pair, side, true, tape, &ref) == ref;
        } catch (const std::exception &) {
            // A side that throws diverges.
        }
        DivergenceReport rep;
        if (!agrees)
            rep = comparePair(pair);
        ++res.matrix_run;
        if (rep.diverged)
            res.divergences.push_back(
                {side, rep.first_divergent_cycle, rep.summary()});
    }
    return res;
}

bool
FuzzRunner::replay(const FuzzSpec &spec, DivergenceReport *outcome)
{
    DivergenceReport rep = comparePair(spec);
    if (outcome)
        *outcome = rep;
    if (spec.expect < 0)
        return true;
    return (spec.expect == 1) == rep.diverged;
}

// ----------------------------------------------------- FuzzCaseResult

std::string
FuzzCaseResult::summary() const
{
    std::ostringstream os;
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    os << "seed " << seed << ": fp " << fp << ", " << nets << " nets, "
       << blocks << " blocks, matrix " << matrix_run << " run / "
       << matrix_skipped << " skipped";
    if (ok()) {
        os << ", OK";
        return os.str();
    }
    if (!lint_errors.empty())
        os << ", " << lint_errors.size() << " lint error(s)";
    if (!audit_errors.empty())
        os << ", " << audit_errors.size() << " race-audit error(s)";
    for (const FuzzDivergence &d : divergences)
        os << ", DIVERGED [" << d.side.str() << "] cycle " << d.first_cycle;
    return os.str();
}

} // namespace fuzz
} // namespace cmtl
