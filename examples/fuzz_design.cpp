/**
 * @file
 * SimFuzz driver: differential fuzzing of the backend matrix from the
 * command line.
 *
 * Usage: fuzz_design [--seed=N] [--count=N] [--cycles=N]
 *                    [--matrix=quick|full] [--minimize]
 *                    [--inject=cycle:net:bit]
 *                    [--out=dir] [--replay=file...]
 *
 * Default mode generates --count designs starting at --seed (seed,
 * seed+1, ...), runs each through lint, the static race auditor and
 * the differential backend matrix against the boxed-interpreter
 * reference, and prints one summary line per case. Exit status is 0
 * when every case is clean, 1 on any divergence, lint error or race-
 * audit error. With --minimize every diverging case is auto-shrunk
 * and the minimal repro written to <out>/repro_seed<N>_<side>.fuzz
 * (out defaults to the current directory).
 *
 * --inject=<cycle>:<net>:<bit> plants a synthetic backend bug: every
 * matrix candidate flips the given bit of the given net (ordinal into
 * the elaborated net list, both taken modulo) at the end of the given
 * cycle. The detector must catch it, and with --minimize the shrinker
 * must reduce it — the end-to-end self-test of the pipeline (expect
 * exit 1).
 *
 * --replay=<file> replays corpus repro files (tests/data/fuzz_corpus/)
 * through the differential pair recorded in the file and checks the
 * recorded expectation; it may be given multiple times. Exit 0 when
 * every expectation holds.
 *
 * All output is a pure function of the flags: same command line, same
 * bytes.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/jit_cpp.h"
#include "fuzz/fuzz.h"
#include "stdlib/options.h"

using namespace cmtl;
using namespace cmtl::fuzz;
using cmtl::stdlib::SimOptions;

namespace {

/** "--name=value" tail, or nullptr when @p arg is a different flag. */
const char *
flagValue(const char *arg, const char *name)
{
    size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return nullptr;
    return arg + n + 1;
}

std::string
sideFileTag(const FuzzSide &side)
{
    std::string tag = side.backend + "_t" + std::to_string(side.threads);
    for (char &c : tag)
        if (c == '+' || c == '-')
            c = '_';
    return tag;
}

int
replayFiles(const std::vector<std::string> &files)
{
    FuzzRunner runner;
    bool have_compiler = CppJit::compilerAvailable();
    int failures = 0;
    for (const std::string &path : files) {
        FuzzSpec spec;
        try {
            spec = FuzzSpec::loadFile(path);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "fuzz_design: %s\n", e.what());
            return 2;
        }
        if ((spec.side_a.needsCompiler() || spec.side_b.needsCompiler()) &&
            !have_compiler) {
            std::printf("%s: SKIP (no host compiler)\n", path.c_str());
            continue;
        }
        DivergenceReport outcome;
        bool pass = runner.replay(spec, &outcome);
        std::printf("%s: seed %llu [%s] vs [%s] -> %s -- %s\n",
                    path.c_str(),
                    static_cast<unsigned long long>(spec.seed),
                    spec.side_a.str().c_str(), spec.side_b.str().c_str(),
                    outcome.summary().c_str(),
                    pass ? "expected" : "UNEXPECTED");
        if (!pass)
            ++failures;
    }
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip the fuzz-specific flags, hand the rest to SimOptions (which
    // owns --seed/--cycles and rejects typos with exit 2).
    uint64_t count = 1;
    bool full = false;
    bool minimize = false;
    FuzzFault fault;
    std::string out_dir;
    std::vector<std::string> replays;
    std::vector<char *> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const char *v;
        if ((v = flagValue(argv[i], "--count"))) {
            char *end = nullptr;
            count = std::strtoull(v, &end, 10);
            if (*v == '\0' || end == nullptr || *end != '\0' ||
                count == 0) {
                std::fprintf(stderr,
                             "%s: --count wants a positive integer, "
                             "got '%s'\n",
                             argv[0], v);
                return 2;
            }
        } else if ((v = flagValue(argv[i], "--matrix"))) {
            if (!std::strcmp(v, "full")) {
                full = true;
            } else if (!std::strcmp(v, "quick")) {
                full = false;
            } else {
                std::fprintf(stderr,
                             "%s: --matrix wants quick or full, got "
                             "'%s'\n",
                             argv[0], v);
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--minimize")) {
            minimize = true;
        } else if ((v = flagValue(argv[i], "--inject"))) {
            unsigned long long fc = 0, fn = 0, fb = 0;
            if (std::sscanf(v, "%llu:%llu:%llu", &fc, &fn, &fb) != 3) {
                std::fprintf(stderr,
                             "%s: --inject wants cycle:net:bit, got "
                             "'%s'\n",
                             argv[0], v);
                return 2;
            }
            fault.active = true;
            fault.cycle = fc;
            fault.net_ordinal = static_cast<int>(fn);
            fault.bit = static_cast<int>(fb);
        } else if ((v = flagValue(argv[i], "--out"))) {
            out_dir = v;
            std::error_code ec;
            std::filesystem::create_directories(out_dir, ec);
        } else if ((v = flagValue(argv[i], "--replay"))) {
            replays.emplace_back(v);
        } else {
            rest.push_back(argv[i]);
        }
    }
    SimOptions opts =
        SimOptions::parse(static_cast<int>(rest.size()), rest.data());

    if (!replays.empty())
        return replayFiles(replays);

    uint64_t seed0 = opts.seed_set ? opts.seed : 1;
    uint64_t cycles = opts.cycles ? opts.cycles : 200;
    std::vector<FuzzSide> matrix = fuzzMatrix(full);

    FuzzRunner runner;
    FuzzShrinker shrinker(runner);
    int bad_cases = 0;
    int minimized = 0;
    for (uint64_t i = 0; i < count; ++i) {
        FuzzSpec spec;
        spec.seed = seed0 + i;
        spec.cycles = cycles;
        spec.fault = fault;
        FuzzCaseResult res = runner.runCase(spec, matrix);
        std::printf("%s\n", res.summary().c_str());
        for (const std::string &e : res.lint_errors)
            std::printf("  lint: %s\n", e.c_str());
        for (const std::string &e : res.audit_errors)
            std::printf("  race-audit: %s\n", e.c_str());
        if (!res.ok())
            ++bad_cases;
        for (const FuzzDivergence &d : res.divergences) {
            std::printf("  [%s] %s\n", d.side.str().c_str(),
                        d.detail.c_str());
            if (!minimize)
                continue;
            FuzzSpec pair = spec;
            pair.side_b = d.side;
            try {
                FuzzShrinkResult sr = shrinker.shrink(pair);
                std::string path =
                    (out_dir.empty() ? std::string()
                                     : out_dir + "/") +
                    "repro_seed" + std::to_string(spec.seed) + "_" +
                    sideFileTag(d.side) + ".fuzz";
                sr.spec.saveFile(path);
                ++minimized;
                std::printf("  minimized to %s (%d/%d removals kept, "
                            "%llu cycles, diverges at %llu)\n",
                            path.c_str(), sr.removed, sr.tried,
                            static_cast<unsigned long long>(
                                sr.spec.cycles),
                            static_cast<unsigned long long>(
                                sr.first_cycle));
            } catch (const std::exception &e) {
                std::printf("  minimize failed: %s\n", e.what());
            }
        }
    }
    std::printf("fuzz: %llu case(s), %d bad",
                static_cast<unsigned long long>(count), bad_cases);
    if (minimize)
        std::printf(", %d repro(s) written", minimized);
    std::printf("\n");
    return bad_cases ? 1 : 0;
}
