/**
 * @file
 * SimFuzz tests: generator determinism, the mask-invariance property
 * the shrinker depends on, the spec codec, end-to-end fault detection
 * with shrinker convergence, and replay of the checked-in corpus.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/jit_cpp.h"
#include "core/lint.h"
#include "core/snap.h"
#include "fuzz/fuzz.h"

using namespace cmtl;
using namespace cmtl::fuzz;

namespace {

std::string
corpusDir()
{
    return std::string(CMTL_TEST_DATA_DIR) + "/fuzz_corpus";
}

uint64_t
fingerprintOf(const FuzzSpec &spec)
{
    FuzzDesign top(spec);
    return designFingerprint(*top.elaborate());
}

} // namespace

TEST(FuzzGen, SameSeedSameFingerprint)
{
    for (uint64_t seed : {1ull, 7ull, 123456789ull}) {
        FuzzSpec spec;
        spec.seed = seed;
        EXPECT_EQ(fingerprintOf(spec), fingerprintOf(spec))
            << "seed " << seed;
    }
}

TEST(FuzzGen, DifferentSeedsDifferentDesigns)
{
    FuzzSpec a, b;
    a.seed = 1;
    b.seed = 2;
    EXPECT_NE(fingerprintOf(a), fingerprintOf(b));
}

// The property the shrinker stands on: disable masks omit logic, never
// declarations, so the fingerprint (net names/widths/flop classes) is
// mask-invariant and StimTape bindings stay valid while pruning.
TEST(FuzzGen, MasksPreserveFingerprint)
{
    FuzzSpec base;
    base.seed = 11;
    FuzzCounts counts = fuzzCounts(base.seed);
    ASSERT_GT(counts.comb, 0);
    ASSERT_GT(counts.tick, 0);
    ASSERT_GT(counts.stim, 0);

    FuzzSpec masked = base;
    masked.comb_off.push_back(0);
    masked.tick_off.push_back(counts.tick - 1);
    masked.stim_off.push_back(0);
    EXPECT_EQ(fingerprintOf(base), fingerprintOf(masked));
}

TEST(FuzzGen, GeneratedDesignIsLintErrorFree)
{
    for (uint64_t seed : {1ull, 2ull, 3ull, 17ull, 99ull}) {
        FuzzSpec spec;
        spec.seed = seed;
        FuzzDesign top(spec);
        auto elab = top.elaborate();
        LintTool lint;
        for (const LintIssue &issue : lint.run(*elab))
            EXPECT_NE(issue.severity, LintSeverity::Error)
                << "seed " << seed << ": " << issue.check << " @ "
                << issue.path << ": " << issue.message;
    }
}

TEST(FuzzGen, StimulusIsDeterministicAndMaskable)
{
    FuzzSpec spec;
    spec.seed = 21;
    spec.cycles = 64;
    EXPECT_EQ(makeFuzzStim(spec).encode(), makeFuzzStim(spec).encode());

    FuzzSpec masked = spec;
    masked.stim_off.push_back(0);
    EXPECT_NE(makeFuzzStim(spec).encode(),
              makeFuzzStim(masked).encode());
    EXPECT_EQ(makeFuzzStim(spec).numChannels(),
              makeFuzzStim(masked).numChannels());
}

TEST(FuzzSpecCodec, RoundTrip)
{
    FuzzSpec spec;
    spec.seed = 77;
    spec.cycles = 123;
    spec.comb_off = {0, 2};
    spec.tick_off = {1};
    spec.stim_off = {0};
    spec.side_b.backend = "bytecode";
    spec.side_b.threads = 4;
    spec.fault.active = true;
    spec.fault.cycle = 55;
    spec.fault.net_ordinal = 3;
    spec.fault.bit = 9;
    spec.expect = 1;

    FuzzSpec back = FuzzSpec::decodeText(spec.encodeText());
    EXPECT_EQ(back.encodeText(), spec.encodeText());
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.cycles, spec.cycles);
    EXPECT_EQ(back.comb_off, spec.comb_off);
    EXPECT_EQ(back.tick_off, spec.tick_off);
    EXPECT_EQ(back.stim_off, spec.stim_off);
    EXPECT_EQ(back.side_b.backend, "bytecode");
    EXPECT_EQ(back.side_b.threads, 4);
    EXPECT_TRUE(back.fault.active);
    EXPECT_EQ(back.fault.cycle, 55u);
    EXPECT_EQ(back.expect, 1);
}

TEST(FuzzSpecCodec, RejectsGarbage)
{
    const std::string v3 = "CMTLFUZZ v3\n";
    const std::vector<std::string> bad = {
        "not a repro",
        v3 + "bogus_key 1\n",
        v3 + "seed abc\n",
        v3 + "seed 5x\n",
        v3 + "cycles -3\n",
        v3 + "cycles\n",
        v3 + "seed 5 6\n",
        v3 + "side_a interp 1 trailing junk\n",
        v3 + "side_b optinterp 0\n",
        v3 + "comb_off 1 x\n",
        v3 + "fault 30 5 2 9\n",
        v3 + "expect agree now\n",
        "CMTLFUZZ v3 extra\nseed 1\n",
        // v1 side lines carried the retired arena-layout token.
        "CMTLFUZZ v1\nseed 1\nside_a interp 1 elab 1\n",
        // v2 side lines carried the retired gating token.
        "CMTLFUZZ v2\nseed 1\nside_a interp 1 1\n",
    };
    for (const std::string &text : bad) {
        try {
            FuzzSpec::decodeText(text);
            ADD_FAILURE() << "accepted: " << text;
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()).rfind("fuzz repro:", 0), 0u)
                << e.what();
        }
    }
    try {
        FuzzSpec::decodeText("CMTLFUZZ v1\nseed 1\n");
        ADD_FAILURE() << "accepted a v1 header";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("layout token"),
                  std::string::npos)
            << e.what();
    }
    try {
        FuzzSpec::decodeText("CMTLFUZZ v2\nseed 1\n");
        ADD_FAILURE() << "accepted a v2 header";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("<gating> token"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(FuzzSpec::loadFile("/nonexistent/repro.fuzz"),
                 std::runtime_error);
}

TEST(FuzzDiff, CleanSeedsAgreeAcrossQuickMatrix)
{
    FuzzRunner runner;
    std::vector<FuzzSide> matrix = fuzzMatrix(false);
    for (uint64_t seed : {1ull, 2ull}) {
        FuzzSpec spec;
        spec.seed = seed;
        spec.cycles = 80;
        FuzzCaseResult res = runner.runCase(spec, matrix);
        EXPECT_TRUE(res.ok()) << res.summary();
        EXPECT_GT(res.matrix_run, 0);
    }
}

// A side that throws — here a hybrid backend that ParSim cannot host —
// is a counted divergence carrying its message, not the end of the
// campaign.
TEST(FuzzDiff, ThrowingSideIsCounted)
{
    FuzzSpec spec;
    spec.seed = 1;
    spec.cycles = 20;
    FuzzSide side;
    side.backend = "interp+bytecode";
    side.threads = 2;
    FuzzRunner runner;
    FuzzCaseResult res = runner.runCase(spec, {side});
    EXPECT_EQ(res.matrix_run, 1);
    ASSERT_EQ(res.divergences.size(), 1u) << res.summary();
    EXPECT_EQ(res.divergences[0].first_cycle, 0u);
    EXPECT_NE(res.divergences[0].detail.find(
                  "ParSim needs an arena-hosted backend"),
              std::string::npos)
        << res.divergences[0].detail;

    // The shrinker keeps a trial that throws the same message.
    spec.side_b = side;
    FuzzShrinker shrinker(runner);
    FuzzShrinkResult sr = shrinker.shrink(spec);
    EXPECT_EQ(sr.spec.cycles, 1u);
    EXPECT_GT(sr.removed, 0);
    DivergenceReport replayed;
    EXPECT_TRUE(runner.replay(
        FuzzSpec::decodeText(sr.spec.encodeText()), &replayed));
    EXPECT_EQ(replayed.error, "side b threw: ParSim needs an "
                              "arena-hosted backend; got 'interp+bytecode'");
}

// The acceptance criterion: an intentionally injected backend bug is
// caught by the differential runner and auto-minimized by the shrinker
// into a spec that still replays as a divergence.
TEST(FuzzShrink, InjectedFaultIsCaughtAndMinimized)
{
    FuzzSpec spec;
    spec.seed = 42;
    spec.cycles = 80;
    spec.side_b.backend = "optinterp";
    spec.fault.active = true;
    spec.fault.cycle = 30;
    spec.fault.net_ordinal = 5;
    spec.fault.bit = 2;

    FuzzRunner runner;
    DivergenceReport outcome = runner.comparePair(spec);
    ASSERT_TRUE(outcome.diverged);
    // The bit flips in the hook at the end of cycle 30, so both the
    // pair and the matrix report numCycles() == 30.
    EXPECT_EQ(outcome.first_divergent_cycle, spec.fault.cycle);
    FuzzCaseResult res = runner.runCase(spec, {spec.side_b});
    ASSERT_EQ(res.divergences.size(), 1u) << res.summary();
    EXPECT_EQ(res.divergences[0].first_cycle, spec.fault.cycle);

    FuzzShrinker shrinker(runner);
    FuzzShrinkResult sr = shrinker.shrink(spec);
    EXPECT_EQ(sr.first_cycle, spec.fault.cycle);
    EXPECT_EQ(sr.spec.cycles, spec.fault.cycle);
    EXPECT_GT(sr.removed, 0);
    EXPECT_GE(sr.tried, sr.removed);
    EXPECT_EQ(sr.spec.expect, 1);

    // The minimized spec must reproduce standalone, and replay() must
    // agree with the recorded expectation — including after a codec
    // round trip (what the corpus files go through).
    EXPECT_TRUE(runner.replay(sr.spec));
    FuzzSpec reloaded = FuzzSpec::decodeText(sr.spec.encodeText());
    DivergenceReport replayed;
    EXPECT_TRUE(runner.replay(reloaded, &replayed));
    EXPECT_TRUE(replayed.diverged);
    EXPECT_EQ(replayed.first_divergent_cycle, spec.fault.cycle);
}

TEST(FuzzShrink, RefusesAgreeingSpec)
{
    FuzzSpec spec;
    spec.seed = 1;
    spec.cycles = 40;
    FuzzRunner runner;
    FuzzShrinker shrinker(runner);
    EXPECT_THROW(shrinker.shrink(spec), std::runtime_error);
}

TEST(FuzzCorpus, ReplayAll)
{
    bool have_compiler = CppJit::compilerAvailable();
    int replayed = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(corpusDir())) {
        if (entry.path().extension() != ".fuzz")
            continue;
        FuzzSpec spec = FuzzSpec::loadFile(entry.path().string());
        if ((spec.side_a.needsCompiler() ||
             spec.side_b.needsCompiler()) &&
            !have_compiler)
            continue;
        FuzzRunner runner;
        DivergenceReport outcome;
        EXPECT_TRUE(runner.replay(spec, &outcome))
            << entry.path().filename() << ": expectation "
            << (spec.expect == 1 ? "diverge" : "agree")
            << " not met (diverged=" << outcome.diverged << ")";
        ++replayed;
    }
    EXPECT_GE(replayed, 5) << "corpus went missing from "
                           << corpusDir();
}

// Every agreement case in the corpus must also hold across the *full*
// differential matrix (compiled backends included when available), not
// just the pair recorded in the file.
TEST(FuzzCorpus, AgreeCasesSurviveFullMatrix)
{
    FuzzRunner runner;
    std::vector<FuzzSide> matrix = fuzzMatrix(true);
    for (const auto &entry :
         std::filesystem::directory_iterator(corpusDir())) {
        if (entry.path().extension() != ".fuzz")
            continue;
        FuzzSpec spec = FuzzSpec::loadFile(entry.path().string());
        if (spec.expect != 0)
            continue;
        FuzzCaseResult res = runner.runCase(spec, matrix);
        EXPECT_TRUE(res.ok())
            << entry.path().filename() << ": " << res.summary();
    }
}
