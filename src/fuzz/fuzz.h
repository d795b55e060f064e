/**
 * @file
 * SimFuzz: randomized differential testing of the backend matrix.
 *
 * The paper's core claim — one elaborated design behaves identically
 * across abstraction levels and execution engines — is proven in this
 * repo on a handful of hand-written designs. SimFuzz turns the claim
 * adversarial: a seeded generator elaborates randomized block/net
 * graphs (comb + tick IR blocks, wide and narrow nets, MemArrays, a
 * val/rdy channel, a lambda flop driven from a host lambda) plus a
 * randomized StimTape, then runs every backend x thread-count
 * combination in lockstep with the boxed-interpreter reference.
 * findDivergence (core/snap.h) compares state digests before the first
 * cycle and after every cycle, and counts a side that throws as a
 * divergence. On mismatch a graph-shrinking loop drops blocks, nets
 * and stimulus channels while the same divergence still reproduces,
 * emitting a minimal repro file that replays standalone.
 *
 * Everything is deterministic in the seed: entity i draws from its own
 * SplitMix64 stream keyed by (seed, kind, i), so disabling entity j
 * never perturbs entity i — the property the shrinker relies on — and
 * the same seed always elaborates the same design (same
 * designFingerprint), drives the same stimulus and prints the same
 * report.
 */

#ifndef CMTL_FUZZ_FUZZ_H
#define CMTL_FUZZ_FUZZ_H

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/sim.h"
#include "core/snap.h"

namespace cmtl {
namespace fuzz {

/**
 * Deterministic SplitMix64 stream keyed by (seed, stream name, index).
 * Per-entity streams are the backbone of shrinkability: the structure
 * of comb block 3 depends only on (seed, "comb", 3), never on how many
 * other entities exist or which are disabled.
 */
class FuzzRng
{
  public:
    FuzzRng(uint64_t seed, const char *stream, uint64_t index);

    uint64_t next();
    /** Uniform in [0, n); n must be nonzero. */
    uint64_t range(uint64_t n) { return next() % n; }
    /** Uniform in [lo, hi] inclusive. */
    int irange(int lo, int hi)
    {
        return lo + static_cast<int>(range(static_cast<uint64_t>(hi - lo + 1)));
    }
    /** True with probability percent/100. */
    bool chance(int percent) { return range(100) < static_cast<uint64_t>(percent); }

  private:
    uint64_t state_;
};

/** One side of a differential pair (a backend-matrix point). */
struct FuzzSide
{
    std::string backend = "interp";
    int threads = 1;

    /** Fully resolved simulator configuration. */
    SimConfig toSimConfig() const;

    /** Human label, e.g. "optinterp t4". */
    std::string str() const;

    /** Repro-file encoding: "<backend> <threads>". */
    std::string encode() const;
    /**
     * Parse encode()'s format; throws std::runtime_error on garbage,
     * trailing tokens or threads < 1.
     */
    static FuzzSide decode(const std::string &text);

    /** True when this side needs the host C++ compiler. */
    bool needsCompiler() const;
};

/**
 * Optional injected fault: flip one bit of one net at the end of one
 * cycle, on side B only. This is the controlled "backend bug" the
 * tests (and the shrinker-convergence acceptance criterion) use to
 * prove the detection/minimization pipeline works end to end. The
 * flip happens in the onCycleEnd hook of that cycle, so the pair
 * first diverges at numCycles() == cycle.
 */
struct FuzzFault
{
    bool active = false;
    uint64_t cycle = 0;
    int net_ordinal = 0; //!< index into Elaboration::nets (mod size)
    int bit = 0;         //!< bit position to flip (mod net width)
};

/**
 * Complete, replayable description of one fuzz case: the seed (which
 * determines the whole design and stimulus), the cycle budget, the
 * disable masks the shrinker grows, the two simulator configs being
 * compared, and an optional injected fault. Round-trips through a
 * line-oriented text format (see encodeText) checked into
 * tests/data/fuzz_corpus/.
 */
struct FuzzSpec
{
    uint64_t seed = 1;
    uint64_t cycles = 200;
    /** Disabled entity ids (design shrinking; see FuzzDesign). */
    std::vector<int> comb_off;
    std::vector<int> tick_off;
    /** Stimulus channels forced to constant zero (stim shrinking). */
    std::vector<int> stim_off;
    FuzzSide side_a; //!< reference side
    FuzzSide side_b; //!< candidate side (faults apply here)
    FuzzFault fault;
    /**
     * Corpus replay expectation: +1 the pair must diverge (detector
     * regression — e.g. an injected fault must still be caught), 0 the
     * pair must agree (a once-divergent, since-fixed case must stay
     * fixed), -1 unspecified.
     */
    int expect = -1;

    bool combOff(int id) const;
    bool tickOff(int id) const;
    bool stimOff(int id) const;

    /**
     * Line-oriented text image:
     *
     *   CMTLFUZZ v3
     *   seed <n>
     *   cycles <n>
     *   side_a <backend> <threads>
     *   side_b <backend> <threads>
     *   comb_off <id> <id> ...        (omitted when empty)
     *   tick_off ...
     *   stim_off ...
     *   fault <cycle> <net_ordinal> <bit>   (omitted when inactive)
     *   expect diverge|agree               (omitted when unspecified)
     *
     * '#' starts a comment; blank lines are ignored. v1 and v2 images
     * are rejected with a diagnostic naming the side-line token each
     * carried that v3 no longer has.
     */
    std::string encodeText() const;
    /**
     * Parse encodeText()'s format. Throws std::runtime_error with a
     * "fuzz repro:" diagnostic on a missing or v1 header, an unknown
     * key, a non-numeric count, trailing tokens or threads < 1.
     */
    static FuzzSpec decodeText(const std::string &text);

    void saveFile(const std::string &path) const;
    static FuzzSpec loadFile(const std::string &path);
};

/** Entity counts of the design a seed generates (for shrinking). */
struct FuzzCounts
{
    int comb = 0; //!< maskable comb blocks (incl. the val/rdy driver)
    int tick = 0; //!< maskable tick blocks (incl. producer + lambda)
    int stim = 0; //!< stimulus input ports
};

/** Derive the entity counts without building a Model. */
FuzzCounts fuzzCounts(uint64_t seed);

/**
 * The generated design. All signals, arrays and their declaration
 * order depend only on the seed — disable masks omit *logic*, never
 * declarations — so net ids, the design fingerprint's name/width part
 * and StimTape channel bindings are stable while the shrinker prunes.
 *
 * Structure ("generator grammar", see DESIGN.md §3.1k):
 *  - stim ports: 2-4 InPorts, at least one multiword (>64 bits);
 *  - registered nets: 3-5 wires written non-blockingly by tick blocks;
 *  - comb blocks: 2-6 blocks arranged in 2-3 static levels (a block
 *    reads only lower-level outputs and sequential state, so the
 *    graph is acyclic under any mask);
 *  - MemArrays: 1-2 arrays, power-of-two depth, written by one tick
 *    block each, read asynchronously from comb and tick logic;
 *  - a val/rdy channel: tick producer drives val/msg, a comb block
 *    drives rdy;
 *  - a lambda flop: a host tickFl lambda declares a wire and writes it
 *    with setNext;
 *  - an always-on observe block XOR-folding every net and array read
 *    into a 64-bit output port (keeps all logic live).
 *
 * Expressions draw from the full IR: +,-,* (narrow), &,|,^, shifts,
 * sra, comparisons, mux, cat, slices, zext/sext, reductions, aread,
 * let-temps and if_/else with full default assignment (latch-free by
 * construction). Generated designs are lint-error-free; warnings
 * (undriven nets behind a mask, lossy truncation) are expected.
 */
class FuzzDesign : public Model
{
  public:
    explicit FuzzDesign(const FuzzSpec &spec);

    std::string typeName() const override;

    int numCombEntities() const { return ncomb_entities_; }
    int numTickEntities() const { return ntick_entities_; }
    int numStimPorts() const { return static_cast<int>(stim_.size()); }

  private:
    int ncomb_entities_ = 0;
    int ntick_entities_ = 0;
    uint64_t seed_ = 0;

    // Declared in deques: stable addresses, construction order = net
    // id order after elaboration.
    std::deque<InPort> stim_;
    std::deque<Wire> regs_;
    std::deque<Wire> comb_out_;
    std::deque<MemArray> mems_;
    std::deque<Wire> chan_;  //!< ch_val, ch_rdy, ch_msg
    std::deque<Wire> dyn_;   //!< dynamic-flop wire
    std::deque<OutPort> obs_;
};

/**
 * Deterministic random stimulus for a spec: one StimTape channel per
 * stim port, spec.cycles entries, channel i drawn from stream
 * (seed, "stim", i) — or constant zero when the channel is disabled
 * by the shrinker.
 */
StimTape makeFuzzStim(const FuzzSpec &spec);

/**
 * The differential backend matrix, reference excluded. quick (4
 * sides) covers the interpreter-family backends (optinterp/bytecode x
 * 1/4 threads); full (10 sides) adds the compiled backends
 * (cpp-block, cpp-design) at 1/4 threads and the boxed hybrids.
 * Entries needing an unavailable host compiler are the runner's
 * problem to skip.
 */
std::vector<FuzzSide> fuzzMatrix(bool full);

/** One confirmed divergence of a matrix candidate vs the reference. */
struct FuzzDivergence
{
    FuzzSide side;
    uint64_t first_cycle = 0; //!< DivergenceReport::first_divergent_cycle
    std::string detail;       //!< DivergenceReport::summary()
};

/** Outcome of one generated design through lint, audit and matrix. */
struct FuzzCaseResult
{
    uint64_t seed = 0;
    uint64_t fingerprint = 0; //!< designFingerprint of the elaboration
    int nets = 0;
    int blocks = 0;
    int matrix_run = 0;     //!< candidates executed
    int matrix_skipped = 0; //!< candidates skipped (no compiler)
    std::vector<std::string> lint_errors;
    std::vector<std::string> audit_errors;
    std::vector<FuzzDivergence> divergences;

    bool ok() const
    {
        return lint_errors.empty() && audit_errors.empty() &&
               divergences.empty();
    }

    /** One line per case; stable across runs of the same seed. */
    std::string summary() const;
};

/**
 * Executes fuzz cases: lint, race audit and the differential matrix,
 * each matrix side compared with side_a by findDivergence.
 */
class FuzzRunner
{
  public:
    /**
     * Lint + race-audit the generated design (errors recorded, not
     * thrown), then comparePair every matrix candidate, as side_b,
     * against spec.side_a.
     */
    FuzzCaseResult runCase(const FuzzSpec &spec,
                           const std::vector<FuzzSide> &matrix);

    /**
     * Build side_a and side_b (fault applied to b) and run them through
     * findDivergence with the spec's stimulus. A side whose simulator
     * fails to construct diverges before any cycle, with its message.
     */
    DivergenceReport comparePair(const FuzzSpec &spec);

    /**
     * Corpus replay: comparePair plus the spec's expectation. Returns
     * true when the observed outcome matches spec.expect (or when no
     * expectation is recorded).
     */
    bool replay(const FuzzSpec &spec, DivergenceReport *outcome = nullptr);
};

/** Shrinking statistics alongside the minimized spec. */
struct FuzzShrinkResult
{
    FuzzSpec spec;            //!< minimized, still-diverging case
    uint64_t first_cycle = 0; //!< first_divergent_cycle of the result
    int tried = 0;            //!< candidate removals attempted
    int removed = 0;          //!< entities/channels disabled + cycles kept
};

/**
 * Greedy delta-debugger over a diverging spec: truncate the cycle
 * budget to the first divergent cycle, then repeatedly try disabling
 * each comb block, tick block and stimulus channel, keeping every
 * removal under which the divergence still reproduces (with the same
 * message, when a side threw), until a full pass removes nothing.
 */
class FuzzShrinker
{
  public:
    explicit FuzzShrinker(FuzzRunner &runner) : runner_(runner) {}

    /** @p spec must diverge (throws std::runtime_error otherwise). */
    FuzzShrinkResult shrink(FuzzSpec spec);

  private:
    FuzzRunner &runner_;
};

} // namespace fuzz
} // namespace cmtl

#endif // CMTL_FUZZ_FUZZ_H
