/**
 * @file
 * SimSnap: simulation checkpoint/restore, deterministic stimulus
 * record-replay and a lockstep cross-backend divergence finder.
 *
 * Following the model/tool split, a snapshot is just another tool-side
 * view of an elaborated design: SimSnap captures the complete
 * architectural state of a running simulator — every net's current and
 * next-phase (flop shadow) value, every MemArray element, the cycle
 * counter, and the host state of lambda blocks (RNGs, queues, pending
 * val/rdy messages) via Model::snapSave — into a versioned,
 * checksummed binary image that can be restored into a *fresh*
 * elaboration of the same design on any backend and thread count.
 * Snapshot under "interp", resume under "cpp-design" or ParSim
 * --threads 4: the restored run is bit-identical to the uninterrupted
 * one, including its VCD continuation.
 *
 * File format (version 2, all integers little-endian):
 *
 *   header   "CMTLSNAP" | u32 version | u32 nsections
 *            | u64 design_hash | u64 cycle
 *   table    nsections x { u32 tag | u32 crc32 | u64 offset | u64 len }
 *   payloads section bytes at the recorded offsets
 *   trailer  u32 crc32 over every preceding byte
 *
 * Sections: NETS (current net values), NXTS (next-phase values), ARRY
 * (memory arrays), FLOP (net ids; older writers listed the nets
 * lambdas had flopped so far, current ones write an empty list), MODL
 * (per-model opaque host-state blobs keyed by hierarchical name), and
 * since version 2 an optional informational LAYT section naming the
 * capturing simulator's arena layout (writers always emit "elab";
 * readers accept any string). NETS/NXTS are logical net-id ordered —
 * the physical arena layout never leaks into the state sections — so
 * any image restores into any backend and thread count; version 1
 * images (no LAYT) still load. Every load failure — bad magic,
 * unknown version, corrupted checksum, design mismatch — throws
 * SnapError with a diagnostic; a snapshot is never silently
 * misapplied.
 */

#ifndef CMTL_CORE_SNAP_H
#define CMTL_CORE_SNAP_H

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bits.h"
#include "sim.h"

namespace cmtl {

/** Thrown on any malformed, corrupted or mismatched snapshot/tape. */
class SnapError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Snapshot format version. Bump whenever the byte layout of the
 * encoded image changes (the golden-snapshot test in
 * tests/core/test_snap.cc fails loudly otherwise). Readers accept
 * every version back to kSnapMinFormatVersion.
 *
 * History: v1 five required sections; v2 adds the optional LAYT
 * layout-policy section (Arena v2).
 */
constexpr uint32_t kSnapFormatVersion = 2;
constexpr uint32_t kSnapMinFormatVersion = 1;

/** CRC-32 (IEEE 802.3 polynomial, as in zip/zlib). */
uint32_t snapCrc32(const void *data, size_t len, uint32_t seed = 0);

/** Little-endian binary writer for snapshot payloads. */
class SnapWriter
{
  public:
    void u8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void u32(uint32_t v);
    void u64(uint64_t v);
    /** u32 length followed by the raw bytes. */
    void str(const std::string &s);
    /** u32 width followed by the little-endian value words. */
    void bits(const Bits &b);
    void raw(const void *p, size_t n);

    const std::string &buffer() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/** Bounds-checked reader; throws SnapError instead of running off. */
class SnapReader
{
  public:
    explicit SnapReader(const std::string &buf)
        : p_(reinterpret_cast<const uint8_t *>(buf.data())),
          end_(p_ + buf.size())
    {
    }
    SnapReader(const uint8_t *data, size_t len)
        : p_(data), end_(data + len)
    {
    }

    uint8_t u8();
    uint32_t u32();
    uint64_t u64();
    std::string str();
    Bits bits();
    void raw(void *p, size_t n);

    size_t remaining() const { return static_cast<size_t>(end_ - p_); }
    bool atEnd() const { return p_ == end_; }

  private:
    void need(size_t n) const;
    const uint8_t *p_;
    const uint8_t *end_;
};

/**
 * A decoded snapshot: the complete architectural state of a design at
 * a cycle boundary, independent of any backend's storage layout.
 */
struct SimSnapshot
{
    uint64_t design_hash = 0; //!< designFingerprint() of the source
    uint64_t cycle = 0;       //!< Simulator::numCycles() at capture
    /** Per net (dense net id order): current-value words. */
    std::vector<std::vector<uint64_t>> nets;
    /** Per net: next-phase (non-blocking shadow) words. */
    std::vector<std::vector<uint64_t>> nets_next;
    /** Per array (dense array id order): element words, depth-major. */
    std::vector<std::vector<uint64_t>> arrays;
    /** Element word count per array (layout round-trip check). */
    std::vector<uint32_t> array_elem_words;
    /**
     * The FLOP section: older writers listed the nets tick lambdas
     * had flopped by the capture; now that the flop set is fixed at
     * construction it is written empty. snapRestore() only checks
     * that each listed net is in the kernel's flop set.
     */
    std::vector<int> flop_nets;
    /** (hierarchical model name, opaque Model::snapSave blob). */
    std::vector<std::pair<std::string, std::string>> model_state;
    /**
     * Arena layout name of the capturing simulator ("elab" from every
     * current writer; older images may say "profile"; empty on
     * version-1 images). Purely informational — excluded from
     * digest(), never constrains restoration (state is logical-net
     * ordered).
     */
    std::string layout_policy;

    /** Serialize to the versioned, checksummed byte image. */
    std::string encode() const;
    /** Parse and verify an image; throws SnapError on any defect. */
    static SimSnapshot decode(const std::string &bytes);
    /**
     * Order-sensitive FNV-1a digest of the architectural state (nets,
     * next-phase values, arrays, model blobs — not the cycle counter),
     * the comparison key of findDivergence.
     */
    uint64_t digest() const;
};

/**
 * Structural fingerprint of an elaborated design: hashes every net's
 * name/width/flop class and every array's name/width/depth, so a
 * snapshot can refuse restoration into a different design.
 */
uint64_t designFingerprint(const Elaboration &elab);

/** Capture the complete state of @p sim (call between cycles). */
SimSnapshot snapSave(const Simulator &sim);

/**
 * Restore @p snap into @p sim, which must be a freshly constructed (or
 * at least quiescent) simulator of the same design on any backend or
 * thread count. Verifies the design fingerprint, restores every net's
 * current and next-phase value, every array element, the per-model
 * host state and the cycle counter, after checking that every net the
 * image's FLOP list names is in the simulator's flop set.
 * Attach VcdWriters *after* restoring so the initial dump sees the
 * restored values. Throws SnapError on any mismatch.
 */
void snapRestore(Simulator &sim, const SimSnapshot &snap);

/** encode() + write-to-temp + atomic rename onto @p path. */
void snapSaveFile(const Simulator &sim, const std::string &path);

/** Read and decode @p path; throws SnapError on any defect. */
SimSnapshot snapLoadFile(const std::string &path);

/**
 * snapSave(sim).digest(), one number summarizing the whole state,
 * hashed as it is read from @p sim without building the snapshot.
 */
uint64_t stateDigest(const Simulator &sim);

/**
 * Models that own lambda blocks (TickFl/TickCl/CombLambda) but
 * serialize no host state — candidates for silent state loss across a
 * checkpoint. Conservative: a stateless lambda model is listed too.
 */
std::vector<std::string> opaqueStateModels(const Elaboration &elab);

/**
 * Periodic auto-checkpointing with crash-safe writes and rotation.
 *
 * attach() registers an onCycleEnd hook that rewrites @p path every
 * @p every_n_cycles cycles: the image is written to a temporary file
 * and renamed into place, so a crash mid-write never corrupts the
 * last good checkpoint. The most recent @p keep_last cycle-stamped
 * copies ("path.<cycle>") are kept alongside the stable latest.
 * The manager must outlive the simulator's cycling.
 *
 * A non-empty @p tag scopes every filename the manager touches to
 * "path.tag" (latest) and "path.tag.<cycle>" (rotation), so multiple
 * writers — e.g. two SimServer jobs checkpointing the same design to
 * the same base path — never clobber each other's latest image or
 * rotation set. Tags are the job-id convention of the server
 * scheduler ("job<N>") but any filename-safe string works.
 */
class CheckpointManager
{
  public:
    explicit CheckpointManager(std::string path, uint64_t every_n_cycles,
                               int keep_last = 3, std::string tag = "");

    /** Register the periodic hook on @p sim. */
    void attach(Simulator &sim);
    /** Write a checkpoint right now (atomic rename + rotation). */
    void save(const Simulator &sim, uint64_t cycle);

    /** The effective (tag-scoped) path of the stable latest image. */
    const std::string &path() const { return path_; }
    const std::string &tag() const { return tag_; }
    uint64_t everyCycles() const { return every_; }
    const std::vector<std::string> &rotated() const { return rotated_; }
    uint64_t lastSavedCycle() const { return last_cycle_; }
    double lastSaveMs() const { return last_ms_; }

  private:
    std::string path_;
    std::string tag_;
    uint64_t every_;
    int keep_last_;
    std::vector<std::string> rotated_;
    uint64_t last_cycle_ = 0;
    double last_ms_ = 0.0;
};

/**
 * Stimulus record-replay: logs the values of chosen nets (typically
 * the message/valid signals at val/rdy sources driven by host code)
 * after every cycle, so a restored run can replay the exact injected
 * stimulus without re-running the original driver.
 *
 * Record: declare channels, attachRecorder(sim), run the driver as
 * usual. Replay: before each cycle call applyTo(sim) — it writes the
 * recorded entry for the cycle the simulator is about to execute
 * (entries before a restored snapshot's cycle are skipped naturally)
 * and returns false once the tape is exhausted.
 */
class StimTape
{
  public:
    /** Track @p sig (elaborated) as a stimulus channel. */
    void channel(const Signal &sig);

    /**
     * Track a channel by hierarchical name and width, resolved lazily
     * against the first design the tape is applied to. This is how
     * synthetic tapes (the SimFuzz stimulus generator) declare their
     * channels without an elaborated signal in hand.
     */
    void channel(const std::string &name, int nbits);

    /**
     * Append one entry — one value per channel, in channel order —
     * to a programmatically built tape. Throws SnapError when the
     * value count or any width disagrees with the channel table.
     * Mutually composable with decode()/encode() but not with
     * attachRecorder (a tape has exactly one producer).
     */
    void append(const std::vector<Bits> &values);

    /** Record mode: append tracked values after every cycle. */
    void attachRecorder(Simulator &sim);

    /** Replay the entry for sim.numCycles(); false past the end. */
    bool applyTo(Simulator &sim);

    uint64_t startCycle() const { return start_; }
    uint64_t endCycle() const { return start_ + nentries_; }
    size_t numChannels() const { return chans_.size(); }

    std::string encode() const;
    static StimTape decode(const std::string &bytes);
    void saveFile(const std::string &path) const;
    static StimTape loadFile(const std::string &path);

  private:
    struct Chan
    {
        std::string name; //!< hierarchical signal name
        int nbits = 0;
        int net = -1; //!< resolved lazily against an Elaboration
    };

    void bind(const Elaboration &elab);
    size_t entryWords() const;

    std::vector<Chan> chans_;
    uint64_t start_ = 0;
    uint64_t nentries_ = 0;
    /** Entry-major: nentries_ x entryWords() channel value words. */
    std::vector<uint64_t> words_;
    bool bound_ = false;
};

/** Where and how two executions first disagree. */
struct DivergenceReport
{
    bool diverged = false;
    /**
     * numCycles() after the first cycle whose states differ or that
     * threw; the starting cycle when the sides differ before any cycle.
     */
    uint64_t first_divergent_cycle = 0;
    /** Hierarchical names of nets whose cur/next values differ. */
    std::vector<std::string> divergent_nets;
    /** Hierarchical names of arrays with differing elements. */
    std::vector<std::string> divergent_arrays;
    /** Models whose serialized host state differs. */
    std::vector<std::string> divergent_models;
    /** "side a|b threw: <what>" when a side threw; empty otherwise. */
    std::string error;

    std::string summary() const;
};

/**
 * Runs @p a and @p b in lockstep for up to @p cycles cycles and finds
 * the first cycle at which they disagree: the equivalence oracle of
 * backend bring-up and of SimFuzz.
 *
 * The two simulators hold the same design (different backends, thread
 * counts, or an intentionally perturbed variant) at the same cycle;
 * to start from a snapshot, snapRestore both first. State digests
 * (stateDigest) are compared before the first cycle and after every
 * cycle; snapshots are taken only where they differ. The search
 * stops at the first difference, naming the nets, arrays and models
 * that differ there, or at the first exception a side throws from
 * @p stim or cycle(), which counts as a divergence carrying its
 * message. @p stim, if given, runs on each side before each of its
 * cycles, e.g. `[&tape](Simulator &s) { tape.applyTo(s); }`.
 */
DivergenceReport
findDivergence(Simulator &a, Simulator &b, uint64_t cycles,
               const std::function<void(Simulator &)> &stim = {});

} // namespace cmtl

#endif // CMTL_CORE_SNAP_H
