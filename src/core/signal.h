/**
 * @file
 * Signals: ports and wires of a CMTL model.
 *
 * A Signal is declared as a value member of a Model (or inside a
 * std::deque for port lists) and registers itself with its owning model
 * on construction. After elaboration every signal belongs to a *net*
 * (an equivalence class of structurally connected signals) identified
 * by a dense net id; after a simulator is constructed, reads and writes
 * on the signal are routed through the simulator's SignalAccess
 * backend, which differs per execution mode (boxed dictionary storage
 * for the CPython-analog interpreter, dense arena slots otherwise).
 *
 * The arena kernels additionally slot-bind narrow (<= 64-bit)
 * signals: reads then load the net's arena word inline, with no
 * virtual call and no Bits temporary, and so do the non-blocking
 * writes of the nets a tick lambda declares (Model::tickFl), whose
 * next-phase word is bound too, for that lambda only: the store
 * compares the running lambda with the declaring one, and any other
 * writer takes the virtual path. The sequential kernel binds every
 * narrow signal to its arena word. ParSim binds each to the word in
 * the net's home replica (its owner island's, or replica 0), since
 * only the coordinating thread uses the binding; signals a comb
 * lambda reads or writes stay unbound, because that lambda runs on a
 * worker thread against its own replica. Any other non-blocking write
 * takes the virtual path, which throws unless the running tick lambda
 * declares the net (a wide one, or one a second lambda declares too).
 * Blocking writes always take the virtual path, since they must
 * schedule readers (and, on ParSim, reach every replica).
 */

#ifndef CMTL_CORE_SIGNAL_H
#define CMTL_CORE_SIGNAL_H

#include <cstdint>
#include <string>

#include "bits.h"

namespace cmtl {

class Model;
class Signal;
struct ElabBlock; // model.h

/** No IR node: a signal's Ref node before its first rd() (ir.h). */
inline constexpr uint32_t kNoIrNode = ~uint32_t(0);

/** Direction of a signal relative to its owning model. */
enum class SignalDir { Input, Output, Wire };

/**
 * Simulator-provided backend for signal reads and writes.
 *
 * Test benches and FL/CL lambda blocks access signals through this
 * interface; the concrete implementation determines the cost model
 * (hash-lookup boxed values vs. direct arena slots).
 */
class SignalAccess
{
  public:
    virtual ~SignalAccess() = default;

    /** Current (combinationally settled) value. */
    virtual Bits read(const Signal &sig) const = 0;
    /** Blocking write: visible immediately (combinational update). */
    virtual void write(Signal &sig, const Bits &value) = 0;
    /** Non-blocking write: visible after the next clock edge. */
    virtual void writeNext(Signal &sig, const Bits &value) = 0;
};

/**
 * A named, fixed-width signal owned by a model.
 *
 * Signals are neither copyable nor movable: their address identifies
 * them in connection records and IR references.
 */
class Signal
{
  public:
    Signal(Model *owner, std::string name, int nbits, SignalDir dir);
    Signal(const Signal &) = delete;
    Signal &operator=(const Signal &) = delete;

    Model *owner() const { return owner_; }
    const std::string &name() const { return name_; }
    int nbits() const { return nbits_; }
    SignalDir dir() const { return dir_; }

    /** Hierarchical name, e.g. "top.router0.in_0.msg". */
    std::string fullName() const;

    /** Dense net id; valid after elaboration (-1 before). */
    int netId() const { return net_id_; }

    // --- Run-time access (valid once a simulator is attached) ------

    /** Current value. */
    Bits value() const { return slot_ ? Bits(nbits_, *slot_) : read(); }
    /** Current value as uint64 (low word). */
    uint64_t u64() const { return slot_ ? *slot_ : read().toUint64(); }
    /** Blocking write (".value =" in PyMTL). */
    void setValue(const Bits &v);
    void setValue(uint64_t v);
    /** Non-blocking write (".next =" in PyMTL). */
    void
    setNext(const Bits &v)
    {
        if (next_off_ && *running_ == writer_)
            slot_[next_off_] = v.toUint64() & valueMask();
        else
            writeNext(v);
    }
    void
    setNext(uint64_t v)
    {
        if (next_off_ && *running_ == writer_)
            slot_[next_off_] = v & valueMask();
        else
            writeNext(Bits(nbits_, v));
    }

    // --- Elaboration/simulator hooks (framework internal) ----------
    void setNetId(int id) { net_id_ = id; }
    /** Route access through @p access; drops any slot binding. */
    void
    setAccess(SignalAccess *access)
    {
        access_ = access;
        slot_ = nullptr;
        next_off_ = 0;
    }
    SignalAccess *access() const { return access_; }
    /**
     * Bind reads to the net's current-phase arena word (narrow nets
     * only). The word must outlive the binding: the simulator owning
     * it clears the binding through setAccess() before it goes away.
     */
    void bindSlot(uint64_t *slot) { slot_ = slot; }
    /**
     * Bind non-blocking writes too, to the word @p words_per_phase
     * past the current one, for the tick lambda @p writer that
     * declares the net: a store goes straight to the word while
     * *@p running is @p writer, and any other writer takes the virtual
     * path, which checks it. A kernel calls it while it is
     * constructed, for the nets tick lambdas declare.
     */
    void
    bindNextSlot(int words_per_phase, const ElabBlock *writer,
                 const ElabBlock *const *running)
    {
        next_off_ = words_per_phase;
        writer_ = writer;
        running_ = running;
    }
    bool slotBound() const { return slot_ != nullptr; }
    /**
     * Index of the signal's one IR Ref node in its model tree's arena;
     * the first rd() (ir.h) adds it.
     */
    uint32_t &irRef() { return ir_ref_; }

  private:
    /** Virtual-path read/writeNext; throw outside a simulation. */
    Bits read() const;
    void writeNext(const Bits &v);
    uint64_t valueMask() const { return ~uint64_t(0) >> (64 - nbits_); }

    Model *owner_;
    std::string name_;
    int nbits_;
    SignalDir dir_;
    int net_id_ = -1;
    int next_off_ = 0; //!< next-phase word offset from slot_; 0 = unbound
    SignalAccess *access_ = nullptr;
    uint64_t *slot_ = nullptr; //!< bound current-phase word, or null
    const ElabBlock *writer_ = nullptr; //!< the bound next word's lambda
    const ElabBlock *const *running_ = nullptr; //!< the running lambda
    uint32_t ir_ref_ = kNoIrNode;
};

/** An input port. */
class InPort : public Signal
{
  public:
    InPort(Model *owner, std::string name, int nbits)
        : Signal(owner, std::move(name), nbits, SignalDir::Input)
    {}
};

/** An output port. */
class OutPort : public Signal
{
  public:
    OutPort(Model *owner, std::string name, int nbits)
        : Signal(owner, std::move(name), nbits, SignalDir::Output)
    {}
};

/** An internal wire. */
class Wire : public Signal
{
  public:
    Wire(Model *owner, std::string name, int nbits)
        : Signal(owner, std::move(name), nbits, SignalDir::Wire)
    {}
};

} // namespace cmtl

#endif // CMTL_CORE_SIGNAL_H
