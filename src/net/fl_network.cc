#include "fl_network.h"

#include "core/snap.h"

namespace cmtl {
namespace net {

NetworkFL::NetworkFL(Model *parent, const std::string &name, int nrouters,
                     int nmsgs, int payload_nbits, int nentries)
    : Model(parent, name), msg_(makeNetMsg(nrouters, nmsgs, payload_nbits)),
      nrouters_(nrouters), nentries_(nentries)
{
    meshDim(nrouters); // validate: must be a perfect square
    for (int i = 0; i < nrouters; ++i) {
        in_.emplace_back(this, "in_" + std::to_string(i), msg_.nbits());
        out.emplace_back(this, "out" + std::to_string(i), msg_.nbits());
    }
    output_fifos_.resize(nrouters);

    std::vector<Signal *> writes;
    for (int i = 0; i < nrouters; ++i)
        writes.insert(writes.end(), {&out[i].val, &out[i].msg, &in_[i].rdy});
    tickFl("network_logic", [this] {
        // Dequeue logic: a transfer completed on each firing output.
        for (int i = 0; i < nrouters_; ++i) {
            if (out[i].fire())
                output_fifos_[i].pop_front();
        }
        // Enqueue logic: route every arriving message to its
        // destination FIFO ("magic" single-cycle crossbar).
        for (int i = 0; i < nrouters_; ++i) {
            if (in_[i].fire()) {
                Bits msg = in_[i].msg.value();
                uint64_t dest = msg_.get(msg, "dest").toUint64();
                output_fifos_[dest].push_back(msg);
            }
        }
        // Set output signals.
        for (int i = 0; i < nrouters_; ++i) {
            bool is_full =
                output_fifos_[i].size() >=
                static_cast<size_t>(nentries_);
            bool is_empty = output_fifos_[i].empty();
            out[i].val.setNext(uint64_t(is_empty ? 0 : 1));
            in_[i].rdy.setNext(uint64_t(is_full ? 0 : 1));
            if (!is_empty)
                out[i].msg.setNext(output_fifos_[i].front());
        }
    }, writes);
}

void
NetworkFL::snapSave(SnapWriter &w) const
{
    w.u32(static_cast<uint32_t>(output_fifos_.size()));
    for (const auto &fifo : output_fifos_) {
        w.u32(static_cast<uint32_t>(fifo.size()));
        for (const Bits &msg : fifo)
            w.bits(msg);
    }
}

void
NetworkFL::snapLoad(SnapReader &r)
{
    uint32_t nfifos = r.u32();
    if (nfifos != output_fifos_.size())
        throw SnapError("NetworkFL: snapshot has " +
                        std::to_string(nfifos) +
                        " output fifo(s), model has " +
                        std::to_string(output_fifos_.size()));
    for (auto &fifo : output_fifos_) {
        fifo.clear();
        uint32_t n = r.u32();
        for (uint32_t i = 0; i < n; ++i)
            fifo.push_back(r.bits());
    }
}

} // namespace net
} // namespace cmtl
