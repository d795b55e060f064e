#include "arbiter.h"

namespace cmtl {
namespace tile {

MemArbiter::MemArbiter(Model *parent, const std::string &name)
    : Model(parent, name)
{
    for (int p = 0; p < 2; ++p) {
        child_.emplace_back(this, "child" + std::to_string(p),
                            memIfcTypes());
        adapters_.emplace_back(child_.back(), 4);
    }
    mem_ = std::make_unique<stdlib::ParentReqRespQueueAdapter>(
        *(parent_ifc_ = std::make_unique<ParentReqRespBundle>(
              this, "mem_ifc", memIfcTypes())),
        4);

    std::vector<Signal *> writes = mem_->writes();
    for (const auto &ad : adapters_) {
        const std::vector<Signal *> w = ad.writes();
        writes.insert(writes.end(), w.begin(), w.end());
    }
    tickCl("arb_logic", [this] {
        for (auto &ad : adapters_)
            ad.xtick();
        mem_->xtick();
        // Route responses back to the owning requester, in order.
        while (!mem_->resp_q.empty() && !owners_.empty()) {
            int owner = owners_.front();
            if (adapters_[owner].resp_q.full())
                break;
            adapters_[owner].pushResp(mem_->getResp());
            owners_.pop_front();
        }
        // Round-robin request arbitration, one grant per cycle.
        for (int k = 0; k < 2 && !mem_->req_q.full(); ++k) {
            int p = (rr_ + k) % 2;
            if (!adapters_[p].req_q.empty()) {
                mem_->pushReq(adapters_[p].getReq());
                owners_.push_back(p);
                rr_ = (p + 1) % 2;
                break;
            }
        }
    }, writes);
}

} // namespace tile
} // namespace cmtl
