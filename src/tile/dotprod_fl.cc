#include "dotprod.h"

#include <numeric>

namespace cmtl {
namespace tile {

DotProductFL::DotProductFL(Model *parent, const std::string &name)
    : DotProductBase(parent, name)
{
    cpu_ = std::make_unique<stdlib::ChildReqRespQueueAdapter>(cpu_ifc);
    mem_ = std::make_unique<stdlib::ParentReqRespQueueAdapter>(mem_ifc);

    tickFl("logic", [this] {
        cpu_->xtick();
        mem_->xtick();
        const auto &creq = cpu_->types.req;

        if (running_) {
            // One element in flight at a time: the unpipelined FL
            // behaviour the paper contrasts against the CL model.
            if (waiting_resp_) {
                if (!mem_->resp_q.empty()) {
                    Bits resp = mem_->getResp();
                    elems_.push_back(static_cast<uint32_t>(
                        mem_->types.resp.get(resp, "data").toUint64()));
                    waiting_resp_ = false;
                    ++fetch_index_;
                }
            } else if (fetch_index_ < 2 * size_) {
                if (!mem_->req_q.full()) {
                    uint32_t base =
                        fetch_index_ < size_ ? src0_ : src1_;
                    uint32_t i = fetch_index_ < size_
                                     ? fetch_index_
                                     : fetch_index_ - size_;
                    mem_->pushReq(makeMemReq(mem_->types.req,
                                             MemReqType::Read,
                                             base + i * 4));
                    waiting_resp_ = true;
                }
            } else if (!cpu_->resp_q.full()) {
                // All data fetched: one library call computes the dot
                // product (the numpy.dot analog).
                uint32_t result = std::inner_product(
                    elems_.begin(), elems_.begin() + size_,
                    elems_.begin() + size_, uint32_t(0));
                cpu_->pushResp(result);
                running_ = false;
            }
            return;
        }

        if (!cpu_->req_q.empty() && !cpu_->resp_q.full()) {
            Bits req = cpu_->getReq();
            uint64_t ctrl = creq.get(req, "ctrl_msg").toUint64();
            uint32_t data = static_cast<uint32_t>(
                creq.get(req, "data").toUint64());
            switch (ctrl) {
              case 1: size_ = data; break;
              case 2: src0_ = data; break;
              case 3: src1_ = data; break;
              case 0:
                running_ = true;
                waiting_resp_ = false;
                fetch_index_ = 0;
                elems_.clear();
                break;
              default: break;
            }
        }
    }, stdlib::writesOf(*cpu_, *mem_));
}

std::string
DotProductFL::lineTrace() const
{
    return running_ ? "A:run " : "A:idle";
}

} // namespace tile
} // namespace cmtl
