#include "dotprod.h"

#include <numeric>

namespace cmtl {
namespace tile {

DotProductCL::DotProductCL(Model *parent, const std::string &name)
    : DotProductBase(parent, name)
{
    cpu_ = std::make_unique<stdlib::ChildReqRespQueueAdapter>(cpu_ifc);
    mem_ = std::make_unique<stdlib::ParentReqRespQueueAdapter>(mem_ifc, 4);

    tickCl("logic", [this] {
        cpu_->xtick();
        mem_->xtick();
        const auto &creq = cpu_->types.req;

        if (go_) {
            // Pipelined issue: push requests while backpressure allows
            // (paper Figure 8, lines 23-26).
            if (!addrs_.empty() && !mem_->req_q.full()) {
                mem_->pushReq(makeMemReq(mem_->types.req,
                                         MemReqType::Read,
                                         addrs_.front()));
                addrs_.pop_front();
            }
            if (!mem_->resp_q.empty()) {
                Bits resp = mem_->getResp();
                data_.push_back(static_cast<uint32_t>(
                    mem_->types.resp.get(resp, "data").toUint64()));
            }
            if (data_.size() == 2 * size_ && !cpu_->resp_q.full()) {
                // Interleaved stream: even elements from src0, odd
                // from src1 (paper Figure 8, line 29).
                uint32_t result = 0;
                for (uint32_t i = 0; i < size_; ++i)
                    result += data_[2 * i] * data_[2 * i + 1];
                cpu_->pushResp(result);
                go_ = false;
            }
        } else if (!cpu_->req_q.empty() && !cpu_->resp_q.full()) {
            Bits req = cpu_->getReq();
            uint64_t ctrl = creq.get(req, "ctrl_msg").toUint64();
            uint32_t data = static_cast<uint32_t>(
                creq.get(req, "data").toUint64());
            switch (ctrl) {
              case 1: size_ = data; break;
              case 2: src0_ = data; break;
              case 3: src1_ = data; break;
              case 0:
                // Pre-generate the interleaved address stream (paper
                // Figure 8, line 39).
                addrs_.clear();
                data_.clear();
                for (uint32_t i = 0; i < size_; ++i) {
                    addrs_.push_back(src0_ + i * 4);
                    addrs_.push_back(src1_ + i * 4);
                }
                go_ = true;
                break;
              default: break;
            }
        }
    }, stdlib::writesOf(*cpu_, *mem_));
}

std::string
DotProductCL::lineTrace() const
{
    if (!go_)
        return "A:idle";
    return "A:" + std::to_string(addrs_.size()) + "/" +
           std::to_string(data_.size());
}

} // namespace tile
} // namespace cmtl
