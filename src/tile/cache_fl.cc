#include "cache.h"

namespace cmtl {
namespace tile {

CacheFL::CacheFL(Model *parent, const std::string &name)
    : CacheBase(parent, name)
{
    proc_ = std::make_unique<stdlib::ChildReqRespQueueAdapter>(proc_ifc,
                                                               4);
    mem_ = std::make_unique<stdlib::ParentReqRespQueueAdapter>(mem_ifc,
                                                               4);
    tickFl("cache_logic", [this] {
        proc_->xtick();
        mem_->xtick();
        // Forward requests and responses without modeling any timing.
        while (!proc_->req_q.empty() && !mem_->req_q.full()) {
            mem_->pushReq(proc_->getReq());
            ++accesses_;
        }
        while (!mem_->resp_q.empty() && !proc_->resp_q.full())
            proc_->pushResp(mem_->getResp());
    }, stdlib::writesOf(*proc_, *mem_));
}

} // namespace tile
} // namespace cmtl
