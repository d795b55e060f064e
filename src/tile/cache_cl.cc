#include "cache.h"

namespace cmtl {
namespace tile {

CacheCL::CacheCL(Model *parent, const std::string &name, int nlines)
    : CacheBase(parent, name), lines_(nlines), nlines_(nlines)
{
    proc_ = std::make_unique<stdlib::ChildReqRespQueueAdapter>(proc_ifc,
                                                               4);
    mem_ = std::make_unique<stdlib::ParentReqRespQueueAdapter>(mem_ifc,
                                                               8);

    tickCl("cache_logic", [this] {
        proc_->xtick();
        mem_->xtick();
        const auto &req_t = proc_->types.req;
        const auto &resp_t = proc_->types.resp;

        auto index_of = [&](uint32_t addr) {
            return (addr >> 4) & (static_cast<uint32_t>(nlines_) - 1);
        };
        auto tag_of = [&](uint32_t addr) {
            return addr >> (4 + bitsFor(nlines_));
        };

        // Drain memory responses: refill words or write acks.
        while (!mem_->resp_q.empty() && !mem_pending_.empty()) {
            Bits resp = mem_->getResp();
            int kind = mem_pending_.front();
            mem_pending_.pop_front();
            if (kind < 0) {
                --outstanding_writes_;
            } else {
                refill_data_[kind] = static_cast<uint32_t>(
                    mem_->types.resp.get(resp, "data").toUint64());
                ++refill_received_;
            }
        }

        // Finish a refill: install the line and answer the request.
        if (refilling_ && refill_received_ == kWordsPerLine &&
            !proc_->resp_q.full()) {
            Line &line = lines_[index_of(refill_addr_)];
            line.valid = true;
            line.tag = tag_of(refill_addr_);
            for (int w = 0; w < kWordsPerLine; ++w)
                line.data[w] = refill_data_[w];
            uint32_t word = (refill_addr_ >> 2) & (kWordsPerLine - 1);
            proc_->pushResp(resp_t.pack({0, line.data[word]}));
            refilling_ = false;
        }

        // Accept one processor request per cycle.
        if (!refilling_ && !proc_->req_q.empty() &&
            !proc_->resp_q.full()) {
            Bits req = proc_->req_q.front();
            uint64_t type = req_t.get(req, "type").toUint64();
            uint32_t addr = static_cast<uint32_t>(
                req_t.get(req, "addr").toUint64());
            uint32_t data = static_cast<uint32_t>(
                req_t.get(req, "data").toUint64());
            Line &line = lines_[index_of(addr)];
            bool hit = line.valid && line.tag == tag_of(addr);
            uint32_t word = (addr >> 2) & (kWordsPerLine - 1);

            if (type == static_cast<uint64_t>(MemReqType::Write)) {
                // Write-through, no-allocate; ack immediately.
                if (mem_->req_q.full())
                    return;
                proc_->getReq();
                ++accesses_;
                if (hit)
                    line.data[word] = data;
                mem_->pushReq(makeMemReq(mem_->types.req,
                                         MemReqType::Write, addr,
                                         data));
                mem_pending_.push_back(-1);
                ++outstanding_writes_;
                proc_->pushResp(resp_t.pack({1, 0}));
            } else if (hit) {
                proc_->getReq();
                ++accesses_;
                proc_->pushResp(resp_t.pack({0, line.data[word]}));
            } else {
                // Read miss: refill the whole line, but only once all
                // outstanding writes have drained (write-through
                // ordering) and the request queue has room.
                if (outstanding_writes_ > 0 ||
                    mem_->req_q.full())
                    return;
                proc_->getReq();
                ++accesses_;
                ++misses_;
                refilling_ = true;
                refill_received_ = 0;
                refill_addr_ = addr;
                uint32_t base = addr & ~((kWordsPerLine * 4) - 1);
                for (int w = 0; w < kWordsPerLine; ++w) {
                    mem_->pushReq(makeMemReq(
                        mem_->types.req, MemReqType::Read,
                        base + static_cast<uint32_t>(w) * 4));
                    mem_pending_.push_back(w);
                }
            }
        }
    }, stdlib::writesOf(*proc_, *mem_));
}

std::string
CacheCL::lineTrace() const
{
    return refilling_ ? "$:miss" : "$:    ";
}

} // namespace tile
} // namespace cmtl
