#include "test_memory.h"

#include <stdexcept>

namespace cmtl {
namespace stdlib {

TestMemory::TestMemory(Model *parent, const std::string &name, int nports,
                       int latency)
    : Model(parent, name), types_(memIfcTypes()), latency_(latency)
{
    if (latency < 1)
        throw std::invalid_argument("TestMemory latency must be >= 1");
    for (int i = 0; i < nports; ++i) {
        ifc.emplace_back(this, "ifc" + std::to_string(i), types_);
        adapters_.emplace_back(ifc.back(), /*capacity=*/4);
    }
    pending_.resize(nports);

    std::vector<Signal *> writes;
    for (const auto &ad : adapters_) {
        const std::vector<Signal *> w = ad.writes();
        writes.insert(writes.end(), w.begin(), w.end());
    }
    tickFl("mem_logic", [this, nports] {
        ++now_;
        for (int p = 0; p < nports; ++p) {
            auto &ad = adapters_[p];
            ad.xtick();
            // Accept one request per port per cycle.
            if (!ad.req_q.empty()) {
                Bits req = ad.getReq();
                uint64_t type = types_.req.get(req, "type").toUint64();
                uint64_t addr = types_.req.get(req, "addr").toUint64();
                uint64_t data = types_.req.get(req, "data").toUint64();
                Bits resp(types_.resp.nbits());
                if (type == static_cast<uint64_t>(MemReqType::Read)) {
                    resp = types_.resp.pack({0, readWord(addr)});
                } else {
                    writeWord(addr, static_cast<uint32_t>(data));
                    resp = types_.resp.pack({1, 0});
                }
                pending_[p].push_back(
                    Pending{now_ + static_cast<uint64_t>(latency_) - 1,
                            resp});
                ++num_requests_;
            }
            // Deliver due responses, respecting backpressure.
            if (!pending_[p].empty() &&
                pending_[p].front().due_cycle <= now_ &&
                !ad.resp_q.full()) {
                ad.pushResp(pending_[p].front().resp);
                pending_[p].pop_front();
            }
        }
    }, writes);
}

uint32_t
TestMemory::readWord(uint64_t addr) const
{
    auto it = words_.find(addr >> 2);
    return it == words_.end() ? 0 : it->second;
}

void
TestMemory::writeWord(uint64_t addr, uint32_t value)
{
    words_[addr >> 2] = value;
}

std::string
TestMemory::lineTrace() const
{
    std::string out;
    for (size_t p = 0; p < pending_.size(); ++p) {
        if (!out.empty())
            out += " ";
        out += "m" + std::to_string(p) + ":" +
               std::to_string(pending_[p].size());
    }
    return out;
}

} // namespace stdlib
} // namespace cmtl
