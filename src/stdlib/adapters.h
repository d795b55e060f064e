/**
 * @file
 * Queue adapters: programmer-friendly FL/CL views of val/rdy bundles
 * (PyMTL's ChildReqRespQueueAdapter / ParentReqRespQueueAdapter).
 *
 * An adapter hides the latency-insensitive handshake behind a small
 * software queue. The owning model calls xtick() once at the top of
 * its tick block; afterwards it can treat the interface as deques:
 * pop requests, push responses, and the adapter drives val/rdy/msg
 * with correct backpressure. All output driving uses non-blocking
 * (setNext) writes, so adapters behave identically under every
 * scheduling mode. writes() lists the signals xtick() drives, for the
 * tick block's declared writes (writesOf() joins several adapters').
 */

#ifndef CMTL_STDLIB_ADAPTERS_H
#define CMTL_STDLIB_ADAPTERS_H

#include <deque>
#include <vector>

#include "stdlib/reqresp.h"

namespace cmtl {
namespace stdlib {

/** The signals the xtick() of every adapter in @p adapters drives. */
template <class... Adapters>
std::vector<Signal *>
writesOf(const Adapters &...adapters)
{
    std::vector<Signal *> out;
    auto add = [&out](const std::vector<Signal *> &writes) {
        out.insert(out.end(), writes.begin(), writes.end());
    };
    (add(adapters.writes()), ...);
    return out;
}

/** Receiving-side adapter: an InValRdy that fills a software queue. */
class InQueueAdapter
{
  public:
    InQueueAdapter(InValRdy &ifc, size_t capacity = 2)
        : ifc_(ifc), capacity_(capacity)
    {}

    /** Sample a completed transfer and re-drive rdy. Call every tick. */
    void
    xtick()
    {
        if (ifc_.val.u64() && ifc_.rdy.u64())
            q_.push_back(ifc_.msg.value());
        ifc_.rdy.setNext(uint64_t(q_.size() < capacity_ ? 1 : 0));
    }
    std::vector<Signal *> writes() const { return {&ifc_.rdy}; }

    bool empty() const { return q_.empty(); }
    size_t size() const { return q_.size(); }
    const Bits &front() const { return q_.front(); }

    Bits
    pop()
    {
        Bits msg = q_.front();
        q_.pop_front();
        return msg;
    }

  private:
    InValRdy &ifc_;
    std::deque<Bits> q_;
    size_t capacity_;
};

/** Sending-side adapter: a software queue draining an OutValRdy. */
class OutQueueAdapter
{
  public:
    OutQueueAdapter(OutValRdy &ifc, size_t capacity = 2)
        : ifc_(ifc), capacity_(capacity)
    {}

    void
    xtick()
    {
        if (ifc_.val.u64() && ifc_.rdy.u64())
            q_.pop_front();
        ifc_.val.setNext(uint64_t(q_.empty() ? 0 : 1));
        if (!q_.empty())
            ifc_.msg.setNext(q_.front());
    }
    std::vector<Signal *> writes() const { return {&ifc_.val, &ifc_.msg}; }

    bool full() const { return q_.size() >= capacity_; }
    bool empty() const { return q_.empty(); }

    void push(const Bits &msg) { q_.push_back(msg); }

  private:
    OutValRdy &ifc_;
    std::deque<Bits> q_;
    size_t capacity_;
};

/** Serving-side request/response adapter (paper Figure 7/8). */
class ChildReqRespQueueAdapter
{
  public:
    explicit ChildReqRespQueueAdapter(ChildReqRespBundle &ifc,
                                      size_t capacity = 2)
        : types(ifc.types), req_q(ifc.req, capacity),
          resp_q(ifc.resp, capacity)
    {}

    void
    xtick()
    {
        req_q.xtick();
        resp_q.xtick();
    }
    std::vector<Signal *> writes() const { return writesOf(req_q, resp_q); }

    Bits getReq() { return req_q.pop(); }
    void pushResp(const Bits &msg) { resp_q.push(msg); }
    void
    pushResp(uint64_t value)
    {
        resp_q.push(Bits(types.resp.nbits(), value));
    }

    ReqRespIfcTypes types;
    InQueueAdapter req_q;
    OutQueueAdapter resp_q;
};

/** Initiating-side request/response adapter (paper Figure 8). */
class ParentReqRespQueueAdapter
{
  public:
    explicit ParentReqRespQueueAdapter(ParentReqRespBundle &ifc,
                                       size_t capacity = 2)
        : types(ifc.types), req_q(ifc.req, capacity),
          resp_q(ifc.resp, capacity)
    {}

    void
    xtick()
    {
        req_q.xtick();
        resp_q.xtick();
    }
    std::vector<Signal *> writes() const { return writesOf(req_q, resp_q); }

    void pushReq(const Bits &msg) { req_q.push(msg); }
    Bits getResp() { return resp_q.pop(); }

    ReqRespIfcTypes types;
    OutQueueAdapter req_q;
    InQueueAdapter resp_q;
};

} // namespace stdlib
} // namespace cmtl

#endif // CMTL_STDLIB_ADAPTERS_H
