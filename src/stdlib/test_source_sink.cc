#include "test_source_sink.h"

#include "core/snap.h"

namespace cmtl {
namespace stdlib {

TestSource::TestSource(Model *parent, const std::string &name, int nbits,
                       std::vector<Bits> msgs, int interval)
    : Model(parent, name), out(this, "out", nbits), msgs_(std::move(msgs)),
      interval_(interval)
{
    tickFl("src_logic", [this] {
        if (out.fire()) {
            ++index_;
            wait_ = interval_;
        } else if (wait_ > 0 && out.val.u64() == 0) {
            --wait_;
        }
        bool send = index_ < msgs_.size() && wait_ == 0;
        out.val.setNext(uint64_t(send ? 1 : 0));
        if (send)
            out.msg.setNext(msgs_[index_]);
    }, {&out.val, &out.msg});
}

void
TestSource::snapSave(SnapWriter &w) const
{
    w.u64(index_);
    w.u32(static_cast<uint32_t>(wait_));
}

void
TestSource::snapLoad(SnapReader &r)
{
    index_ = r.u64();
    wait_ = static_cast<int>(r.u32());
}

std::string
TestSource::lineTrace() const
{
    if (done())
        return ".";
    return out.val.u64() ? out.msg.value().toHexString() : " ";
}

TestSink::TestSink(Model *parent, const std::string &name, int nbits,
                   std::vector<Bits> expected, int interval)
    : Model(parent, name), in_(this, "in_", nbits),
      expected_(std::move(expected)), interval_(interval)
{
    tickFl("sink_logic", [this] {
        if (in_.fire()) {
            Bits got = in_.msg.value();
            if (index_ >= expected_.size()) {
                errors_.push_back("unexpected extra message " +
                                  got.toHexString());
            } else if (!(got == expected_[index_])) {
                errors_.push_back(
                    "message " + std::to_string(index_) + ": expected " +
                    expected_[index_].toHexString() + ", got " +
                    got.toHexString());
            }
            ++index_;
            wait_ = interval_;
        } else if (wait_ > 0) {
            --wait_;
        }
        bool accept = wait_ == 0;
        in_.rdy.setNext(uint64_t(accept ? 1 : 0));
    }, {&in_.rdy});
}

void
TestSink::snapSave(SnapWriter &w) const
{
    w.u64(index_);
    w.u32(static_cast<uint32_t>(wait_));
    w.u32(static_cast<uint32_t>(errors_.size()));
    for (const std::string &err : errors_)
        w.str(err);
}

void
TestSink::snapLoad(SnapReader &r)
{
    index_ = r.u64();
    wait_ = static_cast<int>(r.u32());
    errors_.clear();
    uint32_t nerrors = r.u32();
    for (uint32_t i = 0; i < nerrors; ++i)
        errors_.push_back(r.str());
}

std::string
TestSink::lineTrace() const
{
    if (done())
        return ".";
    return in_.fire() ? in_.msg.value().toHexString() : " ";
}

} // namespace stdlib
} // namespace cmtl
