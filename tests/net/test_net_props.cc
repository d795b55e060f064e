/**
 * Network invariant properties, checked across implementation levels
 * and random configurations:
 *   - conservation: no message is lost or duplicated;
 *   - point-to-point ordering: XY dimension-ordered routing delivers
 *     same-source/same-destination messages in order;
 *   - payload integrity: messages arrive unmodified at the right
 *     terminal.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "core/sim.h"
#include "net/traffic.h"

namespace cmtl {
namespace {

using namespace net;

/** Harness injecting hand-built messages and logging ejections. */
class PropHarness : public Model
{
  public:
    struct Received
    {
        int terminal;
        Bits msg;
        uint64_t cycle;
    };

    std::unique_ptr<Model> holder;
    std::deque<InValRdy> *nin = nullptr;
    std::deque<OutValRdy> *nout = nullptr;
    BitStructLayout layout;
    std::vector<std::deque<Bits>> srcq;
    std::vector<Received> received;
    uint64_t now = 0;

    PropHarness(NetLevel level, int nrouters)
        : Model(nullptr, "prop"), layout(makeNetMsg(nrouters, 16, 16)),
          srcq(nrouters)
    {
        switch (level) {
          case NetLevel::FL: {
            auto net = std::make_unique<NetworkFL>(this, "net",
                                                   nrouters, 16, 16, 4);
            nin = &net->in_;
            nout = &net->out;
            holder = std::move(net);
            break;
          }
          case NetLevel::CL: {
            auto net = std::make_unique<MeshNetworkCL>(
                this, "net", nrouters, 16, 16, 4);
            nin = &net->in_;
            nout = &net->out;
            holder = std::move(net);
            break;
          }
          case NetLevel::CLSpec: {
            auto net = std::make_unique<MeshNetworkCLSpec>(
                this, "net", nrouters, 16, 16, 4);
            nin = &net->in_;
            nout = &net->out;
            holder = std::move(net);
            break;
          }
          case NetLevel::RTL: {
            auto net = std::make_unique<MeshNetworkRTL>(
                this, "net", nrouters, 16, 16, 4);
            nin = &net->in_;
            nout = &net->out;
            holder = std::move(net);
            break;
          }
        }
        const int n = nrouters;
        std::vector<Signal *> writes;
        for (int t = 0; t < n; ++t) {
            writes.insert(writes.end(),
                          {&(*nout)[t].rdy, &(*nin)[t].val, &(*nin)[t].msg});
        }
        tickFl("drive", [this, n] {
            for (int t = 0; t < n; ++t) {
                if ((*nout)[t].fire())
                    received.push_back(
                        Received{t, (*nout)[t].msg.value(), now});
                (*nout)[t].rdy.setNext(uint64_t(1));
                if ((*nin)[t].fire())
                    srcq[t].pop_front();
                bool have = !srcq[t].empty();
                (*nin)[t].val.setNext(uint64_t(have ? 1 : 0));
                if (have)
                    (*nin)[t].msg.setNext(srcq[t].front());
            }
            ++now;
        }, writes);
    }

    void
    inject(int src, int dest, uint64_t payload)
    {
        srcq[src].push_back(layout.pack(
            {static_cast<uint64_t>(dest), static_cast<uint64_t>(src),
             payload & 0xf, payload & 0xffff}));
    }

    uint64_t
    pendingAtSources() const
    {
        uint64_t total = 0;
        for (const auto &q : srcq)
            total += q.size();
        return total;
    }
};

class NetProps
    : public ::testing::TestWithParam<std::tuple<NetLevel, int>>
{};

TEST_P(NetProps, ConservationOrderingAndIntegrity)
{
    auto [level, seed] = GetParam();
    const int n = 16;
    PropHarness h(level, n);
    std::mt19937_64 rng(static_cast<uint64_t>(seed) * 17 + 3);

    // Inject a random batch with per-(src,dest) sequence numbers.
    std::map<std::pair<int, int>, uint64_t> seq;
    const int kMessages = 300;
    for (int i = 0; i < kMessages; ++i) {
        int src = static_cast<int>(rng() % n);
        int dest = static_cast<int>(rng() % n);
        uint64_t s = seq[{src, dest}]++;
        h.inject(src, dest, s);
    }

    auto elab = h.elaborate();
    SimulationTool sim(elab);
    sim.reset();
    int guard = 0;
    while ((h.pendingAtSources() > 0 ||
            h.received.size() < static_cast<size_t>(kMessages)) &&
           ++guard < 20000)
        sim.cycle();

    // Conservation: exactly the injected messages arrive.
    ASSERT_EQ(h.received.size(), static_cast<size_t>(kMessages))
        << netLevelName(level);

    std::map<std::pair<int, int>, uint64_t> next_expected;
    std::map<std::pair<int, int>, uint64_t> count;
    for (const auto &r : h.received) {
        int dest = static_cast<int>(
            h.layout.get(r.msg, "dest").toUint64());
        int src = static_cast<int>(h.layout.get(r.msg, "src").toUint64());
        uint64_t payload = h.layout.get(r.msg, "payload").toUint64();
        // Integrity: ejected at the addressed terminal.
        EXPECT_EQ(dest, r.terminal);
        // Point-to-point ordering under dimension-ordered routing.
        auto key = std::make_pair(src, dest);
        uint64_t expected_seq = next_expected[key] & 0xffff;
        EXPECT_EQ(payload, expected_seq)
            << "src " << src << " dest " << dest;
        ++next_expected[key];
        ++count[key];
    }
    for (const auto &[key, expected] : seq)
        EXPECT_EQ(count[key], expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NetProps,
    ::testing::Combine(::testing::Values(NetLevel::FL, NetLevel::CL,
                                         NetLevel::CLSpec,
                                         NetLevel::RTL),
                       ::testing::Values(1, 2, 3)),
    [](const auto &info) {
        return std::string(netLevelName(std::get<0>(info.param))) +
               "_s" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace cmtl
