/**
 * @file
 * Small reference models shared by the core test suites — the models
 * of the paper's Figure 2 (Register, Mux, MuxReg) plus a counter.
 */

#ifndef CMTL_TESTS_CORE_TEST_MODELS_H
#define CMTL_TESTS_CORE_TEST_MODELS_H

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/sim.h"

namespace cmtl {
namespace testmodels {

/** Paper Figure 2: a simple positive-edge register. */
class Register : public Model
{
  public:
    InPort in_;
    OutPort out;

    Register(Model *parent, const std::string &name, int nbits)
        : Model(parent, name), in_(this, "in_", nbits),
          out(this, "out", nbits)
    {
        auto &b = tickRtl("seq_logic");
        b.assign(out, rd(in_));
    }

    std::string
    typeName() const override
    {
        return "Register_" + std::to_string(in_.nbits());
    }
};

/** Paper Figure 2: an n-input mux built from an if-chain. */
class Mux : public Model
{
  public:
    std::deque<InPort> in_;
    InPort sel;
    OutPort out;

    Mux(Model *parent, const std::string &name, int nbits, int nports)
        : Model(parent, name), sel(this, "sel", bitsFor(nports)),
          out(this, "out", nbits)
    {
        for (int i = 0; i < nports; ++i)
            in_.emplace_back(this, "in_" + std::to_string(i), nbits);

        auto &b = combinational("comb_logic");
        IrExpr result = rd(in_[0]);
        for (int i = nports - 1; i >= 1; --i) {
            result = mux(rd(sel) == static_cast<uint64_t>(i), rd(in_[i]),
                         result);
        }
        b.assign(out, result);
    }

    std::string
    typeName() const override
    {
        return "Mux_" + std::to_string(out.nbits()) + "_" +
               std::to_string(in_.size());
    }
};

/** Paper Figure 2: mux feeding a register, composed structurally. */
class MuxReg : public Model
{
  public:
    std::deque<InPort> in_;
    InPort sel;
    OutPort out;
    Register reg_;
    Mux mux_;

    MuxReg(Model *parent, const std::string &name, int nbits = 8,
           int nports = 4)
        : Model(parent, name), sel(this, "sel", bitsFor(nports)),
          out(this, "out", nbits), reg_(this, "reg_", nbits),
          mux_(this, "mux", nbits, nports)
    {
        for (int i = 0; i < nports; ++i)
            in_.emplace_back(this, "in_" + std::to_string(i), nbits);

        connect(sel, mux_.sel);
        for (int i = 0; i < nports; ++i)
            connect(in_[i], mux_.in_[i]);
        connect(mux_.out, reg_.in_);
        connect(reg_.out, out);
    }

    std::string
    typeName() const override
    {
        return "MuxReg_" + std::to_string(out.nbits()) + "_" +
               std::to_string(in_.size());
    }
};

/** A resettable counter with enable, exercising reset + if/else. */
class Counter : public Model
{
  public:
    InPort en;
    OutPort count;

    Counter(Model *parent, const std::string &name, int nbits)
        : Model(parent, name), en(this, "en", 1),
          count(this, "count", nbits)
    {
        auto &b = tickRtl("seq");
        b.if_(rd(reset), [&] { b.assign(count, 0); },
              [&] {
                  b.if_(rd(en),
                        [&] { b.assign(count, rd(count) + 1); });
              });
    }
};

/**
 * One point of the Modes/ mode matrix: a host (0 boxed interp, 1 arena)
 * crossed with its block kernels (0 none, 1 bytecode, 2 per-block C++).
 * CTest registers each case under gtest's raw-byte dump of this struct
 * ("80-byte object <...>"), so the layout, zero padding included, keeps
 * the names the suites are registered under. It holds no pointer, so
 * the dump, and every name, is the same from run to run.
 */
struct ModeParam
{
    int32_t host = 0;
    int32_t kernels = 0;
    int32_t reserved[18] = {};

    Backend
    backend() const
    {
        static constexpr Backend table[2][3] = {
            {Backend::Interp, Backend::InterpBytecode, Backend::InterpCppBlock},
            {Backend::OptInterp, Backend::Bytecode, Backend::CppBlock}};
        return table[host][kernels];
    }

    operator SimConfig() const
    {
        SimConfig cfg;
        cfg.backend = backend();
        return cfg;
    }
};
static_assert(sizeof(ModeParam) == 80, "ModeParam size fixes test names");

/** The Modes/ matrix: both hosts, each bare, on bytecode and on C++. */
inline std::vector<ModeParam>
allModes()
{
    std::vector<ModeParam> modes;
    for (int32_t host : {0, 1}) {
        for (int32_t kernels : {0, 1, 2}) {
            ModeParam mode;
            mode.host = host;
            mode.kernels = kernels;
            if (!nativeBlocks(mode.backend()) ||
                CppJit::compilerAvailable())
                modes.push_back(mode);
        }
    }
    return modes;
}

/** The gtest parameter name of a mode ("Interp_Cpp"). */
inline std::string
modeName(const ModeParam &mode)
{
    static const char *const hosts[] = {"Interp", "OptInterp"};
    static const char *const kernels[] = {"", "_Bytecode", "_Cpp"};
    return std::string(hosts[mode.host]) + kernels[mode.kernels];
}

} // namespace testmodels

} // namespace cmtl

#endif // CMTL_TESTS_CORE_TEST_MODELS_H
