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
 * Parameter of the Modes/ mode-matrix suites: a SimConfig plus 16
 * reserved bytes. CTest registers each case under gtest's raw-byte
 * dump of its parameter ("80-byte object <...>"); the padding keeps
 * those registered names unchanged now that SimConfig is 64 bytes.
 */
struct ModeParam : SimConfig
{
    uint64_t reserved[2] = {0, 0};
};

/** All (exec, spec) configurations exercised by mode-matrix tests. */
inline std::vector<ModeParam>
allModes(bool include_cpp = true)
{
    std::vector<ModeParam> modes;
    for (ExecMode exec : {ExecMode::Interp, ExecMode::OptInterp}) {
        for (SpecMode spec :
             {SpecMode::None, SpecMode::Bytecode, SpecMode::Cpp}) {
            if (spec == SpecMode::Cpp &&
                (!include_cpp || !CppJit::compilerAvailable()))
                continue;
            ModeParam cfg;
            cfg.exec = exec;
            cfg.spec = spec;
            modes.push_back(cfg);
        }
    }
    return modes;
}

inline std::string
modeName(const SimConfig &cfg)
{
    std::string out =
        cfg.exec == ExecMode::Interp ? "Interp" : "OptInterp";
    switch (cfg.spec) {
      case SpecMode::None: break;
      case SpecMode::Bytecode: out += "_Bytecode"; break;
      case SpecMode::Cpp: out += "_Cpp"; break;
    }
    switch (cfg.sched) {
      case SchedMode::Auto: break;
      case SchedMode::Event: out += "_Event"; break;
      case SchedMode::Static: out += "_Static"; break;
    }
    return out;
}

} // namespace testmodels

} // namespace cmtl

#endif // CMTL_TESTS_CORE_TEST_MODELS_H
