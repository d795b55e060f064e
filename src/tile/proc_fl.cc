#include "proc.h"

namespace cmtl {
namespace tile {

ProcFL::ProcFL(Model *parent, const std::string &name)
    : ProcessorBase(parent, name)
{
    imem_ = std::make_unique<stdlib::ParentReqRespQueueAdapter>(imem_ifc);
    dmem_ = std::make_unique<stdlib::ParentReqRespQueueAdapter>(dmem_ifc);
    acc_ = std::make_unique<stdlib::ParentReqRespQueueAdapter>(acc_ifc);

    std::vector<Signal *> writes = stdlib::writesOf(*imem_, *dmem_, *acc_);
    writes.push_back(&halted);
    tickFl("proc_logic", [this] {
        imem_->xtick();
        dmem_->xtick();
        acc_->xtick();
        halted.setNext(uint64_t(is_halted_ ? 1 : 0));
        if (reset.u64()) {
            state_ = State::Fetch;
            pc_ = 0;
            is_halted_ = false;
            num_insts_ = 0;
            for (auto &r : regs_)
                r = 0;
            return;
        }
        if (is_halted_)
            return;

        const auto &mreq = imem_->types.req;
        switch (state_) {
          case State::Fetch:
            if (!imem_->req_q.full()) {
                imem_->pushReq(
                    makeMemReq(mreq, MemReqType::Read, pc_));
                state_ = State::FetchWait;
            }
            break;
          case State::FetchWait:
            if (!imem_->resp_q.empty()) {
                Bits resp = imem_->getResp();
                uint32_t inst = static_cast<uint32_t>(
                    imem_->types.resp.get(resp, "data").toUint64());
                execute(inst);
            }
            break;
          case State::MemWait:
            if (!dmem_->resp_q.empty()) {
                Bits resp = dmem_->getResp();
                if (pending_rd_ > 0) {
                    regs_[pending_rd_] = static_cast<uint32_t>(
                        dmem_->types.resp.get(resp, "data").toUint64());
                }
                pending_rd_ = -1;
                state_ = State::Fetch;
            }
            break;
          case State::AccWait:
            if (!acc_->resp_q.empty()) {
                Bits resp = acc_->getResp();
                if (pending_rd_ > 0) {
                    regs_[pending_rd_] = static_cast<uint32_t>(
                        acc_->types.resp.get(resp, "data").toUint64());
                }
                pending_rd_ = -1;
                state_ = State::Fetch;
            }
            break;
        }
    }, writes);
}

void
ProcFL::execute(uint32_t inst)
{
    DecodedInst d = decode(inst);
    uint32_t a = regs_[d.rs1];
    uint32_t b = regs_[d.rs2];
    uint32_t next_pc = pc_ + 4;
    uint32_t result = 0;
    bool write_rd = false;
    State next_state = State::Fetch;
    const auto &mreq = dmem_->types.req;

    switch (d.op) {
      case Op::Add: result = a + b; write_rd = true; break;
      case Op::Sub: result = a - b; write_rd = true; break;
      case Op::Mul: result = a * b; write_rd = true; break;
      case Op::And: result = a & b; write_rd = true; break;
      case Op::Or: result = a | b; write_rd = true; break;
      case Op::Xor: result = a ^ b; write_rd = true; break;
      case Op::Sll: result = a << (b & 31); write_rd = true; break;
      case Op::Srl: result = a >> (b & 31); write_rd = true; break;
      case Op::Slt:
        result = static_cast<int32_t>(a) < static_cast<int32_t>(b);
        write_rd = true;
        break;
      case Op::Addi:
        result = a + static_cast<uint32_t>(d.imm);
        write_rd = true;
        break;
      case Op::Lui:
        result = static_cast<uint32_t>(d.imm) << 16;
        write_rd = true;
        break;
      case Op::Lw:
        dmem_->pushReq(makeMemReq(mreq, MemReqType::Read,
                                  a + static_cast<uint32_t>(d.imm)));
        pending_rd_ = d.rd;
        next_state = State::MemWait;
        break;
      case Op::Sw:
        dmem_->pushReq(makeMemReq(mreq, MemReqType::Write,
                                  a + static_cast<uint32_t>(d.imm),
                                  regs_[d.rd]));
        pending_rd_ = -1;
        next_state = State::MemWait;
        break;
      case Op::Beq:
        if (a == regs_[d.rd])
            next_pc = pc_ + 4 + static_cast<uint32_t>(d.imm) * 4;
        break;
      case Op::Bne:
        if (a != regs_[d.rd])
            next_pc = pc_ + 4 + static_cast<uint32_t>(d.imm) * 4;
        break;
      case Op::Blt:
        if (static_cast<int32_t>(a) < static_cast<int32_t>(regs_[d.rd]))
            next_pc = pc_ + 4 + static_cast<uint32_t>(d.imm) * 4;
        break;
      case Op::Jal:
        result = pc_ + 4;
        write_rd = true;
        next_pc = pc_ + 4 + static_cast<uint32_t>(d.imm) * 4;
        break;
      case Op::Jr:
        next_pc = a;
        break;
      case Op::Accx:
        acc_->pushReq(acc_->types.req.pack(
            {static_cast<uint64_t>(d.imm) & 7, a}));
        if (d.imm == 0) {
            pending_rd_ = d.rd;
            next_state = State::AccWait;
        }
        break;
      case Op::Halt:
        is_halted_ = true;
        next_pc = pc_;
        break;
      default:
        is_halted_ = true; // illegal instruction: stop
        break;
    }

    if (write_rd && d.rd != 0)
        regs_[d.rd] = result;
    regs_[0] = 0;
    pc_ = next_pc;
    ++num_insts_;
    state_ = next_state;
}

std::string
ProcFL::lineTrace() const
{
    if (is_halted_)
        return "P:halt";
    return "P:" + Bits(32, pc_).toHexString();
}

} // namespace tile
} // namespace cmtl
