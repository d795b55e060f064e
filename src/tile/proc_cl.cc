#include "proc.h"

namespace cmtl {
namespace tile {

ProcCL::ProcCL(Model *parent, const std::string &name)
    : ProcessorBase(parent, name)
{
    imem_ = std::make_unique<stdlib::ParentReqRespQueueAdapter>(imem_ifc,
                                                                4);
    dmem_ = std::make_unique<stdlib::ParentReqRespQueueAdapter>(dmem_ifc,
                                                                4);
    acc_ = std::make_unique<stdlib::ParentReqRespQueueAdapter>(acc_ifc);

    std::vector<Signal *> writes = stdlib::writesOf(*imem_, *dmem_, *acc_);
    writes.push_back(&halted);
    tickCl("proc_logic", [this] {
        imem_->xtick();
        dmem_->xtick();
        acc_->xtick();
        halted.setNext(uint64_t(is_halted_ ? 1 : 0));
        if (reset.u64()) {
            arch_pc_ = fetch_pc_ = 0;
            fetch_addrs_.clear();
            dmem_pending_.clear();
            load_blocked_ = acc_blocked_ = is_halted_ = false;
            num_insts_ = 0;
            for (auto &r : regs_)
                r = 0;
            return;
        }

        const auto &mreq = dmem_->types.req;
        const auto &mresp = dmem_->types.resp;

        // Retire data-memory responses; a blocking load completes here.
        while (!dmem_->resp_q.empty() && !dmem_pending_.empty()) {
            int rd = dmem_pending_.front();
            Bits resp = dmem_->getResp();
            dmem_pending_.pop_front();
            if (rd >= 0) {
                if (rd > 0) {
                    regs_[rd] = static_cast<uint32_t>(
                        mresp.get(resp, "data").toUint64());
                }
                load_blocked_ = false;
            }
        }
        // Accelerator result completes a blocking ACCX-go.
        if (acc_blocked_ && !acc_->resp_q.empty()) {
            Bits resp = acc_->getResp();
            if (acc_rd_ > 0) {
                regs_[acc_rd_] = static_cast<uint32_t>(
                    acc_->types.resp.get(resp, "data").toUint64());
            }
            acc_blocked_ = false;
        }

        // Commit at most one instruction per cycle.
        if (!is_halted_ && !load_blocked_ && !acc_blocked_ &&
            !imem_->resp_q.empty()) {
            uint32_t addr = fetch_addrs_.front();
            if (addr != arch_pc_) {
                // Wrong-path fetch after a taken branch: discard.
                imem_->getResp();
                fetch_addrs_.pop_front();
            } else {
                uint32_t inst = static_cast<uint32_t>(
                    imem_->types.resp.get(imem_->resp_q.front(), "data")
                        .toUint64());
                DecodedInst d = decode(inst);
                // Structural stall: the request queue must have room
                // before the instruction can leave fetch.
                bool needs_dmem = d.op == Op::Lw || d.op == Op::Sw;
                bool needs_acc = d.op == Op::Accx;
                bool stall =
                    (needs_dmem && dmem_->req_q.full()) ||
                    (needs_acc && acc_->req_q.full());
                if (!stall) {
                    imem_->getResp();
                    fetch_addrs_.pop_front();
                    uint32_t a = regs_[d.rs1];
                    uint32_t b = regs_[d.rs2];
                    uint32_t next_pc = arch_pc_ + 4;
                    uint32_t result = 0;
                    bool write_rd = false;
                    switch (d.op) {
                      case Op::Add: result = a + b; write_rd = true; break;
                      case Op::Sub: result = a - b; write_rd = true; break;
                      case Op::Mul: result = a * b; write_rd = true; break;
                      case Op::And: result = a & b; write_rd = true; break;
                      case Op::Or: result = a | b; write_rd = true; break;
                      case Op::Xor: result = a ^ b; write_rd = true; break;
                      case Op::Sll:
                        result = a << (b & 31);
                        write_rd = true;
                        break;
                      case Op::Srl:
                        result = a >> (b & 31);
                        write_rd = true;
                        break;
                      case Op::Slt:
                        result = static_cast<int32_t>(a) <
                                 static_cast<int32_t>(b);
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
                        dmem_->pushReq(makeMemReq(
                            mreq, MemReqType::Read,
                            a + static_cast<uint32_t>(d.imm)));
                        dmem_pending_.push_back(d.rd == 0 ? 0 : d.rd);
                        load_blocked_ = true;
                        break;
                      case Op::Sw:
                        dmem_->pushReq(makeMemReq(
                            mreq, MemReqType::Write,
                            a + static_cast<uint32_t>(d.imm),
                            regs_[d.rd]));
                        dmem_pending_.push_back(-1);
                        break;
                      case Op::Beq:
                        if (a == regs_[d.rd])
                            next_pc = arch_pc_ + 4 +
                                      static_cast<uint32_t>(d.imm) * 4;
                        break;
                      case Op::Bne:
                        if (a != regs_[d.rd])
                            next_pc = arch_pc_ + 4 +
                                      static_cast<uint32_t>(d.imm) * 4;
                        break;
                      case Op::Blt:
                        if (static_cast<int32_t>(a) <
                            static_cast<int32_t>(regs_[d.rd]))
                            next_pc = arch_pc_ + 4 +
                                      static_cast<uint32_t>(d.imm) * 4;
                        break;
                      case Op::Jal:
                        result = arch_pc_ + 4;
                        write_rd = true;
                        next_pc = arch_pc_ + 4 +
                                  static_cast<uint32_t>(d.imm) * 4;
                        break;
                      case Op::Jr:
                        next_pc = a;
                        break;
                      case Op::Accx:
                        acc_->pushReq(acc_->types.req.pack(
                            {static_cast<uint64_t>(d.imm) & 7, a}));
                        if (d.imm == 0) {
                            acc_blocked_ = true;
                            acc_rd_ = d.rd;
                        }
                        break;
                      case Op::Halt:
                        is_halted_ = true;
                        next_pc = arch_pc_;
                        break;
                      default:
                        is_halted_ = true;
                        break;
                    }
                    if (write_rd && d.rd != 0)
                        regs_[d.rd] = result;
                    regs_[0] = 0;
                    if (next_pc != arch_pc_ + 4) {
                        // Redirect the fetch stream on taken branches.
                        fetch_pc_ = next_pc;
                    }
                    arch_pc_ = next_pc;
                    ++num_insts_;
                }
            }
        }

        // Keep the fetch pipeline full.
        while (!is_halted_ && !imem_->req_q.full() &&
               fetch_addrs_.size() < kFetchDepth) {
            imem_->pushReq(makeMemReq(imem_->types.req,
                                      MemReqType::Read, fetch_pc_));
            fetch_addrs_.push_back(fetch_pc_);
            fetch_pc_ += 4;
        }
    }, writes);
}

std::string
ProcCL::lineTrace() const
{
    if (is_halted_)
        return "P:halt";
    std::string flags;
    flags += load_blocked_ ? 'l' : '.';
    flags += acc_blocked_ ? 'a' : '.';
    return "P:" + Bits(32, arch_pc_).toHexString() + flags;
}

} // namespace tile
} // namespace cmtl
