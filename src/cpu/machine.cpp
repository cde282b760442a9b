#include "cpu/machine.h"

#include <cassert>

namespace gcr::cpu {

namespace {

// Register arithmetic wraps modulo 2^64, as a hardware ALU does: the
// kernels hash with overflowing adds and multiplies, which are undefined on
// signed operands. The conversion back to signed is modular (C++20).
long long wrap_add(long long a, long long b) {
  return static_cast<long long>(static_cast<unsigned long long>(a) +
                                static_cast<unsigned long long>(b));
}
long long wrap_sub(long long a, long long b) {
  return static_cast<long long>(static_cast<unsigned long long>(a) -
                                static_cast<unsigned long long>(b));
}
long long wrap_mul(long long a, long long b) {
  return static_cast<long long>(static_cast<unsigned long long>(a) *
                                static_cast<unsigned long long>(b));
}

}  // namespace

Machine::Machine() : mem_(kMemWords, 0) {}

void Machine::reset() {
  regs_.fill(0);
  std::fill(mem_.begin(), mem_.end(), 0);
}

Trace Machine::run(const Program& prog, long long max_cycles) {
  Trace trace;
  long long pc = 0;
  const long long n = static_cast<long long>(prog.code.size());
  while (trace.cycles < max_cycles) {
    if (pc < 0 || pc >= n) break;  // fell off the program: stop
    const Instr& in = prog.code[static_cast<std::size_t>(pc)];
    ++trace.cycles;
    trace.ops.push_back(in.op);
    regs_[0] = 0;

    const auto mem_addr = [&](long long base) {
      const long long a = base + in.imm;
      assert(a >= 0 && a < static_cast<long long>(kMemWords));
      return static_cast<std::size_t>(a);
    };

    long long next_pc = pc + 1;
    switch (in.op) {
      case Opcode::kAdd:
        regs_[in.rd] = wrap_add(regs_[in.rs1], regs_[in.rs2]);
        break;
      case Opcode::kSub:
        regs_[in.rd] = wrap_sub(regs_[in.rs1], regs_[in.rs2]);
        break;
      case Opcode::kAnd: regs_[in.rd] = regs_[in.rs1] & regs_[in.rs2]; break;
      case Opcode::kOr: regs_[in.rd] = regs_[in.rs1] | regs_[in.rs2]; break;
      case Opcode::kXor: regs_[in.rd] = regs_[in.rs1] ^ regs_[in.rs2]; break;
      case Opcode::kShl:
        regs_[in.rd] = regs_[in.rs1] << (in.imm & 63);
        break;
      case Opcode::kShr:
        regs_[in.rd] = regs_[in.rs1] >> (in.imm & 63);
        break;
      case Opcode::kMul:
        regs_[in.rd] = wrap_mul(regs_[in.rs1], regs_[in.rs2]);
        break;
      case Opcode::kDiv:
        regs_[in.rd] = regs_[in.rs2] == 0 ? 0 : regs_[in.rs1] / regs_[in.rs2];
        break;
      case Opcode::kLi: regs_[in.rd] = in.imm; break;
      case Opcode::kAddi: regs_[in.rd] = wrap_add(regs_[in.rs1], in.imm); break;
      case Opcode::kLd: regs_[in.rd] = mem_[mem_addr(regs_[in.rs1])]; break;
      case Opcode::kSt: mem_[mem_addr(regs_[in.rs1])] = regs_[in.rs2]; break;
      case Opcode::kBeq:
        if (regs_[in.rs1] == regs_[in.rs2]) next_pc = in.imm;
        break;
      case Opcode::kBne:
        if (regs_[in.rs1] != regs_[in.rs2]) next_pc = in.imm;
        break;
      case Opcode::kBlt:
        if (regs_[in.rs1] < regs_[in.rs2]) next_pc = in.imm;
        break;
      case Opcode::kJmp: next_pc = in.imm; break;
      case Opcode::kNop: break;
      case Opcode::kHalt: trace.halted = true; return trace;
      case Opcode::kCount: assert(false); break;
    }
    regs_[0] = 0;
    pc = next_pc;
  }
  return trace;
}

}  // namespace gcr::cpu
