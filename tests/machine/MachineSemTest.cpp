//===- tests/machine/MachineSemTest.cpp - machine_sem semantics ----------------===//

#include "machine/MachineSem.h"

#include "isa/Abi.h"

#include <functional>

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::machine;
using isa::Func;
using isa::Instruction;
using isa::Operand;

namespace {

/// Boots a hand-assembled program (no MiniCake) with the given world.
struct Fixture {
  sys::ImageSpec Spec;
  sys::BootResult Boot{sys::MemoryLayout{}, isa::MachineState(0), 0, nullptr};

  Fixture(const std::function<void(assembler::Assembler &, Word)> &Emit,
          std::vector<std::string> Cl = {"prog"}, std::string Stdin = "") {
    build(Emit, std::move(Cl), std::move(Stdin));
  }

  void build(const std::function<void(assembler::Assembler &, Word)> &Emit,
             std::vector<std::string> Cl, std::string Stdin) {
    // Two-pass: size then final link (program addresses matter for the
    // data the program embeds).
    assembler::Assembler Sizer;
    Emit(Sizer, 0);
    Result<assembler::Assembled> Sized = Sizer.assemble(0);
    ASSERT_TRUE(Sized);
    Result<sys::MemoryLayout> L = sys::MemoryLayout::compute(
        Spec.Params, static_cast<Word>(Sized->Bytes.size()));
    ASSERT_TRUE(L);
    assembler::Assembler Final;
    Emit(Final, L->CodeBase);
    Result<assembler::Assembled> Out = Final.assemble(L->CodeBase);
    ASSERT_TRUE(Out);
    Spec.Program = Out->Bytes;
    Spec.CommandLine = std::move(Cl);
    Spec.StdinData = std::move(Stdin);
    Result<sys::BootResult> B = sys::boot(Spec);
    ASSERT_TRUE(B) << B.error().str();
    Boot = B.take();
  }

  MachineSem sem() {
    ffi::BasisFfi Ffi(Spec.CommandLine,
                      ffi::Filesystem::withStdin(Spec.StdinData));
    return MachineSem(Boot.State, std::move(Ffi), Boot.Layout);
  }
};

} // namespace

TEST(MachineSem, PlainHaltTerminatesWithZero) {
  Fixture F([](assembler::Assembler &A, Word) { A.emitHalt(); });
  MachineSem Sem = F.sem();
  Behaviour B = Sem.run(1000);
  EXPECT_EQ(B.Kind, BehaviourKind::Terminated);
  EXPECT_EQ(B.ExitCode, 0);
  EXPECT_TRUE(B.terminatedSuccessfully());
}

TEST(MachineSem, FaultIsFailBehaviour) {
  Fixture F([](assembler::Assembler &A, Word) {
    A.word(0xf0000000u); // reserved opcode
  });
  MachineSem Sem = F.sem();
  Behaviour B = Sem.run(1000);
  EXPECT_EQ(B.Kind, BehaviourKind::Failed);
  EXPECT_EQ(B.Fault, isa::StepFault::IllegalInstruction);
}

TEST(MachineSem, OutOfStepsBehaviour) {
  Fixture F([](assembler::Assembler &A, Word) {
    A.label("spin");
    A.emit(Instruction::normal(Func::Inc, 5, Operand::reg(5),
                               Operand::imm(0)));
    A.emitJump("spin");
  });
  MachineSem Sem = F.sem();
  Behaviour B = Sem.run(100);
  EXPECT_EQ(B.Kind, BehaviourKind::OutOfSteps);
}

TEST(MachineSem, WriteCallGoesThroughTheOracle) {
  // Program: write "ok" to stdout via the FFI, then halt.  At the
  // machine_sem level the syscall machine code never runs — the oracle
  // produces the effect (the paper's interference step).
  auto Emit2 = [](assembler::Assembler &A, Word) {
    A.emitLiLabel(silver::abi::FfiConfReg, "conf");
    A.emitLi(silver::abi::FfiConfLenReg, 8);
    A.emitLiLabel(silver::abi::FfiBytesReg, "buf");
    A.emitLi(silver::abi::FfiBytesLenReg, 6);
    A.emitLi(silver::abi::FfiIndexReg, unsigned(sys::FfiIndex::Write));
    A.emit(Instruction::jump(Func::Snd, silver::abi::LinkReg,
                             Operand::reg(silver::abi::FfiTableReg)));
    A.emitHalt();
    A.align(4);
    A.label("conf");
    A.bytes({0, 0, 0, 0, 0, 0, 0, 1}); // fd 1
    A.label("buf");
    A.bytes({0, 2, 0, 0, 'o', 'k'}); // count 2, offset 0, payload
  };
  Fixture F(Emit2);
  MachineSem Sem = F.sem();
  Behaviour B = Sem.run(10'000);
  EXPECT_EQ(B.Kind, BehaviourKind::Terminated);
  EXPECT_EQ(Sem.ffi().getStdout(), "ok");
  ASSERT_EQ(Sem.ffi().Trace.size(), 1u);
  EXPECT_EQ(Sem.ffi().Trace[0].Index, unsigned(sys::FfiIndex::Write));
  EXPECT_EQ(Sem.ffi().Trace[0].Request,
            (std::vector<uint8_t>{0, 2, 0, 0, 'o', 'k'}));
}

TEST(MachineSem, OracleWritesMarkTheirPagesWritten) {
  // read(stdin) into a byte array whose 4-byte header ends one heap page
  // and whose data begins the next.  The program stores only the header;
  // the interference oracle writes the data.  The written-page map must
  // cover the data page (the DecodeCache.h written-page rule), or an
  // incremental StateDigest would take that page's hash from the
  // snapshot and miss the read.
  const Word HeapBase =
      sys::MemoryLayout::compute(sys::LayoutParams{}, 4096)->HeapBase;
  const Word Buf = HeapBase + 2 * isa::PageSize - 4;
  auto Emit = [Buf](assembler::Assembler &A, Word) {
    A.emitLi(10, Buf);
    A.emitLi(11, 0x500); // header bytes 00 05 00 00: count 5 (big-endian)
    A.emit(Instruction::storeMem(Operand::reg(11), Operand::reg(10)));
    A.emitLiLabel(silver::abi::FfiConfReg, "conf");
    A.emitLi(silver::abi::FfiConfLenReg, 8);
    A.emitLi(silver::abi::FfiBytesReg, Buf);
    A.emitLi(silver::abi::FfiBytesLenReg, 4 + 5);
    A.emitLi(silver::abi::FfiIndexReg, unsigned(sys::FfiIndex::Read));
    A.emit(Instruction::jump(Func::Snd, silver::abi::LinkReg,
                             Operand::reg(silver::abi::FfiTableReg)));
    A.emitHalt();
    A.align(4);
    A.label("conf");
    A.bytes({0, 0, 0, 0, 0, 0, 0, 0}); // fd 0: stdin
  };
  Fixture F(Emit, {"prog"}, "hello");
  MachineSem Sem = F.sem();
  Behaviour B = Sem.run(10'000);
  EXPECT_EQ(B.Kind, BehaviourKind::Terminated);
  const isa::MachineState &S = Sem.state();
  ASSERT_EQ(S.readByte(Buf + 4), 'h');
  EXPECT_TRUE(S.PageFlags[(Buf + 4) >> isa::PageShift] & isa::PageWritten);
  EXPECT_EQ(isa::memoryHashOf(S.Memory.data(), S.memSize(),
                              S.PageFlags.data(),
                              F.Boot.Snapshot->PageHashes.data()),
            isa::memoryHash(S.Memory.data(), S.memSize()));
}

TEST(MachineSem, ExitCallTerminatesWithCode) {
  auto Emit = [](assembler::Assembler &A, Word) {
    A.emitLiLabel(silver::abi::FfiBytesReg, "code");
    A.emitLi(silver::abi::FfiBytesLenReg, 1);
    A.emitLiLabel(silver::abi::FfiConfReg, "code");
    A.emitLi(silver::abi::FfiConfLenReg, 0);
    A.emitLi(silver::abi::FfiIndexReg, unsigned(sys::FfiIndex::Exit));
    A.emit(Instruction::jump(Func::Snd, silver::abi::LinkReg,
                             Operand::reg(silver::abi::FfiTableReg)));
    A.label("code");
    A.bytes({42});
  };
  Fixture F(Emit);
  MachineSem Sem = F.sem();
  Behaviour B = Sem.run(10'000);
  EXPECT_EQ(B.Kind, BehaviourKind::Terminated);
  EXPECT_EQ(B.ExitCode, 42);
  // The exit is also recorded in the memory cells (theorem (6)'s
  // exit_code_0 observable).
  sys::ExitStatus S =
      sys::readExitStatus(Sem.state(), F.Boot.Layout);
  EXPECT_TRUE(S.Exited);
  EXPECT_EQ(S.Code, 42);
}

TEST(MachineSem, UnknownFfiIndexFails) {
  auto Emit = [](assembler::Assembler &A, Word) {
    A.emitLi(silver::abi::FfiIndexReg, 99);
    A.emitLi(silver::abi::FfiConfLenReg, 0);
    A.emitLi(silver::abi::FfiBytesLenReg, 0);
    A.emitLi(silver::abi::FfiConfReg, 0);
    A.emitLi(silver::abi::FfiBytesReg, 0);
    A.emit(Instruction::jump(Func::Snd, silver::abi::LinkReg,
                             Operand::reg(silver::abi::FfiTableReg)));
    A.emitHalt();
  };
  Fixture F(Emit);
  MachineSem Sem = F.sem();
  Behaviour B = Sem.run(10'000);
  EXPECT_EQ(B.Kind, BehaviourKind::Failed);
}

TEST(MachineSem, InterfererClobbersScratchAndRestoresPc) {
  auto Emit = [](assembler::Assembler &A, Word) {
    A.emitLi(20, 0xbeef); // CakeML-private register: must be preserved
    A.emitLiLabel(silver::abi::FfiBytesReg, "buf");
    A.emitLi(silver::abi::FfiBytesLenReg, 2);
    A.emitLiLabel(silver::abi::FfiConfReg, "buf");
    A.emitLi(silver::abi::FfiConfLenReg, 0);
    A.emitLi(silver::abi::FfiIndexReg, unsigned(sys::FfiIndex::GetArgCount));
    A.emit(Instruction::jump(Func::Snd, silver::abi::LinkReg,
                             Operand::reg(silver::abi::FfiTableReg)));
    A.label("after");
    A.emitHalt();
    A.align(4);
    A.label("buf");
    A.space(4);
  };
  Fixture F(Emit, {"a", "b", "c"});
  MachineSem Sem = F.sem();
  Behaviour B = Sem.run(10'000);
  ASSERT_EQ(B.Kind, BehaviourKind::Terminated);
  // Private register preserved; scratch registers zeroed by
  // ffi_interfer's deterministic clobber.
  EXPECT_EQ(Sem.state().Regs[20], 0xbeefu);
  EXPECT_EQ(Sem.state().Regs[silver::abi::FfiIndexReg], 0u);
  EXPECT_EQ(Sem.state().Regs[silver::abi::TmpReg], 0u);
}

TEST(MachineSem, StepsAreCounted) {
  Fixture F([](assembler::Assembler &A, Word) {
    for (int I = 0; I != 10; ++I)
      A.emit(Instruction::normal(Func::Add, 5, Operand::reg(5),
                                 Operand::imm(1)));
    A.emitHalt();
  });
  MachineSem Sem = F.sem();
  Behaviour B = Sem.run(1000);
  EXPECT_EQ(B.Kind, BehaviourKind::Terminated);
  EXPECT_GE(B.Steps, 10u);
}
