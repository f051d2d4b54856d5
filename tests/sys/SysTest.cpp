//===- tests/sys/SysTest.cpp - layout, image, boot, installed tests ------------===//

#include "sys/Image.h"

#include "cpu/Check.h"
#include "isa/Abi.h"
#include "isa/ExecBackend.h"
#include "obs/TraceSink.h"
#include "stack/Apps.h"
#include "stack/Executor.h"
#include "stack/Stack.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::sys;

TEST(Layout, ComputesOrderedRegions) {
  LayoutParams P;
  Result<MemoryLayout> L = MemoryLayout::compute(P, 4096);
  ASSERT_TRUE(L) << L.error().str();
  // Figure 2 order: startup, cmdline, stdin, outbuf, syscalls, usable,
  // code.
  EXPECT_LT(L->StartupBase, L->CmdlineBase);
  EXPECT_LT(L->CmdlineBase, L->StdinBase);
  EXPECT_LT(L->StdinBase, L->OutBufBase);
  EXPECT_LT(L->OutBufBase, L->SyscallCodeBase);
  EXPECT_LT(L->SyscallCodeBase, L->HeapBase);
  EXPECT_LT(L->HeapBase, L->HeapEnd);
  EXPECT_EQ(L->HeapEnd, L->CodeBase);
  EXPECT_EQ(L->CodeBase % 4096, 0u);
}

TEST(Layout, RejectsOversizedProgram) {
  LayoutParams P;
  P.MemSize = 1 << 20;
  EXPECT_FALSE(MemoryLayout::compute(P, 1 << 20));
  EXPECT_FALSE(MemoryLayout::compute(P, (1 << 20) - 4096));
}

TEST(Layout, PaperStdinSizeFits) {
  LayoutParams P;
  P.MemSize = 16u << 20;
  P.StdinCap = PaperStdinSize;
  Result<MemoryLayout> L = MemoryLayout::compute(P, 64 << 10);
  ASSERT_TRUE(L);
  EXPECT_GE(L->usableSize(), 1u << 20);
}

TEST(Layout, UsableMemoryFloorIsExact) {
  // The smallest accepted image leaves exactly 16 KiB of usable memory.
  LayoutParams P;
  Result<MemoryLayout> Probe = MemoryLayout::compute(P, 4096);
  ASSERT_TRUE(Probe);
  // The front regions do not depend on MemSize, so HeapBase is stable.
  P.MemSize = Probe->HeapBase + 16 * 1024 + 4096;
  Result<MemoryLayout> L = MemoryLayout::compute(P, 4096);
  ASSERT_TRUE(L) << L.error().str();
  EXPECT_EQ(L->usableSize(), 16u * 1024);
  P.MemSize -= 4096;
  EXPECT_FALSE(MemoryLayout::compute(P, 4096));
}

TEST(ClOk, JoinedSizeBoundaryIsExact) {
  LayoutParams P;
  // A single argument of exactly CmdlineCap bytes joins to CmdlineCap.
  EXPECT_TRUE(checkClOk({std::string(P.CmdlineCap, 'x')}, P));
  EXPECT_FALSE(checkClOk({std::string(P.CmdlineCap + 1, 'x')}, P));
  // Two arguments pay one separator byte.
  EXPECT_TRUE(checkClOk(
      {std::string(P.CmdlineCap - 2, 'x'), "y"}, P));
  EXPECT_FALSE(checkClOk(
      {std::string(P.CmdlineCap - 1, 'x'), "y"}, P));
}

TEST(ClOk, ArgumentCountLimitIs16Bit) {
  LayoutParams P;
  P.CmdlineCap = 200000; // so the joined size is not the binding limit
  std::vector<std::string> Args(0xffff, "a");
  EXPECT_TRUE(checkClOk(Args, P));
  Args.push_back("a");
  EXPECT_FALSE(checkClOk(Args, P));
}

TEST(Image, EmptyCommandLineBuilds) {
  assembler::Assembler A;
  A.emitHalt();
  Result<assembler::Assembled> Prog = A.assemble(0);
  ASSERT_TRUE(Prog);
  ImageSpec Spec;
  Spec.Program = Prog->Bytes;
  Spec.CommandLine = {};
  Result<BootResult> Boot = sys::boot(Spec);
  ASSERT_TRUE(Boot) << Boot.error().str();
  // The command-line region holds a zero length word.
  EXPECT_EQ(Boot->State.readWord(Boot->Layout.CmdlineBase), 0u);
}

TEST(ClOk, AcceptsAndRejects) {
  LayoutParams P;
  EXPECT_TRUE(checkClOk({"wc"}, P));
  EXPECT_TRUE(checkClOk({}, P));
  EXPECT_FALSE(checkClOk({""}, P));
  EXPECT_FALSE(checkClOk({std::string("a\0b", 3)}, P));
  EXPECT_FALSE(checkClOk({std::string(10000, 'x')}, P));
}

TEST(Image, BuildsAndBoots) {
  assembler::Assembler A;
  A.emitHalt();
  Result<assembler::Assembled> Prog = A.assemble(0);
  ASSERT_TRUE(Prog);

  ImageSpec Spec;
  Spec.CommandLine = {"prog", "arg"};
  Spec.StdinData = "input";
  Spec.Program = Prog->Bytes;
  Result<BootResult> Boot = sys::boot(Spec);
  ASSERT_TRUE(Boot) << Boot.error().str();

  const MemoryLayout &L = Boot->Layout;
  const isa::MachineState &S = Boot->State;
  // Startup set the info registers (installed (i)).
  EXPECT_EQ(S.Regs[silver::abi::MemStartReg], L.HeapBase);
  EXPECT_EQ(S.Regs[silver::abi::MemEndReg], L.HeapEnd);
  EXPECT_EQ(S.Regs[silver::abi::FfiTableReg], L.SyscallCodeBase);
  EXPECT_EQ(S.PC, L.CodeBase);
  // Command line is NUL-joined with its length.
  EXPECT_EQ(S.readWord(L.CmdlineBase), 8u); // "prog\0arg"
  EXPECT_EQ(S.readByte(L.CmdlineBase + 4), 'p');
  EXPECT_EQ(S.readByte(L.CmdlineBase + 8), 0);
  // Stdin region: length then offset 0 then data.
  EXPECT_EQ(S.readWord(L.StdinBase), 5u);
  EXPECT_EQ(S.readWord(L.StdinBase + 4), 0u);
  EXPECT_EQ(S.readByte(L.StdinBase + 8), 'i');
}

TEST(Image, RejectsOversizedStdin) {
  ImageSpec Spec;
  Spec.Program = {0, 0, 0, 0};
  Spec.StdinData.assign(Spec.Params.StdinCap + 1, 'x');
  EXPECT_FALSE(buildImage(Spec));
}

TEST(Image, RejectsBadCommandLine) {
  ImageSpec Spec;
  Spec.Program = {0, 0, 0, 0};
  Spec.CommandLine = {""};
  EXPECT_FALSE(buildImage(Spec));
}

TEST(Installed, DetectsCorruptedProgram) {
  assembler::Assembler A;
  A.emitHalt();
  Result<assembler::Assembled> Prog = A.assemble(0);
  ImageSpec Spec;
  Spec.Program = Prog->Bytes;
  Result<BootResult> Boot = sys::boot(Spec);
  ASSERT_TRUE(Boot);

  // Tamper with the program bytes in memory.
  isa::MachineState Bad = Boot->State;
  Bad.Memory[Boot->Layout.CodeBase] ^= 0xff;
  Result<void> V = validateInstalled(Bad, Boot->Layout, Spec);
  ASSERT_FALSE(V);
  EXPECT_NE(V.error().message().find("corrupted"), std::string::npos);
}

TEST(Installed, DetectsWrongRegisters) {
  assembler::Assembler A;
  A.emitHalt();
  Result<assembler::Assembled> Prog = A.assemble(0);
  ImageSpec Spec;
  Spec.Program = Prog->Bytes;
  Result<BootResult> Boot = sys::boot(Spec);
  ASSERT_TRUE(Boot);
  isa::MachineState Bad = Boot->State;
  Bad.Regs[silver::abi::MemStartReg] += 4;
  EXPECT_FALSE(validateInstalled(Bad, Boot->Layout, Spec));
  Bad = Boot->State;
  Bad.PC += 4;
  EXPECT_FALSE(validateInstalled(Bad, Boot->Layout, Spec));
}

TEST(ExitStatusCells, ReadBack) {
  assembler::Assembler A;
  A.emitHalt();
  Result<assembler::Assembled> Prog = A.assemble(0);
  ImageSpec Spec;
  Spec.Program = Prog->Bytes;
  Result<BootResult> Boot = sys::boot(Spec);
  ASSERT_TRUE(Boot);
  ExitStatus S0 = readExitStatus(Boot->State, Boot->Layout);
  EXPECT_FALSE(S0.Exited);
  Boot->State.writeWord(Boot->Layout.ExitFlagAddr, 1);
  Boot->State.writeWord(Boot->Layout.ExitCodeAddr, 7);
  ExitStatus S1 = readExitStatus(Boot->State, Boot->Layout);
  EXPECT_TRUE(S1.Exited);
  EXPECT_EQ(S1.Code, 7);
}

TEST(SysEnv, CollectsTerminalOutputOnInterrupt) {
  assembler::Assembler A;
  A.emitHalt();
  Result<assembler::Assembled> Prog = A.assemble(0);
  ImageSpec Spec;
  Spec.Program = Prog->Bytes;
  Result<BootResult> Boot = sys::boot(Spec);
  ASSERT_TRUE(Boot);
  const MemoryLayout &L = Boot->Layout;

  SysEnv Env(L);
  // Simulate a write syscall having filled the output buffer for stdout.
  Boot->State.writeWord(L.OutBufBase, 1);
  Boot->State.writeWord(L.OutBufBase + 4, 2);
  Boot->State.writeByte(L.OutBufBase + 8, 'h');
  Boot->State.writeByte(L.OutBufBase + 9, 'i');
  std::vector<uint8_t> Obs = Env.onInterrupt(Boot->State);
  EXPECT_EQ(Env.collectedStdout(), "hi");
  EXPECT_EQ(Obs.size(), 2u);
  // Stderr via id 2.
  Boot->State.writeWord(L.OutBufBase, 2);
  Env.onInterrupt(Boot->State);
  EXPECT_EQ(Env.collectedStderr(), "hi");
  // After exit was recorded, the observable is the exit code.
  Boot->State.writeWord(L.ExitFlagAddr, 1);
  Boot->State.writeWord(L.ExitCodeAddr, 3);
  Obs = Env.onInterrupt(Boot->State);
  ASSERT_EQ(Obs.size(), 1u);
  EXPECT_EQ(Obs[0], 3);
}

TEST(Syscalls, ProgramsFitTheirRegions) {
  LayoutParams P;
  Result<MemoryLayout> L = MemoryLayout::compute(P, 4096);
  ASSERT_TRUE(L);
  Result<assembler::Assembled> Sys = buildSyscallProgram(*L);
  ASSERT_TRUE(Sys) << Sys.error().str();
  EXPECT_LE(Sys->Bytes.size(), P.SyscallCodeCap);
  EXPECT_EQ(Sys->addressOf("ffi_dispatch"), L->SyscallCodeBase);
  Result<assembler::Assembled> Start = buildStartupProgram(*L);
  ASSERT_TRUE(Start) << Start.error().str();
  EXPECT_LE(Start->Bytes.size(), P.StartupCap);
}

// Booting from a snapshot must be indistinguishable from the paper's
// init state built whole: the same memory before and after the startup
// prefix, the same registers, PC and flags, the same StartupSteps and
// the same startup retire stream, for each of the six applications.
TEST(Snapshot, InstantiateMatchesWholeImageBootForEveryApp) {
  const std::pair<const char *, std::string> Apps[] = {
      {stack::helloSource(), ""},
      {stack::catSource(), stack::randomLines(20, 1)},
      {stack::wcSource(), stack::randomLines(30, 2)},
      {stack::sortSource(), stack::randomLines(20, 3)},
      {stack::proofCheckerSource(), stack::sampleValidProof()},
      {stack::tinCompilerSource(), stack::sampleTinProgram(4)}};
  for (const auto &[Source, Stdin] : Apps) {
    stack::RunSpec Run;
    Run.Source = Source;
    Run.CommandLine = {"app", "--flag"};
    Run.StdinData = Stdin;
    Result<stack::Prepared> P = stack::prepare(Run);
    ASSERT_TRUE(P) << P.error().str();
    const ImageSpec &Spec = P->Image;
    ASSERT_TRUE(P->Snapshot);

    // From scratch: the dense image, the init state, the startup prefix.
    Result<MemoryImage> Image = buildImage(Spec);
    ASSERT_TRUE(Image) << Image.error().str();
    isa::MachineState Whole = initialState(*Image);
    Result<BootResult> Inst = instantiate(P->Snapshot, Spec);
    ASSERT_TRUE(Inst) << Inst.error().str();
    EXPECT_TRUE(Inst->State.isaVisibleEquals(Whole)) << "before startup";

    obs::TraceSink WholeSink, SnapSink;
    uint64_t WholeSteps = 0;
    while (Whole.PC != Image->Layout.CodeBase) {
      ASSERT_LT(WholeSteps, 64u);
      ASSERT_TRUE(isa::step(Whole, isa::nullEnv(), WholeSink, WholeSteps).ok());
      ++WholeSteps;
    }

    Result<BootResult> Boot = sys::boot(P->Snapshot, Spec, &SnapSink);
    ASSERT_TRUE(Boot) << Boot.error().str();
    EXPECT_TRUE(Boot->State.isaVisibleEquals(Whole)) << "after startup";
    EXPECT_EQ(Boot->State.DataOut, Whole.DataOut);
    EXPECT_EQ(Boot->StartupSteps, WholeSteps);
    EXPECT_EQ(SnapSink.retireStream(), WholeSink.retireStream());
    EXPECT_GT(WholeSteps, 0u);

    // The snapshot holds only the program-dependent pages, and each
    // stored hash is the hash of that page of the whole image with the
    // per-run regions cleared.
    ImageSpec Bare = Spec;
    Bare.CommandLine.clear();
    Bare.StdinData.clear();
    Result<MemoryImage> BareImage = buildImage(Bare);
    ASSERT_TRUE(BareImage) << BareImage.error().str();
    const BootSnapshot &Snap = *P->Snapshot;
    ASSERT_EQ(Snap.PageHashes.size(), isa::pageCount(Snap.memBytes()));
    for (size_t I = 0; I != Snap.PageHashes.size(); ++I)
      ASSERT_EQ(Snap.PageHashes[I],
                isa::pageHash(BareImage->Memory.data() + (I << isa::PageShift),
                              isa::PageSize))
          << "page " << I;
    EXPECT_LT(Snap.Pages.size(), 64u);
  }
}

/// The init state of theorem (5) booted the whole-image way: dense
/// image, initialState, startup steps until the PC reaches CodeBase.
isa::MachineState bootFromScratch(const ImageSpec &Spec) {
  Result<MemoryImage> Image = buildImage(Spec);
  EXPECT_TRUE(Image) << Image.error().str();
  isa::MachineState S = initialState(*Image);
  for (unsigned I = 0; I != 64 && S.PC != Image->Layout.CodeBase; ++I)
    EXPECT_TRUE(isa::step(S, isa::nullEnv()).ok());
  return S;
}

TEST(Snapshot, RecycledBootMatchesAFreshOne) {
  // Run a program to completion, dirtying its memory and marking its
  // code pages, and recycle it.  Boots drawing on the pool — of the same
  // program and of another one — must equal the whole-image boot, with
  // nothing of the old run left: not a byte, not a page-state mark.
  auto Prepare = [](const char *Source, std::string Stdin) {
    stack::RunSpec Run;
    Run.Source = Source;
    Run.CommandLine = {"app"};
    Run.StdinData = std::move(Stdin);
    Result<stack::Prepared> P = stack::prepare(Run);
    EXPECT_TRUE(P) << P.error().str();
    return P.take();
  };
  stack::Prepared Wc = Prepare(stack::wcSource(), stack::randomLines(60, 4));
  stack::Prepared Tin = Prepare(stack::tinCompilerSource(),
                                stack::sampleTinProgram(3));
  stack::Prepared Hello = Prepare(stack::helloSource(), "");
  // Tin's program starts pages below hello's: recycling must clear them.
  ASSERT_LT(Tin.Snapshot->Layout.CodeBase, Hello.Snapshot->Layout.CodeBase);
  const std::pair<const stack::Prepared *, const stack::Prepared *> Cases[] =
      {{&Wc, &Wc}, {&Tin, &Hello}};
  for (const auto &[Done, Next] : Cases) {
    Result<BootResult> First = sys::boot(Done->Snapshot, Done->Image);
    ASSERT_TRUE(First) << First.error().str();
    SysEnv Env(First->Layout);
    isa::InterpBackend Backend; // its decode cache marks code pages
    ASSERT_TRUE(Backend.run(First->State, Env, 100'000'000).Halted);
    const std::vector<uint8_t> &Flags = First->State.PageFlags;
    ASSERT_TRUE(std::any_of(Flags.begin(), Flags.end(),
                            [](uint8_t F) { return F & isa::PageCode; }));
    const uint8_t *Dirty = First->State.Memory.data();
    sys::recycle(First.take());

    // The pool holds at most two states; boot two, one of them ours.
    isa::MachineState Expected = bootFromScratch(Next->Image);
    Result<BootResult> A = sys::boot(Next->Snapshot, Next->Image);
    Result<BootResult> B = sys::boot(Next->Snapshot, Next->Image);
    ASSERT_TRUE(A && B);
    EXPECT_TRUE(A->State.Memory.data() == Dirty ||
                B->State.Memory.data() == Dirty);
    // The page-state table of a boot into fresh memory (A and B hold
    // every pooled state): argv, stdin and the startup code's stores,
    // all written, none code.
    Result<BootResult> Fresh = sys::boot(Next->Snapshot, Next->Image);
    ASSERT_TRUE(Fresh);
    for (const BootResult *R : {&*A, &*B}) {
      EXPECT_TRUE(R->State.isaVisibleEquals(Expected));
      EXPECT_TRUE(R->State.IoEvents.empty());
      EXPECT_EQ(R->State.PageFlags, Fresh->State.PageFlags);
    }
  }
}

TEST(Snapshot, RecycledLabDramBootsLikeAFreshOne) {
  // The Rtl level's path: the lab DRAM loaded from the snapshot, the
  // core running the program from reset, the DRAM recycled.  Every
  // store the core made must have marked its page written, or the next
  // boot from the pool keeps a byte of this run.
  stack::RunSpec Run;
  Run.Source = stack::wcSource();
  Run.CommandLine = {"wc"};
  Run.StdinData = stack::randomLines(10, 5);
  Result<stack::Prepared> P = stack::prepare(Run);
  ASSERT_TRUE(P) << P.error().str();
  Result<stack::Outcome> Isa =
      stack::Executor::fromPrepared(Run, *P).run(stack::Level::Isa);
  ASSERT_TRUE(Isa) << Isa.error().str();
  Result<BootResult> Dram = sys::instantiate(P->Snapshot, P->Image);
  ASSERT_TRUE(Dram) << Dram.error().str();
  const uint8_t *Dirty = Dram->State.Memory.data();
  Result<std::unique_ptr<cpu::CoreRunner>> Runner = cpu::CoreRunner::create(
      std::move(Dram->State), Dram->Layout, cpu::RunOptions{});
  ASSERT_TRUE(Runner) << Runner.error().str();
  Result<cpu::CoreStop> Stop = (*Runner)->advance(UINT64_MAX, UINT64_MAX);
  ASSERT_TRUE(Stop) << Stop.error().str();
  ASSERT_EQ(*Stop, cpu::CoreStop::Halted);
  EXPECT_EQ((*Runner)->result().StdoutData, Isa->Behaviour.StdoutData);
  sys::recycle({P->Snapshot->Layout, (*Runner)->takeMemory(), 0,
                P->Snapshot});

  isa::MachineState Expected = bootFromScratch(P->Image);
  Result<BootResult> A = sys::boot(P->Snapshot, P->Image);
  Result<BootResult> B = sys::boot(P->Snapshot, P->Image);
  ASSERT_TRUE(A && B);
  EXPECT_TRUE(A->State.Memory.data() == Dirty ||
              B->State.Memory.data() == Dirty);
  Result<BootResult> Fresh = sys::boot(P->Snapshot, P->Image);
  ASSERT_TRUE(Fresh); // A and B hold every pooled state: fresh memory
  for (const BootResult *R : {&*A, &*B}) {
    EXPECT_TRUE(R->State.isaVisibleEquals(Expected));
    EXPECT_EQ(R->State.PageFlags, Fresh->State.PageFlags);
  }
}

TEST(Snapshot, RefusesASpecForAnotherProgram) {
  assembler::Assembler A;
  A.emitHalt();
  ImageSpec Spec;
  Spec.Program = A.assemble(0)->Bytes;
  Result<BootSnapshot> Snap = buildSnapshot(Spec.Program, Spec.Params);
  ASSERT_TRUE(Snap) << Snap.error().str();
  auto Shared = std::make_shared<const BootSnapshot>(Snap.take());
  EXPECT_TRUE(instantiate(Shared, Spec));
  ImageSpec Longer = Spec;
  Longer.Program.push_back(0);
  EXPECT_FALSE(instantiate(Shared, Longer));
  ImageSpec Smaller = Spec;
  Smaller.Params.MemSize = 1u << 21;
  EXPECT_FALSE(instantiate(Shared, Smaller));
}
