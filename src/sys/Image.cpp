//===- sys/Image.cpp - Memory images and the lab environment ---------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "sys/Image.h"

#include "isa/Abi.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <map>
#include <mutex>

using namespace silver;
using namespace silver::sys;

/// Joins command-line arguments with NUL separators (the in-memory
/// command-line device format).
static std::string joinCommandLine(const std::vector<std::string> &Args) {
  std::string Joined;
  for (size_t I = 0, E = Args.size(); I != E; ++I) {
    if (I != 0)
      Joined.push_back('\0');
    Joined += Args[I];
  }
  return Joined;
}

static void putWord(uint8_t (&Out)[4], Word Value) {
  for (unsigned I = 0; I != 4; ++I)
    Out[I] = static_cast<uint8_t>(Value >> (8 * I));
}

static Word readWordFrom(const uint8_t *Mem, Word Addr) {
  return static_cast<Word>(Mem[Addr]) |
         (static_cast<Word>(Mem[Addr + 1]) << 8) |
         (static_cast<Word>(Mem[Addr + 2]) << 16) |
         (static_cast<Word>(Mem[Addr + 3]) << 24);
}

/// Emits the run-independent regions of the image through
/// \p Put(Addr, Bytes, Len): startup code, descriptor table, the
/// system-call id cell and code, and the program at CodeBase.  The one
/// description of those regions, shared by buildImage and buildSnapshot.
template <class PutFn>
static Result<void> putProgramRegions(const MemoryLayout &L,
                                      const std::vector<uint8_t> &Program,
                                      PutFn &&Put) {
  Result<assembler::Assembled> Startup = buildStartupProgram(L);
  if (!Startup)
    return Startup.error();
  Result<assembler::Assembled> Syscalls = buildSyscallProgram(L);
  if (!Syscalls)
    return Syscalls.error();

  Put(L.StartupBase, Startup->Bytes.data(), Startup->Bytes.size());

  // Descriptor table: region addresses for tools and tests.
  const Word Desc[8] = {L.CmdlineBase,  L.StdinBase,       L.OutBufBase,
                        L.ExitFlagAddr, L.ExitCodeAddr,    L.SyscallIdAddr,
                        L.SyscallCodeBase, L.HeapBase};
  for (unsigned I = 0; I != 8; ++I) {
    uint8_t W[4];
    putWord(W, Desc[I]);
    Put(L.DescriptorBase + 4 * I, W, 4);
  }

  // System calls: [called id | code].
  uint8_t Zero[4] = {};
  Put(L.SyscallIdAddr, Zero, 4);
  Put(L.SyscallCodeBase, Syscalls->Bytes.data(), Syscalls->Bytes.size());

  // Program code+data at the top of memory.
  Put(L.CodeBase, Program.data(), Program.size());
  return {};
}

/// cl_ok and the stdin capacity: what the per-run regions must satisfy.
static Result<void> checkRunRegions(const ImageSpec &Spec) {
  if (Result<void> Cl = checkClOk(Spec.CommandLine, Spec.Params); !Cl)
    return Cl.error();
  if (Spec.StdinData.size() > Spec.Params.StdinCap)
    return Error("stdin data exceeds the stdin region capacity");
  return {};
}

/// Emits the per-run regions (checked by checkRunRegions): the command
/// line [length | contents] and standard input [length | offset |
/// contents].
template <class PutFn>
static void putRunRegions(const MemoryLayout &L, const ImageSpec &Spec,
                          PutFn &&Put) {
  std::string Joined = joinCommandLine(Spec.CommandLine);
  uint8_t W[4];
  putWord(W, static_cast<Word>(Joined.size()));
  Put(L.CmdlineBase, W, 4);
  Put(L.CmdlineBase + 4, reinterpret_cast<const uint8_t *>(Joined.data()),
      Joined.size());

  putWord(W, static_cast<Word>(Spec.StdinData.size()));
  Put(L.StdinBase, W, 4);
  putWord(W, 0);
  Put(L.StdinBase + 4, W, 4);
  Put(L.StdinBase + 8,
      reinterpret_cast<const uint8_t *>(Spec.StdinData.data()),
      Spec.StdinData.size());
}

static Result<MemoryLayout> layoutFor(const std::vector<uint8_t> &Program,
                                      const LayoutParams &Params) {
  return MemoryLayout::compute(Params, static_cast<Word>(Program.size()));
}

Result<MemoryImage> silver::sys::buildImage(const ImageSpec &Spec) {
  if (Result<void> R = checkRunRegions(Spec); !R)
    return R.error();
  Result<MemoryLayout> L = layoutFor(Spec.Program, Spec.Params);
  if (!L)
    return L.error();
  MemoryImage Image;
  Image.Layout = *L;
  Image.Memory.assign(Spec.Params.MemSize, 0);
  auto Put = [&Image](Word Addr, const uint8_t *Bytes, size_t Len) {
    std::copy(Bytes, Bytes + Len, Image.Memory.begin() + Addr);
  };
  putRunRegions(*L, Spec, Put);
  if (Result<void> R = putProgramRegions(*L, Spec.Program, Put); !R)
    return R.error();
  return Image;
}

isa::MachineState silver::sys::initialState(const MemoryImage &Image) {
  isa::MachineState State(Image.Memory.size());
  State.Memory.assign(Image.Memory.begin(), Image.Memory.end());
  State.PC = Image.Layout.StartupBase;
  return State;
}

Result<BootSnapshot>
silver::sys::buildSnapshot(const std::vector<uint8_t> &Program,
                           const LayoutParams &Params) {
  Result<MemoryLayout> L = layoutFor(Program, Params);
  if (!L)
    return L.error();
  const size_t MemBytes = Params.MemSize;

  // Fill the touched pages densely first; regions are small and few.
  std::map<Word, std::vector<uint8_t>> Touched;
  auto Put = [&](Word Addr, const uint8_t *Bytes, size_t Len) {
    for (size_t I = 0; I != Len;) {
      size_t At = Addr + I;
      std::vector<uint8_t> &Page =
          Touched[static_cast<Word>(At >> isa::PageShift)];
      if (Page.empty())
        Page.assign(isa::PageSize, 0);
      size_t Off = At & (isa::PageSize - 1);
      size_t N = std::min(Len - I, isa::PageSize - Off);
      std::copy(Bytes + I, Bytes + I + N, Page.begin() + Off);
      I += N;
    }
  };
  if (Result<void> R = putProgramRegions(*L, Program, Put); !R)
    return R.error();

  BootSnapshot Snap;
  Snap.Layout = *L;
  Snap.ProgramBytes = Program.size();
  const size_t NumPages = isa::pageCount(MemBytes);
  const size_t LastLen = MemBytes - ((NumPages - 1) << isa::PageShift);
  static const uint8_t ZeroPage[isa::PageSize] = {};
  Snap.PageHashes.assign(NumPages, isa::zeroPageHash());
  if (LastLen != isa::PageSize)
    Snap.PageHashes.back() = isa::pageHash(ZeroPage, LastLen);
  for (const auto &[Index, Bytes] : Touched) {
    if (std::all_of(Bytes.begin(), Bytes.end(),
                    [](uint8_t B) { return B == 0; }))
      continue;
    size_t Len = Index + 1 == NumPages ? LastLen : isa::PageSize;
    Snap.Pages.push_back(Index);
    Snap.PageBytes.insert(Snap.PageBytes.end(), Bytes.begin(), Bytes.end());
    Snap.PageHashes[Index] = isa::pageHash(Bytes.data(), Len);
  }
  return Snap;
}

/// Makes \p State the init state of \p Spec's run from \p Snap.  \p State
/// has the snapshot's memory size and every nonzero byte of its memory
/// lies on a page its page-state table marks written: it is fresh, or
/// recycled.  The whole table is reset, code marks included.
static Result<void> loadInit(isa::MachineState &State,
                             const BootSnapshot &Snap, const ImageSpec &Spec) {
  if (!(Spec.Params == Snap.Layout.Params) ||
      Spec.Program.size() != Snap.ProgramBytes)
    return Error("boot snapshot was built for a different program or layout");
  if (Result<void> R = checkRunRegions(Spec); !R)
    return R.error();
  const size_t MemBytes = State.memSize();
  for (size_t P = 0; P != State.PageFlags.size(); ++P) {
    if (State.PageFlags[P] & isa::PageWritten) {
      size_t Base = P << isa::PageShift;
      std::fill_n(State.Memory.begin() + Base,
                  std::min(isa::PageSize, MemBytes - Base), 0);
    }
    State.PageFlags[P] = 0;
  }
  // The snapshot's pages are the baseline the written marks are
  // relative to: copied raw, not marked.
  for (size_t I = 0; I != Snap.Pages.size(); ++I) {
    size_t Base = size_t(Snap.Pages[I]) << isa::PageShift;
    size_t Len = std::min(isa::PageSize, MemBytes - Base);
    const uint8_t *Src = Snap.PageBytes.data() + I * isa::PageSize;
    std::copy(Src, Src + Len, State.Memory.begin() + Base);
  }
  auto Put = [&State](Word Addr, const uint8_t *Bytes, size_t Len) {
    State.writeBytes(Addr, Bytes, Len);
  };
  putRunRegions(Snap.Layout, Spec, Put);
  State.PC = Snap.Layout.StartupBase;
  return {};
}

ExitStatus silver::sys::readExitStatus(const isa::MachineState &State,
                                       const MemoryLayout &Layout) {
  return readExitStatus(State.Memory.data(), Layout);
}

ExitStatus silver::sys::readExitStatus(const uint8_t *Memory,
                                       const MemoryLayout &Layout) {
  ExitStatus S;
  S.Exited = readWordFrom(Memory, Layout.ExitFlagAddr) != 0;
  S.Code = static_cast<uint8_t>(readWordFrom(Memory, Layout.ExitCodeAddr));
  return S;
}

void silver::sys::interruptObservable(const uint8_t *Memory,
                                      const MemoryLayout &Layout,
                                      std::string &StdoutData,
                                      std::string &StderrData) {
  if (readWordFrom(Memory, Layout.ExitFlagAddr) != 0)
    return; // the exit interrupt writes no stream
  Word Id = readWordFrom(Memory, Layout.OutBufBase);
  Word Len = std::min(readWordFrom(Memory, Layout.OutBufBase + 4),
                      Layout.Params.OutBufCap);
  const char *Text =
      reinterpret_cast<const char *>(Memory + Layout.OutBufBase + 8);
  if (Id == 1)
    StdoutData.append(Text, Len);
  else if (Id == 2)
    StderrData.append(Text, Len);
}

void SysEnv::onInterrupt(isa::MachineState &State) {
  interruptObservable(State.Memory.data(), Layout, Stdout, Stderr);
}

Result<void> silver::sys::validateInstalled(const isa::MachineState &State,
                                            const MemoryLayout &L,
                                            const ImageSpec &Spec) {
  // (i) Registers 1-4 provide accurate memory information.
  if (State.Regs[abi::MemStartReg] != L.HeapBase)
    return Error("installed: r1 does not hold the usable-memory start");
  if (State.Regs[abi::MemEndReg] != L.HeapEnd)
    return Error("installed: r2 does not hold the usable-memory end");
  if (State.Regs[abi::FfiTableReg] != L.SyscallCodeBase)
    return Error("installed: r3 does not hold the FFI entry point");
  if (State.Regs[abi::LayoutReg] != L.DescriptorBase)
    return Error("installed: r4 does not hold the layout descriptor");

  // (ii)+(iii) Code and data of the program are in memory and the PC
  // points at the first instruction.
  if (!State.inRange(L.CodeBase, static_cast<Word>(Spec.Program.size())))
    return Error("installed: program does not fit in memory");
  for (size_t I = 0, E = Spec.Program.size(); I != E; ++I)
    if (State.Memory[L.CodeBase + I] != Spec.Program[I])
      return Error("installed: program bytes corrupted at offset " +
                   std::to_string(I));
  if (State.PC != L.CodeBase)
    return Error("installed: PC does not point at the program entry");

  // (iv) Alignment and non-overlap.  This is the assumption the paper
  // found to be inconsistent before fixing (§6.1); here every pointer is
  // checked against the same alignment rule.
  for (Word Addr : {L.CmdlineBase, L.StdinBase, L.OutBufBase,
                    L.SyscallCodeBase, L.HeapBase, L.HeapEnd, L.CodeBase})
    if (!isAligned(Addr, 4))
      return Error("installed: region base " + toHex(Addr) +
                   " is not word-aligned");
  if (L.HeapBase >= L.HeapEnd)
    return Error("installed: empty usable-memory region");
  if (L.HeapEnd > L.CodeBase)
    return Error("installed: usable memory overlaps the code section");

  // Command-line and stdin devices are well-formed.
  if (Result<void> Cl = checkClOk(Spec.CommandLine, L.Params); !Cl)
    return Cl.error();
  Word ClLen = State.readWord(L.CmdlineBase);
  if (ClLen > L.Params.CmdlineCap)
    return Error("installed: command-line region length out of range");
  Word StdinLen = State.readWord(L.StdinBase);
  Word StdinOff = State.readWord(L.StdinBase + 4);
  if (StdinLen > L.Params.StdinCap)
    return Error("installed: stdin region length out of range");
  if (StdinOff != 0)
    return Error("installed: stdin offset must start at zero");
  return {};
}

namespace {

/// Memories of finished runs (sys::recycle), each with its page-state
/// table marking every page that may be nonzero written.  Two states
/// cover a run repeated on one thread and the service's workers without
/// holding much resident memory.
struct StatePool {
  static constexpr size_t Capacity = 2;
  std::mutex Mu;
  std::vector<isa::MachineState> Free;
};

StatePool &statePool() {
  // Never destroyed: a worker may still finish a session during exit.
  static StatePool *Pool = new StatePool;
  return *Pool;
}

/// A state of \p MemBytes bytes for loadInit: pooled memory when there
/// is some, fresh otherwise.  Every field but the memory and its
/// page-state table starts afresh.
isa::MachineState takeState(size_t MemBytes) {
  StatePool &Pool = statePool();
  std::lock_guard<std::mutex> Lock(Pool.Mu);
  for (auto It = Pool.Free.begin(); It != Pool.Free.end(); ++It)
    if (It->memSize() == MemBytes) {
      isa::MachineState Init(0);
      Init.Memory = std::move(It->Memory);
      Init.PageFlags = std::move(It->PageFlags);
      Pool.Free.erase(It);
      return Init;
    }
  return isa::MachineState(MemBytes);
}

} // namespace

void silver::sys::recycle(BootResult Done) {
  if (!Done.Snapshot || Done.State.memSize() != Done.Snapshot->memBytes())
    return;
  // The snapshot's pages were copied in unmarked; mark them so the next
  // loadInit clears them with the pages the run wrote.
  for (Word P : Done.Snapshot->Pages)
    Done.State.PageFlags[P] |= isa::PageWritten;
  StatePool &Pool = statePool();
  std::lock_guard<std::mutex> Lock(Pool.Mu);
  if (Pool.Free.size() < StatePool::Capacity)
    Pool.Free.push_back(std::move(Done.State));
}

Result<BootResult>
silver::sys::instantiate(std::shared_ptr<const BootSnapshot> Snap,
                         const ImageSpec &Spec) {
  isa::MachineState Init = takeState(Snap->memBytes());
  if (Result<void> R = loadInit(Init, *Snap, Spec); !R)
    return R.error();
  return BootResult{Snap->Layout, std::move(Init), 0, std::move(Snap)};
}

Result<BootResult>
silver::sys::boot(std::shared_ptr<const BootSnapshot> Snap,
                  const ImageSpec &Spec, obs::Observer *Obs) {
  Result<BootResult> Init = instantiate(std::move(Snap), Spec);
  if (!Init)
    return Init.error();
  BootResult Out = Init.take();

  // Run the startup prefix: Next^k until the PC reaches the program.
  const uint64_t StartupBudget = 64;
  while (Out.State.PC != Out.Layout.CodeBase) {
    if (Out.StartupSteps >= StartupBudget)
      return Error("startup code did not reach the program entry");
    isa::StepResult S =
        Obs ? isa::step(Out.State, isa::nullEnv(), *Obs, Out.StartupSteps)
            : isa::step(Out.State, isa::nullEnv());
    if (!S.ok())
      return Error("startup code faulted");
    ++Out.StartupSteps;
  }

  if (Result<void> V = validateInstalled(Out.State, Out.Layout, Spec); !V)
    return V.error();
  return Out;
}

Result<BootResult> silver::sys::boot(const ImageSpec &Spec,
                                     obs::Observer *Obs) {
  Result<BootSnapshot> Snap = buildSnapshot(Spec.Program, Spec.Params);
  if (!Snap)
    return Snap.error();
  return boot(std::make_shared<const BootSnapshot>(Snap.take()), Spec, Obs);
}
