//===- isa/jit/JitBackend.cpp - The ISA execution backend and its JIT -----===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// isa::ExecBackend and the JIT it owns when asked for one: a block hook
/// (isa::BlockHook) in the predecoded run loop of isa/Interp.cpp.  The
/// loop calls enter() before each instruction it would interpret, which
/// counts visits, compiles hot entries and runs compiled blocks;
/// interpreted stores into code pages reach stored().  With no
/// instruction loop of its own, the JIT's step counts, faults and halts
/// are the interpreter's by construction.
///
//===----------------------------------------------------------------------===//

#include "isa/ExecBackend.h"

#include "isa/Interp.h"
#include "isa/jit/CodeArena.h"
#include "isa/jit/JitInternal.h"

#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define SILVER_JIT_HAVE_MMAP 1
#else
#define SILVER_JIT_HAVE_MMAP 0
#endif

using namespace silver;
using namespace silver::isa;
using namespace silver::isa::jit;

bool silver::isa::jit::hostSupported() {
#if (defined(__x86_64__) || defined(_M_X64)) && SILVER_JIT_HAVE_MMAP
  // The templates are x86-64; beyond the architecture, executable
  // memory must actually be mappable (hardened environments may refuse).
  static const bool Ok = [] {
    void *P = mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (P == MAP_FAILED)
      return false;
    bool Good = mprotect(P, 4096, PROT_READ | PROT_EXEC) == 0;
    munmap(P, 4096);
    return Good;
  }();
  return Ok;
#else
  return false;
#endif
}

namespace {

/// Code arena size; when full, all compiled blocks are flushed and
/// compilation starts over (bounded memory, self-healing).
constexpr size_t CodeBytes = 4u << 20;

} // namespace

class silver::isa::jit::Jit final : public BlockHook {
public:
  explicit Jit(const JitOptions &O) : Opts(O), Arena(CodeBytes) {
    if (!Arena.valid())
      return;
    Emitter Em;
    size_t EnterOff = 0, ExitOff = 0;
    emitRuntimeThunks(Em, EnterOff, ExitOff);
    uint8_t *P = Arena.alloc(Em.size());
    if (!P)
      return;
    std::memcpy(P, Em.Code.data(), Em.size());
    Arena.endWrite();
    Enter = reinterpret_cast<EnterFn>(P + EnterOff);
    CommonExit = P + ExitOff;
    ThunkBytes = Arena.used();
  }

  /// Whether the code arena and the thunks set up.
  bool ready() const { return Enter != nullptr; }

  const JitStats &stats() const { return Stats; }

  /// Before an unobserved run of \p State under \p StopPc: drops what
  /// was derived from another memory (\p Cache's slots too) or compiled
  /// under another stop PC.
  void prepareRun(MachineState &State, std::optional<Word> StopPc,
                  DecodeCache &Cache) {
    DeoptPending = false;
    if (State.Memory.size() != MemSize ||
        State.Memory.data() != MemData) {
      // A different (or resized) memory: every derived artifact refers
      // to the old one.
      Cache.invalidateAll();
      flushBlocks();
      MemSize = State.Memory.size();
      MemData = State.Memory.data();
    }
    bool HasStop = StopPc.has_value();
    if (!HasStamp || StampHasStop != HasStop ||
        (HasStop && StampStopPc != *StopPc)) {
      if (HasStamp)
        flushBlocks();
      HasStamp = true;
      StampHasStop = HasStop;
      StampStopPc = StopPc.value_or(0);
    }
  }

  /// Books a finished run of \p Steps instructions: the loop interpreted
  /// the ones compiled blocks did not run.
  void countRun(uint64_t Steps) {
    Stats.Interpreted += Steps - NativeSteps;
    NativeSteps = 0;
  }

  /// Drops every compiled block (arena pressure, stop-PC change, memory
  /// identity change, observed runs).  The thunks survive.
  void flushBlocks() {
    for (std::unique_ptr<BlockPage> &P : BlockPages)
      if (P)
        for (BlockEntry &E : P->Slots)
          E = BlockEntry{};
    Records.clear();
    PendingChains.clear();
    Arena.resetTo(ThunkBytes);
  }

  /// Invalidates installed blocks whose source bytes overlap
  /// [Addr, Addr+Size): the block's entry is patched into a jump to its
  /// invalidation stub, so stale incoming chains bounce out safely.
  void invalidateBlocksOverlap(Word Addr, Word Size) {
    if (Size == 0 || Records.empty())
      return;
    Word First = Addr;
    Word Last = Addr + (Size - 1);
    bool Writing = false;
    for (BlockRecord &R : Records) {
      if (!R.Live || R.Last < First || R.First > Last)
        continue;
      if (!Writing) {
        Arena.beginWrite();
        Writing = true;
      }
      R.Code[0] = 0xe9;
      patchRel32At(R.Code + 1, R.InvalidStub);
      R.Live = false;
      BlockEntry &E = blockEntry(R.Entry);
      E = BlockEntry{};
      ++Stats.BlockInvalidations;
    }
    if (Writing)
      Arena.endWrite();
  }

private:
  using EnterFn = void (*)(JitFrame *, const void *);

  enum BlockState : uint8_t { StCold = 0, StCompiled = 1, StRefused = 2 };

  struct BlockEntry {
    uint8_t *Code = nullptr;
    uint32_t Len = 0;
    uint32_t Counter = 0;
    uint8_t St = StCold;
  };
  struct BlockPage {
    std::array<BlockEntry, DecodeCache::PageSlots> Slots{};
  };
  /// One installed block, for invalidation by source byte range.
  struct BlockRecord {
    Word Entry = 0;
    Word First = 0;
    Word Last = 0; ///< inclusive
    uint8_t *Code = nullptr;
    uint8_t *InvalidStub = nullptr;
    bool Live = false;
  };

  JitOptions Opts;
  CodeArena Arena;
  EnterFn Enter = nullptr;
  uint8_t *CommonExit = nullptr;
  size_t ThunkBytes = 0;
  JitFrame Frame;
  JitStats Stats;
  /// Instructions run natively since the last countRun.
  uint64_t NativeSteps = 0;
  /// The last block deopted after committing some of its instructions;
  /// the loop's next visit is the deopting instruction (enter).
  bool DeoptPending = false;

  std::vector<std::unique_ptr<BlockPage>> BlockPages;
  std::vector<BlockRecord> Records;
  /// Chain slots (address of their E9 byte) waiting for a target PC to
  /// be compiled.
  std::unordered_multimap<Word, uint8_t *> PendingChains;

  /// The stop PC the current block population was compiled under;
  /// changing it flushes (blocks never straddle the stop PC).
  bool HasStamp = false;
  bool StampHasStop = false;
  Word StampStopPc = 0;

  /// Identity of the memory the blocks were compiled from.
  const uint8_t *MemData = nullptr;
  size_t MemSize = 0;

  BlockEntry &blockEntry(Word Pc) {
    size_t PageIdx = Pc >> PageShift;
    if (PageIdx >= BlockPages.size())
      BlockPages.resize(PageIdx + 1);
    if (!BlockPages[PageIdx])
      BlockPages[PageIdx] = std::make_unique<BlockPage>();
    return BlockPages[PageIdx]
        ->Slots[(Pc & DecodeCache::PageMask) >> 2];
  }

  const BlockEntry *findBlock(Word Pc) const {
    size_t PageIdx = Pc >> PageShift;
    if (PageIdx >= BlockPages.size() || !BlockPages[PageIdx])
      return nullptr;
    return &BlockPages[PageIdx]
                ->Slots[(Pc & DecodeCache::PageMask) >> 2];
  }

  static void patchRel32At(uint8_t *Field, const uint8_t *Target) {
    int64_t Rel = Target - (Field + 4);
    uint32_t V = static_cast<uint32_t>(static_cast<int32_t>(Rel));
    Field[0] = static_cast<uint8_t>(V);
    Field[1] = static_cast<uint8_t>(V >> 8);
    Field[2] = static_cast<uint8_t>(V >> 16);
    Field[3] = static_cast<uint8_t>(V >> 24);
  }

  /// Runs compiled code from State.PC; returns the instructions run.
  uint64_t runNative(MachineState &State, const uint8_t *Code,
                     uint64_t Remaining) {
    Frame.Regs = State.Regs.data();
    Frame.Mem = State.Memory.data();
    Frame.PageFlags = State.PageFlags.data();
    Frame.StepsLeft = Remaining;
    Frame.Pc = State.PC;
    Frame.ExitKind = ExitChain;
    Frame.Carry = State.CarryFlag ? 1 : 0;
    Frame.Overflow = State.OverflowFlag ? 1 : 0;
    Frame.InvertAddCarry = fault::InvertAddCarry ? 1 : 0;
    Enter(&Frame, Code);
    State.PC = Frame.Pc;
    State.CarryFlag = Frame.Carry != 0;
    State.OverflowFlag = Frame.Overflow != 0;
    ++Stats.Exits[Frame.ExitKind];
    return Remaining - Frame.StepsLeft;
  }

  void tryCompile(MachineState &State, Word Entry) {
    CompiledCode CC;
    RefuseReason Why = RefuseReason::None;
    auto Refuse = [&](RefuseReason R) {
      blockEntry(Entry).St = StRefused;
      ++Stats.Refused[static_cast<size_t>(R)];
    };
    if (!compileBlock(State, Entry, StampHasStop, StampStopPc, CC, Why))
      return Refuse(Why);
    uint8_t *P = Arena.alloc(CC.Bytes.size());
    if (!P) {
      flushBlocks();
      ++Stats.ArenaFlushes;
      P = Arena.alloc(CC.Bytes.size());
      if (!P) // cannot ever fit
        return Refuse(RefuseReason::ArenaTooSmall);
    }
    Arena.beginWrite();
    std::memcpy(P, CC.Bytes.data(), CC.Bytes.size());
    for (size_t F : CC.ExitFixups)
      patchRel32At(P + F, CommonExit);
    // Outgoing edges: patch now when the target is already compiled,
    // park in PendingChains otherwise.
    for (const CompiledCode::ChainSlot &CS : CC.Chains) {
      uint8_t *Slot = P + CS.Off;
      const BlockEntry *T = findBlock(CS.TargetPc);
      if (T && T->St == StCompiled)
        patchRel32At(Slot + 1, T->Code);
      else
        PendingChains.emplace(CS.TargetPc, Slot);
    }
    // Incoming edges parked on this entry.
    auto Range = PendingChains.equal_range(Entry);
    for (auto It = Range.first; It != Range.second; ++It)
      patchRel32At(It->second + 1, P);
    PendingChains.erase(Range.first, Range.second);
    Arena.endWrite();

    State.markCode(CC.FirstByte);
    State.markCode(CC.LastByte); // a block spans at most two pages

    BlockRecord Rec;
    Rec.Entry = Entry;
    Rec.First = CC.FirstByte;
    Rec.Last = CC.LastByte;
    Rec.Code = P;
    Rec.InvalidStub = P + CC.InvalidStubOff;
    Rec.Live = true;
    Records.push_back(Rec);

    BlockEntry &E = blockEntry(Entry);
    E.Code = P;
    E.Len = CC.Instrs;
    E.St = StCompiled;
    ++Stats.BlocksCompiled;
  }

  /// A visit of the loop at State.PC: counts it, compiles a hot entry,
  /// and runs the compiled block there when the budget covers it.  The
  /// illegal word and the halt self-jump are no visit, and neither is
  /// the instruction a block deopted at after committing some of its
  /// own: the loop executes it next, as the continuation of that entry.
  uint64_t enter(MachineState &State, const DecodedInsn &D,
                 uint64_t Remaining) override {
    if (DeoptPending) {
      DeoptPending = false;
      return 0;
    }
    if (D.Illegal || D.selfJump())
      return 0;
    BlockEntry &B = blockEntry(State.PC);
    if (B.St == StCold && ++B.Counter >= Opts.HotThreshold)
      tryCompile(State, State.PC);
    // tryCompile may have flushed; re-read the entry.
    const BlockEntry &BE = *findBlock(State.PC);
    if (BE.St != StCompiled || Remaining < BE.Len)
      return 0;
    uint64_t Ran = runNative(State, BE.Code, Remaining);
    NativeSteps += Ran;
    DeoptPending = Frame.ExitKind == ExitDeopt && Ran != 0;
    return Ran;
  }

  void stored(Word Addr, Word Size) override {
    invalidateBlocksOverlap(Addr, Size);
  }
};

ExecBackend::ExecBackend(std::optional<jit::JitOptions> Opts) {
  if (!Opts || !jit::hostSupported())
    return;
  Jit = std::make_unique<jit::Jit>(*Opts);
  if (!Jit->ready())
    Jit.reset();
}

ExecBackend::ExecBackend(ExecBackend &&) noexcept = default;
ExecBackend &ExecBackend::operator=(ExecBackend &&) noexcept = default;
ExecBackend::~ExecBackend() = default;

RunResult ExecBackend::run(MachineState &State, IsaEnv &Env,
                           uint64_t MaxSteps, std::optional<Word> StopPc,
                           ObsHooks *Hooks) {
  if (!Jit)
    return isa::run(State, Env, Cache, MaxSteps, StopPc, Hooks);
  RunResult R;
  if (Hooks && Hooks->Obs) {
    // Observed runs are interpreter-exact by definition; the observed
    // loop's stores do not reach stored(), so drop every block.
    R = isa::run(State, Env, Cache, MaxSteps, StopPc, Hooks);
    Jit->flushBlocks();
  } else {
    Jit->prepareRun(State, StopPc, Cache);
    R = isa::run(State, Env, Cache, MaxSteps, StopPc, *Jit);
  }
  Jit->countRun(R.Steps);
  return R;
}

void ExecBackend::invalidate(Word Addr, Word Size) {
  Cache.invalidate(Addr, Size);
  if (Jit)
    Jit->invalidateBlocksOverlap(Addr, Size);
}

const jit::JitStats *ExecBackend::jitStats() const {
  return Jit ? &Jit->stats() : nullptr;
}
