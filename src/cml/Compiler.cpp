//===- cml/Compiler.cpp - The MiniCake compiler driver -----------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "cml/Compiler.h"

#include "cml/CodeGen.h"
#include "cml/Flat.h"
#include "cml/Infer.h"
#include "cml/Lower.h"
#include "cml/Parser.h"
#include "cml/Prelude.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <tuple>

using namespace silver;
using namespace silver::cml;

namespace {

/// The prelude through the passes that no option changes: parsed,
/// type-checked and lowered, with each pass's state after it.
struct PreludeFront {
  Program Parsed;
  InferState Types;
  LowerState Lowered;
  CoreProgram Core;
};

/// The prelude through the rest of the pipeline, for one OptOptions value.
struct PreludeBack {
  OptState Opt;
  FlattenState Flat;
  FTailPtr Main; ///< each program's main continues this one
  /// The entry stub, the runtime and the prelude's functions, laid out and
  /// encoded: the first part of every image.  Branches in it stay inside
  /// it, so placing it anywhere moves only its absolute loads.
  assembler::Fragment Prefix;
};

/// True when every type variable in \p T is one of \p Bound.  Closed
/// schemes are only ever read: instantiation copies what it substitutes,
/// and unification links variables only.
bool isClosed(const TypePtr &TIn, const std::vector<int> &Bound) {
  TypePtr T = resolve(TIn);
  if (T->K == Type::Kind::Var)
    return std::find(Bound.begin(), Bound.end(), T->Id) != Bound.end();
  for (const TypePtr &Arg : T->Args)
    if (!isClosed(Arg, Bound))
      return false;
  return true;
}

Result<PreludeFront> buildFront() {
  Result<Program> Parsed = parseProgram(preludeSource());
  if (!Parsed)
    return Error("prelude: " + Parsed.error().str());
  PreludeFront F;
  F.Types = InferState::initial();
  if (auto Types = inferDecs(F.Types, Parsed->Decs); !Types)
    return Error("prelude: " + Types.error().str());
  // Programs type-check from copies of this environment, on several
  // threads at once; it must hold nothing that unification writes.
  for (const auto &[Name, S] : F.Types.Env)
    if (!isClosed(S.Body, S.Quantified))
      return Error("internal: the prelude's type of '" + Name +
                   "' has a free type variable");
  F.Lowered = LowerState::initial();
  Result<CoreProgram> Core = lowerDecs(F.Lowered, Parsed->Decs);
  if (!Core)
    return Core.error();
  F.Core = Core.take();
  F.Parsed = Parsed.take();
  return F;
}

/// The front state, built on first use (thread-safe) and never changed.
const Result<PreludeFront> &front() {
  static const Result<PreludeFront> Front = buildFront();
  return Front;
}

Result<PreludeBack> buildBack(const PreludeFront &F, const OptOptions &Opt) {
  CoreProgram Core{F.Core.Main->clone(), F.Core.GlobalCount,
                   F.Core.GlobalNames};
  PreludeBack B;
  optimizeCore(Core, Opt, B.Opt);
  // A program's code is optimised after the prelude's, so the prelude's
  // must come out the same with more rounds, and number nothing that
  // the program's renaming would otherwise have numbered.
  if (B.Opt.Renames != 0)
    return Error("internal: optimising the prelude renames binders");
  if (B.Opt.ChangedRounds < 4) {
    CoreProgram Again{Core.Main->clone(), Core.GlobalCount, {}};
    OptState More;
    optimizeCore(Again, Opt, More);
    if (More.ChangedRounds != 0 || More.Renames != 0 ||
        coreToString(*Again.Main) != coreToString(*Core.Main))
      return Error("internal: the optimised prelude is not a fixpoint");
  }
  FlatProgram Flat = flattenProgram(std::move(Core), B.Flat);
  B.Main = std::move(Flat.Main);
  assembler::Assembler A;
  generateStart(A);
  generateFunctions(Flat, A);
  Result<assembler::Fragment> Prefix = A.fragment();
  if (!Prefix)
    return Error("internal: prelude: " + Prefix.error().str());
  B.Prefix = Prefix.take();
  return B;
}

/// The back state for \p Opt: one per OptOptions value in use, built on
/// first use and shared read-only afterwards.
Result<std::shared_ptr<const PreludeBack>> back(const OptOptions &Opt) {
  static std::mutex Lock;
  static std::map<std::tuple<bool, bool, bool, unsigned>,
                  std::shared_ptr<const PreludeBack>>
      ByOptions;
  const Result<PreludeFront> &F = front();
  if (!F)
    return F.error();
  auto Key = std::make_tuple(Opt.ConstantFold, Opt.DeadLetElim, Opt.Inline,
                             Opt.InlineSizeLimit);
  std::lock_guard<std::mutex> Guard(Lock);
  std::shared_ptr<const PreludeBack> &Slot = ByOptions[Key];
  if (!Slot) {
    Result<PreludeBack> B = buildBack(*F, Opt);
    if (!B)
      return B.error();
    Slot = std::make_shared<const PreludeBack>(B.take());
  }
  return Slot;
}

} // namespace

Result<Program> silver::cml::parseWithPrelude(const std::string &Source) {
  const Result<PreludeFront> &F = front();
  if (!F)
    return F.error();
  Result<Program> User = parseProgram(Source);
  if (!User)
    return User;
  Program Prog;
  Prog.Decs.reserve(F->Parsed.Decs.size() + User->Decs.size());
  for (const Dec &D : F->Parsed.Decs)
    Prog.Decs.push_back(cloneDec(D));
  for (Dec &D : User->Decs)
    Prog.Decs.push_back(std::move(D));
  return Prog;
}

Result<std::map<std::string, Scheme>>
silver::cml::inferWithPrelude(const Program &Prog) {
  const Result<PreludeFront> &F = front();
  if (!F)
    return F.error();
  size_t Skip = F->Parsed.Decs.size();
  if (Prog.Decs.size() < Skip)
    return Error("internal: the program does not start with the prelude");
  InferState Types = F->Types;
  return inferDecs(Types, std::span<const Dec>(Prog.Decs).subspan(Skip));
}

std::string silver::cml::withPrelude(const std::string &Source) {
  return std::string(preludeSource()) + "\n" + Source;
}

Result<Compiled> silver::cml::compileProgram(const std::string &Source,
                                             const CompileOptions &Options) {
  Result<Program> User = parseProgram(Source);
  if (!User)
    return Error("parse error: " + User.error().str());
  const Result<PreludeFront> &F = front();
  if (!F)
    return F.error();

  InferState Types = F->Types;
  if (auto T = inferDecs(Types, User->Decs); !T)
    return Error("type error: " + T.error().str());

  LowerState Lowered = F->Lowered;
  Result<CoreProgram> Core = lowerDecs(Lowered, User->Decs);
  if (!Core)
    return Core.error();

  Result<std::shared_ptr<const PreludeBack>> B = back(Options.Opt);
  if (!B)
    return B.error();
  const PreludeBack &Prelude = **B;

  Compiled Out;
  OptState Opt = Prelude.Opt;
  optimizeCore(*Core, Options.Opt, Opt);
  Out.Stats = Opt.Stats;
  Out.NumGlobals = Core->GlobalCount;

  FlattenState FlatState = Prelude.Flat;
  FlatProgram Flat = flattenProgram(Core.take(), FlatState);
  Flat.Main = appendMain(*Prelude.Main, std::move(Flat.Main));
  Out.NumFunctions = FlatState.NextFunId;

  // The program's functions, main and data follow the prelude's prefix.
  assembler::Assembler A;
  generateFunctions(Flat, A);
  generateMainAndData(Flat, A);
  const assembler::Fragment &Prefix = Prelude.Prefix;
  auto PrefixSize = static_cast<Word>(Prefix.Bytes.size());
  // Laid out once, at the image's start 0: branch forms depend only on
  // distances, so the layout holds at the 4 KiB-aligned CodeBase too.
  Result<assembler::Layout> Laid = A.layout(PrefixSize, Prefix.Labels);
  if (!Laid)
    return Laid.error();
  Result<sys::MemoryLayout> Layout =
      sys::MemoryLayout::compute(Options.Layout, PrefixSize + Laid->Size);
  if (!Layout)
    return Layout.error();

  Result<assembler::Assembled> Rest =
      A.encode(*Laid, Prefix.Labels, Layout->CodeBase);
  if (!Rest)
    return Rest.error();
  Result<std::vector<uint8_t>> Head =
      Prefix.placeAt(Layout->CodeBase, Rest->Symbols);
  if (!Head)
    return Head.error();
  Out.Program = Head.take();
  Out.Program.insert(Out.Program.end(), Rest->Bytes.begin(),
                     Rest->Bytes.end());
  Out.CodeBase = Layout->CodeBase;
  return Out;
}
