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

using namespace silver;
using namespace silver::cml;

Result<Program> silver::cml::parseWithPrelude(const std::string &Source) {
  Result<Program> Prog = parseProgram(preludeSource());
  if (!Prog)
    return Error("prelude: " + Prog.error().str());
  Result<Program> User = parseProgram(Source);
  if (!User)
    return User;
  for (Dec &D : User->Decs)
    Prog->Decs.push_back(std::move(D));
  return Prog;
}

std::string silver::cml::withPrelude(const std::string &Source) {
  return std::string(preludeSource()) + "\n" + Source;
}

Result<Compiled> silver::cml::compileProgram(const std::string &Source,
                                             const CompileOptions &Options) {
  Result<Program> Prog = parseWithPrelude(Source);
  if (!Prog)
    return Error("parse error: " + Prog.error().str());

  if (Result<std::map<std::string, Scheme>> Types = inferProgram(*Prog);
      !Types)
    return Error("type error: " + Types.error().str());

  Result<CoreProgram> Core = lowerProgram(*Prog);
  if (!Core)
    return Core.error();

  Compiled Out;
  Out.Stats = optimizeCore(*Core, Options.Opt);
  Out.NumGlobals = Core->GlobalCount;

  FlatProgram Flat = flattenProgram(std::move(*Core));
  Out.NumFunctions = static_cast<unsigned>(Flat.Funs.size());

  assembler::Assembler A;
  if (Result<void> Gen = generateProgram(Flat, A); !Gen)
    return Gen.error();

  // Pass 1: size at a provisional base (branch shapes are distance-based,
  // so the size is base-independent for 4 KiB-aligned bases).
  Result<assembler::Assembled> Sized = A.assemble(0);
  if (!Sized)
    return Sized.error();

  Result<sys::MemoryLayout> Layout = sys::MemoryLayout::compute(
      Options.Layout, static_cast<Word>(Sized->Bytes.size()));
  if (!Layout)
    return Layout.error();

  // Pass 2: link at the real CodeBase.
  Result<assembler::Assembled> Final = A.assemble(Layout->CodeBase);
  if (!Final)
    return Final.error();
  if (Final->Bytes.size() != Sized->Bytes.size())
    return Error("internal: program size changed between link passes");

  Out.Program = std::move(Final->Bytes);
  Out.CodeBase = Layout->CodeBase;
  return Out;
}
