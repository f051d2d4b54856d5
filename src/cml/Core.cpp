//===- cml/Core.cpp - MiniCake core IR --------------------------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "cml/Core.h"

using namespace silver;
using namespace silver::cml;

unsigned silver::cml::primArgCount(PrimKind K) {
  switch (K) {
  case PrimKind::Add:
  case PrimKind::Sub:
  case PrimKind::Mul:
  case PrimKind::Div:
  case PrimKind::Mod:
  case PrimKind::Lt:
  case PrimKind::Le:
  case PrimKind::Gt:
  case PrimKind::Ge:
  case PrimKind::PolyEq:
  case PrimKind::Cons:
  case PrimKind::MkPair:
  case PrimKind::StrConcat:
  case PrimKind::StrSub:
  case PrimKind::Strcmp:
  case PrimKind::ClosSet:
    return 2;
  case PrimKind::Substring:
    return 3;
  case PrimKind::Head:
  case PrimKind::Tail:
  case PrimKind::IsNil:
  case PrimKind::Fst:
  case PrimKind::Snd:
  case PrimKind::StrSize:
  case PrimKind::ConcatList:
  case PrimKind::Implode:
  case PrimKind::Ord:
  case PrimKind::Chr:
  case PrimKind::Print:
  case PrimKind::PrintErr:
  case PrimKind::ReadChunk:
  case PrimKind::ArgN:
  case PrimKind::Exit:
  case PrimKind::GlobalSet:
  case PrimKind::ClosEnv:
    return 1;
  case PrimKind::ArgCount:
  case PrimKind::GlobalGet:
  case PrimKind::Trap:
  case PrimKind::AllocClosure:
    return 0;
  }
  return 0;
}

const char *silver::cml::primName(PrimKind K) {
  switch (K) {
  case PrimKind::Add:
    return "add";
  case PrimKind::Sub:
    return "sub";
  case PrimKind::Mul:
    return "mul";
  case PrimKind::Div:
    return "div";
  case PrimKind::Mod:
    return "mod";
  case PrimKind::Lt:
    return "lt";
  case PrimKind::Le:
    return "le";
  case PrimKind::Gt:
    return "gt";
  case PrimKind::Ge:
    return "ge";
  case PrimKind::PolyEq:
    return "eq";
  case PrimKind::Cons:
    return "cons";
  case PrimKind::Head:
    return "head";
  case PrimKind::Tail:
    return "tail";
  case PrimKind::IsNil:
    return "isnil";
  case PrimKind::MkPair:
    return "pair";
  case PrimKind::Fst:
    return "fst";
  case PrimKind::Snd:
    return "snd";
  case PrimKind::StrConcat:
    return "strcat";
  case PrimKind::StrSize:
    return "strsize";
  case PrimKind::StrSub:
    return "strsub";
  case PrimKind::Substring:
    return "substring";
  case PrimKind::Strcmp:
    return "strcmp";
  case PrimKind::ConcatList:
    return "concat_list";
  case PrimKind::Implode:
    return "implode";
  case PrimKind::Ord:
    return "ord";
  case PrimKind::Chr:
    return "chr";
  case PrimKind::Print:
    return "print";
  case PrimKind::PrintErr:
    return "print_err";
  case PrimKind::ReadChunk:
    return "read_chunk";
  case PrimKind::ArgCount:
    return "arg_count";
  case PrimKind::ArgN:
    return "arg_n";
  case PrimKind::Exit:
    return "exit";
  case PrimKind::GlobalGet:
    return "gget";
  case PrimKind::GlobalSet:
    return "gset";
  case PrimKind::Trap:
    return "trap";
  case PrimKind::AllocClosure:
    return "alloc_closure";
  case PrimKind::ClosSet:
    return "clos_set";
  case PrimKind::ClosEnv:
    return "clos_env";
  }
  return "?";
}

bool silver::cml::primIsPure(PrimKind K) {
  switch (K) {
  case PrimKind::Add:
  case PrimKind::Sub:
  case PrimKind::Mul:
  case PrimKind::Lt:
  case PrimKind::Le:
  case PrimKind::Gt:
  case PrimKind::Ge:
  case PrimKind::PolyEq:
  case PrimKind::Cons:
  case PrimKind::MkPair:
  case PrimKind::Fst:
  case PrimKind::Snd:
  case PrimKind::Head: // head/tail of a typed value cannot trap: matches
  case PrimKind::Tail: // only reach them after an IsNil test... except
                       // hand-written Core; treated as pure for DCE only
  case PrimKind::IsNil:
  case PrimKind::StrConcat:
  case PrimKind::StrSize:
  case PrimKind::Strcmp:
  case PrimKind::ConcatList:
  case PrimKind::Implode:
  case PrimKind::Ord:
  case PrimKind::GlobalGet:
  case PrimKind::ClosEnv:
    return true;
  default:
    return false;
  }
}

CExpPtr CExp::clone() const {
  auto E = std::make_unique<CExp>();
  E->Kind = Kind;
  E->Name = Name;
  E->Int = Int;
  E->Str = Str;
  E->Prim = Prim;
  E->Imm = Imm;
  for (const CExpPtr &A : Args)
    E->Args.push_back(A->clone());
  for (const CoreFun &F : Funs) {
    CoreFun C;
    C.Name = F.Name;
    C.Param = F.Param;
    C.Body = F.Body->clone();
    E->Funs.push_back(std::move(C));
  }
  return E;
}

size_t CExp::size() const {
  size_t N = 1;
  for (const CExpPtr &A : Args)
    N += A->size();
  for (const CoreFun &F : Funs)
    N += F.Body->size();
  return N;
}

std::string silver::cml::coreToString(const CExp &E) {
  switch (E.Kind) {
  case CExpKind::Var:
    return E.Name;
  case CExpKind::IntConst:
    return std::to_string(E.Int);
  case CExpKind::StrConst:
    return "\"" + E.Str + "\"";
  case CExpKind::NilConst:
    return "[]";
  case CExpKind::Fn:
    return "(fn " + E.Name + " => " + coreToString(*E.Args[0]) + ")";
  case CExpKind::App:
    return '(' + coreToString(*E.Args[0]) + " " + coreToString(*E.Args[1]) +
           ")";
  case CExpKind::Prim: {
    std::string S = std::string("(") + primName(E.Prim);
    if (E.Prim == PrimKind::GlobalGet || E.Prim == PrimKind::GlobalSet ||
        E.Prim == PrimKind::Trap || E.Prim == PrimKind::ClosEnv ||
        E.Prim == PrimKind::ClosSet || E.Prim == PrimKind::AllocClosure)
      S += '[' + std::to_string(E.Imm) + "]";
    for (const CExpPtr &A : E.Args)
      S += ' ' + coreToString(*A);
    return S + ")";
  }
  case CExpKind::If:
    return "(if " + coreToString(*E.Args[0]) + " " +
           coreToString(*E.Args[1]) + " " + coreToString(*E.Args[2]) + ")";
  case CExpKind::Let:
    return "(let " + E.Name + " = " + coreToString(*E.Args[0]) + " in " +
           coreToString(*E.Args[1]) + ")";
  case CExpKind::Letrec: {
    std::string S = "(letrec";
    for (const CoreFun &F : E.Funs)
      S += " [" + F.Name + " " + F.Param + " = " + coreToString(*F.Body) +
           "]";
    return S + " in " + coreToString(*E.Args[0]) + ")";
  }
  }
  return "?";
}
