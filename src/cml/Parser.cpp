//===- cml/Parser.cpp - MiniCake parser ------------------------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "cml/Parser.h"

using namespace silver;
using namespace silver::cml;

namespace {

ExpPtr makeExp(ExpKind Kind, Loc Where) {
  auto E = std::make_unique<Exp>();
  E->Kind = Kind;
  E->Where = Where;
  return E;
}

PatPtr makePat(PatKind Kind, Loc Where) {
  auto P = std::make_unique<Pat>();
  P->Kind = Kind;
  P->Where = Where;
  return P;
}

class Parser {
public:
  explicit Parser(std::vector<Token> Tokens) : Tokens(std::move(Tokens)) {}

  Result<Program> parseProgram();
  Result<ExpPtr> parseExp();

private:
  std::vector<Token> Tokens;
  size_t Pos = 0;

  const Token &peek(size_t Ahead = 0) const {
    size_t I = Pos + Ahead;
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }
  const Token &advance() {
    const Token &T = peek();
    if (Pos + 1 < Tokens.size())
      ++Pos;
    return T;
  }
  bool consumeIdent(const std::string &Text) {
    if (!peek().isIdent(Text))
      return false;
    advance();
    return true;
  }
  bool consumePunct(const std::string &Text) {
    if (!peek().isPunct(Text))
      return false;
    advance();
    return true;
  }
  Error errorHere(const std::string &Message) const {
    const Token &T = peek();
    return Error(Message, T.Where.Line, T.Where.Col);
  }
  Result<void> expectPunct(const std::string &Text) {
    if (!consumePunct(Text))
      return errorHere("expected '" + Text + "'");
    return {};
  }
  Result<void> expectKeyword(const std::string &Text) {
    if (!consumeIdent(Text))
      return errorHere("expected '" + Text + "'");
    return {};
  }
  Result<std::string> expectName() {
    if (peek().Kind != TokKind::Ident || isKeyword(peek().Text))
      return errorHere("expected an identifier");
    return advance().Text;
  }

  Result<FunBind> parseFunBind();
  Result<ExpPtr> parseLet();
  Result<ExpPtr> parseCase();
  Result<ExpPtr> parseOrElse();
  Result<ExpPtr> parseAndAlso();
  Result<ExpPtr> parseCompare();
  Result<ExpPtr> parseConcat();
  Result<ExpPtr> parseCons();
  Result<ExpPtr> parseAdd();
  Result<ExpPtr> parseMul();
  Result<ExpPtr> parseApp();
  Result<ExpPtr> parseAtom();
  bool atAtomStart() const;
  Result<PatPtr> parsePat();
  Result<PatPtr> parseAtomicPat();
};

Result<FunBind> Parser::parseFunBind() {
  FunBind F;
  F.Where = peek().Where;
  Result<std::string> Name = expectName();
  if (!Name)
    return Name.error();
  F.Name = Name.take();
  for (;;) {
    if (peek().Kind == TokKind::Ident && !isKeyword(peek().Text)) {
      F.Params.push_back(advance().Text);
      continue;
    }
    if (peek().isPunct("_")) { // wildcard parameter
      advance();
      F.Params.push_back("_");
      continue;
    }
    break;
  }
  if (F.Params.empty())
    return errorHere("function binding needs at least one parameter");
  if (Result<void> Eq = expectPunct("="); !Eq)
    return Eq.error();
  Result<ExpPtr> Body = parseExp();
  if (!Body)
    return Body.error();
  F.Body = Body.take();
  return F;
}

Result<Program> Parser::parseProgram() {
  Program Prog;
  while (peek().Kind != TokKind::Eof) {
    Dec D;
    D.Where = peek().Where;
    if (consumeIdent("val")) {
      D.K = Dec::Kind::Val;
      if (consumePunct("_")) {
        D.Name = '_';
      } else {
        Result<std::string> Name = expectName();
        if (!Name)
          return Name.error();
        D.Name = Name.take();
      }
      if (Result<void> Eq = expectPunct("="); !Eq)
        return Eq.error();
      Result<ExpPtr> Body = parseExp();
      if (!Body)
        return Body.error();
      D.Body = Body.take();
    } else if (consumeIdent("fun")) {
      D.K = Dec::Kind::Fun;
      do {
        Result<FunBind> F = parseFunBind();
        if (!F)
          return F.error();
        D.Funs.push_back(F.take());
      } while (consumeIdent("and"));
    } else {
      return errorHere("expected a 'val' or 'fun' declaration");
    }
    consumePunct(";");
    Prog.Decs.push_back(std::move(D));
  }
  return Prog;
}

Result<ExpPtr> Parser::parseExp() {
  Loc Where = peek().Where;
  if (consumeIdent("fn")) {
    std::string Param;
    if (consumePunct("_")) {
      Param = '_';
    } else {
      Result<std::string> Name = expectName();
      if (!Name)
        return Name.error();
      Param = Name.take();
    }
    if (Result<void> Arrow = expectPunct("=>"); !Arrow)
      return Arrow.error();
    Result<ExpPtr> Body = parseExp();
    if (!Body)
      return Body.error();
    ExpPtr E = makeExp(ExpKind::Fn, Where);
    E->Name = Param;
    E->E0 = Body.take();
    return E;
  }
  if (consumeIdent("if")) {
    Result<ExpPtr> Cond = parseExp();
    if (!Cond)
      return Cond.error();
    if (Result<void> T = expectKeyword("then"); !T)
      return T.error();
    Result<ExpPtr> Then = parseExp();
    if (!Then)
      return Then.error();
    if (Result<void> E = expectKeyword("else"); !E)
      return E.error();
    Result<ExpPtr> Else = parseExp();
    if (!Else)
      return Else.error();
    ExpPtr E = makeExp(ExpKind::If, Where);
    E->E0 = Cond.take();
    E->E1 = Then.take();
    E->E2 = Else.take();
    return E;
  }
  if (peek().isIdent("case"))
    return parseCase();
  if (peek().isIdent("let"))
    return parseLet();
  return parseOrElse();
}

Result<ExpPtr> Parser::parseCase() {
  Loc Where = peek().Where;
  advance(); // case
  Result<ExpPtr> Scrutinee = parseExp();
  if (!Scrutinee)
    return Scrutinee.error();
  if (Result<void> Of = expectKeyword("of"); !Of)
    return Of.error();
  ExpPtr E = makeExp(ExpKind::Case, Where);
  E->E0 = Scrutinee.take();
  consumePunct("|"); // optional leading bar
  do {
    MatchArm Arm;
    Result<PatPtr> P = parsePat();
    if (!P)
      return P.error();
    Arm.Pattern = P.take();
    if (Result<void> Arrow = expectPunct("=>"); !Arrow)
      return Arrow.error();
    Result<ExpPtr> Body = parseExp();
    if (!Body)
      return Body.error();
    Arm.Body = Body.take();
    E->Arms.push_back(std::move(Arm));
  } while (consumePunct("|"));
  return E;
}

Result<ExpPtr> Parser::parseLet() {
  Loc Where = peek().Where;
  advance(); // let

  // Collect the bindings, then nest them around the body right-to-left.
  struct Binding {
    bool IsVal;
    Loc Where;
    std::string Name;             // Val
    ExpPtr Body;                  // Val
    std::vector<FunBind> Funs;    // Fun group
  };
  std::vector<Binding> Bindings;
  for (;;) {
    if (consumeIdent("val")) {
      Binding B;
      B.IsVal = true;
      B.Where = peek().Where;
      if (consumePunct("_")) {
        B.Name = '_';
      } else {
        Result<std::string> Name = expectName();
        if (!Name)
          return Name.error();
        B.Name = Name.take();
      }
      if (Result<void> Eq = expectPunct("="); !Eq)
        return Eq.error();
      Result<ExpPtr> Body = parseExp();
      if (!Body)
        return Body.error();
      B.Body = Body.take();
      Bindings.push_back(std::move(B));
      continue;
    }
    if (consumeIdent("fun")) {
      Binding B;
      B.IsVal = false;
      B.Where = peek().Where;
      do {
        Result<FunBind> F = parseFunBind();
        if (!F)
          return F.error();
        B.Funs.push_back(F.take());
      } while (consumeIdent("and"));
      Bindings.push_back(std::move(B));
      continue;
    }
    break;
  }
  if (Bindings.empty())
    return errorHere("let needs at least one binding");
  if (Result<void> In = expectKeyword("in"); !In)
    return In.error();

  // Body: exp (";" exp)* — a sequence evaluated for effect.
  Result<ExpPtr> Body = parseExp();
  if (!Body)
    return Body.error();
  ExpPtr BodyExp = Body.take();
  while (consumePunct(";")) {
    Result<ExpPtr> Next = parseExp();
    if (!Next)
      return Next.error();
    ExpPtr Seq = makeExp(ExpKind::LetVal, BodyExp->Where);
    Seq->Name = '_';
    Seq->E0 = std::move(BodyExp);
    Seq->E1 = Next.take();
    BodyExp = std::move(Seq);
  }
  if (Result<void> End = expectKeyword("end"); !End)
    return End.error();

  for (auto It = Bindings.rbegin(), E = Bindings.rend(); It != E; ++It) {
    if (It->IsVal) {
      ExpPtr LetE = makeExp(ExpKind::LetVal, It->Where);
      LetE->Name = It->Name;
      LetE->E0 = std::move(It->Body);
      LetE->E1 = std::move(BodyExp);
      BodyExp = std::move(LetE);
    } else {
      ExpPtr LetE = makeExp(ExpKind::LetFun, It->Where);
      LetE->Funs = std::move(It->Funs);
      LetE->E0 = std::move(BodyExp);
      BodyExp = std::move(LetE);
    }
  }
  (void)Where;
  return BodyExp;
}

Result<ExpPtr> Parser::parseOrElse() {
  Result<ExpPtr> Lhs = parseAndAlso();
  if (!Lhs)
    return Lhs;
  ExpPtr E = Lhs.take();
  while (peek().isIdent("orelse")) {
    Loc Where = advance().Where;
    Result<ExpPtr> Rhs = parseAndAlso();
    if (!Rhs)
      return Rhs;
    ExpPtr Node = makeExp(ExpKind::OrElse, Where);
    Node->E0 = std::move(E);
    Node->E1 = Rhs.take();
    E = std::move(Node);
  }
  return E;
}

Result<ExpPtr> Parser::parseAndAlso() {
  Result<ExpPtr> Lhs = parseCompare();
  if (!Lhs)
    return Lhs;
  ExpPtr E = Lhs.take();
  while (peek().isIdent("andalso")) {
    Loc Where = advance().Where;
    Result<ExpPtr> Rhs = parseCompare();
    if (!Rhs)
      return Rhs;
    ExpPtr Node = makeExp(ExpKind::AndAlso, Where);
    Node->E0 = std::move(E);
    Node->E1 = Rhs.take();
    E = std::move(Node);
  }
  return E;
}

Result<ExpPtr> Parser::parseCompare() {
  Result<ExpPtr> Lhs = parseConcat();
  if (!Lhs)
    return Lhs;
  ExpPtr E = Lhs.take();
  struct OpEntry {
    const char *Spelling;
    BinOp Op;
  };
  static const OpEntry Ops[] = {{"=", BinOp::Eq},  {"<>", BinOp::Neq},
                                {"<=", BinOp::Le}, {">=", BinOp::Ge},
                                {"<", BinOp::Lt},  {">", BinOp::Gt}};
  for (const OpEntry &Entry : Ops) {
    if (peek().isPunct(Entry.Spelling)) {
      Loc Where = advance().Where;
      Result<ExpPtr> Rhs = parseConcat();
      if (!Rhs)
        return Rhs;
      ExpPtr Node = makeExp(ExpKind::Prim, Where);
      Node->Op = Entry.Op;
      Node->E0 = std::move(E);
      Node->E1 = Rhs.take();
      return Node; // comparisons are non-associative
    }
  }
  return E;
}

Result<ExpPtr> Parser::parseConcat() {
  Result<ExpPtr> Lhs = parseCons();
  if (!Lhs)
    return Lhs;
  ExpPtr E = Lhs.take();
  while (peek().isPunct("^")) {
    Loc Where = advance().Where;
    Result<ExpPtr> Rhs = parseCons();
    if (!Rhs)
      return Rhs;
    ExpPtr Node = makeExp(ExpKind::Prim, Where);
    Node->Op = BinOp::Concat;
    Node->E0 = std::move(E);
    Node->E1 = Rhs.take();
    E = std::move(Node);
  }
  return E;
}

Result<ExpPtr> Parser::parseCons() {
  Result<ExpPtr> Lhs = parseAdd();
  if (!Lhs)
    return Lhs;
  ExpPtr E = Lhs.take();
  if (peek().isPunct("::")) {
    Loc Where = advance().Where;
    Result<ExpPtr> Rhs = parseCons(); // right-associative
    if (!Rhs)
      return Rhs;
    ExpPtr Node = makeExp(ExpKind::Prim, Where);
    Node->Op = BinOp::Cons;
    Node->E0 = std::move(E);
    Node->E1 = Rhs.take();
    return Node;
  }
  return E;
}

Result<ExpPtr> Parser::parseAdd() {
  Result<ExpPtr> Lhs = parseMul();
  if (!Lhs)
    return Lhs;
  ExpPtr E = Lhs.take();
  for (;;) {
    BinOp Op;
    if (peek().isPunct("+"))
      Op = BinOp::Add;
    else if (peek().isPunct("-"))
      Op = BinOp::Sub;
    else
      return E;
    Loc Where = advance().Where;
    Result<ExpPtr> Rhs = parseMul();
    if (!Rhs)
      return Rhs;
    ExpPtr Node = makeExp(ExpKind::Prim, Where);
    Node->Op = Op;
    Node->E0 = std::move(E);
    Node->E1 = Rhs.take();
    E = std::move(Node);
  }
}

Result<ExpPtr> Parser::parseMul() {
  Result<ExpPtr> Lhs = parseApp();
  if (!Lhs)
    return Lhs;
  ExpPtr E = Lhs.take();
  for (;;) {
    BinOp Op;
    if (peek().isPunct("*"))
      Op = BinOp::Mul;
    else if (peek().isIdent("div"))
      Op = BinOp::Div;
    else if (peek().isIdent("mod"))
      Op = BinOp::Mod;
    else
      return E;
    Loc Where = advance().Where;
    Result<ExpPtr> Rhs = parseApp();
    if (!Rhs)
      return Rhs;
    ExpPtr Node = makeExp(ExpKind::Prim, Where);
    Node->Op = Op;
    Node->E0 = std::move(E);
    Node->E1 = Rhs.take();
    E = std::move(Node);
  }
}

bool Parser::atAtomStart() const {
  const Token &T = peek();
  switch (T.Kind) {
  case TokKind::IntLit:
  case TokKind::CharLit:
  case TokKind::StrLit:
    return true;
  case TokKind::Ident:
    return !isKeyword(T.Text) || T.Text == "true" || T.Text == "false";
  case TokKind::Punct:
    return T.Text == "(" || T.Text == "[";
  case TokKind::Eof:
    return false;
  }
  return false;
}

Result<ExpPtr> Parser::parseApp() {
  Result<ExpPtr> Head = parseAtom();
  if (!Head)
    return Head;
  ExpPtr E = Head.take();
  while (atAtomStart()) {
    Loc Where = peek().Where;
    Result<ExpPtr> Arg = parseAtom();
    if (!Arg)
      return Arg;
    ExpPtr Node = makeExp(ExpKind::App, Where);
    Node->E0 = std::move(E);
    Node->E1 = Arg.take();
    E = std::move(Node);
  }
  return E;
}

Result<ExpPtr> Parser::parseAtom() {
  const Token &T = peek();
  Loc Where = T.Where;
  if (T.Kind == TokKind::IntLit) {
    advance();
    ExpPtr E = makeExp(ExpKind::IntLit, Where);
    E->Int = T.Int;
    return E;
  }
  if (T.Kind == TokKind::CharLit) {
    advance();
    ExpPtr E = makeExp(ExpKind::CharLit, Where);
    E->Int = T.Int;
    return E;
  }
  if (T.Kind == TokKind::StrLit) {
    advance();
    ExpPtr E = makeExp(ExpKind::StrLit, Where);
    E->Str = T.Text;
    return E;
  }
  if (T.isIdent("true") || T.isIdent("false")) {
    bool Value = T.Text == "true";
    advance();
    ExpPtr E = makeExp(ExpKind::BoolLit, Where);
    E->Int = Value ? 1 : 0;
    return E;
  }
  if (T.Kind == TokKind::Ident && !isKeyword(T.Text)) {
    advance();
    ExpPtr E = makeExp(ExpKind::Var, Where);
    E->Name = T.Text;
    return E;
  }
  if (consumePunct("(")) {
    if (consumePunct(")"))
      return makeExp(ExpKind::UnitLit, Where);
    Result<ExpPtr> First = parseExp();
    if (!First)
      return First;
    if (consumePunct(",")) {
      Result<ExpPtr> Second = parseExp();
      if (!Second)
        return Second;
      if (Result<void> Close = expectPunct(")"); !Close)
        return Close.error();
      ExpPtr E = makeExp(ExpKind::Pair, Where);
      E->E0 = First.take();
      E->E1 = Second.take();
      return E;
    }
    if (Result<void> Close = expectPunct(")"); !Close)
      return Close.error();
    return First;
  }
  if (consumePunct("[")) {
    std::vector<ExpPtr> Elements;
    if (!consumePunct("]")) {
      do {
        Result<ExpPtr> Element = parseExp();
        if (!Element)
          return Element;
        Elements.push_back(Element.take());
      } while (consumePunct(","));
      if (Result<void> Close = expectPunct("]"); !Close)
        return Close.error();
    }
    // Desugar [a, b, c] to a :: b :: c :: [].
    ExpPtr E = makeExp(ExpKind::Nil, Where);
    for (auto It = Elements.rbegin(), End = Elements.rend(); It != End;
         ++It) {
      ExpPtr Node = makeExp(ExpKind::Prim, Where);
      Node->Op = BinOp::Cons;
      Node->E0 = std::move(*It);
      Node->E1 = std::move(E);
      E = std::move(Node);
    }
    return E;
  }
  return errorHere("expected an expression");
}

Result<PatPtr> Parser::parsePat() {
  Result<PatPtr> Lhs = parseAtomicPat();
  if (!Lhs)
    return Lhs;
  PatPtr P = Lhs.take();
  if (peek().isPunct("::")) {
    Loc Where = advance().Where;
    Result<PatPtr> Rhs = parsePat(); // right-associative
    if (!Rhs)
      return Rhs;
    PatPtr Node = makePat(PatKind::Cons, Where);
    Node->Sub0 = std::move(P);
    Node->Sub1 = Rhs.take();
    return Node;
  }
  return P;
}

Result<PatPtr> Parser::parseAtomicPat() {
  const Token &T = peek();
  Loc Where = T.Where;
  if (consumePunct("_"))
    return makePat(PatKind::Wild, Where);
  if (T.Kind == TokKind::IntLit) {
    advance();
    PatPtr P = makePat(PatKind::IntLit, Where);
    P->Int = T.Int;
    return P;
  }
  if (T.Kind == TokKind::CharLit) {
    advance();
    PatPtr P = makePat(PatKind::CharLit, Where);
    P->Int = T.Int;
    return P;
  }
  if (T.Kind == TokKind::StrLit) {
    advance();
    PatPtr P = makePat(PatKind::StrLit, Where);
    P->Str = T.Text;
    return P;
  }
  if (T.isIdent("true") || T.isIdent("false")) {
    bool Value = T.Text == "true";
    advance();
    PatPtr P = makePat(PatKind::BoolLit, Where);
    P->Int = Value ? 1 : 0;
    return P;
  }
  if (T.Kind == TokKind::Ident && !isKeyword(T.Text)) {
    advance();
    PatPtr P = makePat(PatKind::Var, Where);
    P->Name = T.Text;
    return P;
  }
  if (consumePunct("[")) {
    if (consumePunct("]"))
      return makePat(PatKind::Nil, Where);
    // List patterns [p1, p2] desugar to p1 :: p2 :: [].
    std::vector<PatPtr> Elements;
    do {
      Result<PatPtr> Element = parsePat();
      if (!Element)
        return Element;
      Elements.push_back(Element.take());
    } while (consumePunct(","));
    if (Result<void> Close = expectPunct("]"); !Close)
      return Close.error();
    PatPtr P = makePat(PatKind::Nil, Where);
    for (auto It = Elements.rbegin(), End = Elements.rend(); It != End;
         ++It) {
      PatPtr Node = makePat(PatKind::Cons, Where);
      Node->Sub0 = std::move(*It);
      Node->Sub1 = std::move(P);
      P = std::move(Node);
    }
    return P;
  }
  if (consumePunct("(")) {
    if (consumePunct(")"))
      return makePat(PatKind::UnitLit, Where);
    Result<PatPtr> First = parsePat();
    if (!First)
      return First;
    if (consumePunct(",")) {
      Result<PatPtr> Second = parsePat();
      if (!Second)
        return Second;
      if (Result<void> Close = expectPunct(")"); !Close)
        return Close.error();
      PatPtr P = makePat(PatKind::Pair, Where);
      P->Sub0 = First.take();
      P->Sub1 = Second.take();
      return P;
    }
    if (Result<void> Close = expectPunct(")"); !Close)
      return Close.error();
    return First;
  }
  return errorHere("expected a pattern");
}

} // namespace

Result<Program> silver::cml::parseProgram(const std::string &Source) {
  Result<std::vector<Token>> Tokens = tokenize(Source);
  if (!Tokens)
    return Tokens.error();
  Parser P(Tokens.take());
  return P.parseProgram();
}

Result<ExpPtr> silver::cml::parseExpression(const std::string &Source) {
  Result<std::vector<Token>> Tokens = tokenize(Source);
  if (!Tokens)
    return Tokens.error();
  Parser P(Tokens.take());
  Result<ExpPtr> E = P.parseExp();
  return E;
}

static PatPtr clonePat(const Pat &P) {
  auto C = std::make_unique<Pat>();
  C->Kind = P.Kind;
  C->Where = P.Where;
  C->Name = P.Name;
  C->Int = P.Int;
  C->Str = P.Str;
  if (P.Sub0)
    C->Sub0 = clonePat(*P.Sub0);
  if (P.Sub1)
    C->Sub1 = clonePat(*P.Sub1);
  return C;
}

static ExpPtr cloneExp(const Exp &E);

static std::vector<FunBind> cloneFuns(const std::vector<FunBind> &Funs) {
  std::vector<FunBind> Out;
  Out.reserve(Funs.size());
  for (const FunBind &F : Funs)
    Out.push_back({F.Where, F.Name, F.Params, cloneExp(*F.Body)});
  return Out;
}

static ExpPtr cloneExp(const Exp &E) {
  auto C = std::make_unique<Exp>();
  C->Kind = E.Kind;
  C->Where = E.Where;
  C->Name = E.Name;
  C->Int = E.Int;
  C->Str = E.Str;
  C->Op = E.Op;
  for (auto [From, To] : {std::pair{&E.E0, &C->E0}, std::pair{&E.E1, &C->E1},
                          std::pair{&E.E2, &C->E2}})
    if (*From)
      *To = cloneExp(**From);
  for (const MatchArm &A : E.Arms)
    C->Arms.push_back({clonePat(*A.Pattern), cloneExp(*A.Body)});
  C->Funs = cloneFuns(E.Funs);
  return C;
}

Dec silver::cml::cloneDec(const Dec &D) {
  Dec C;
  C.K = D.K;
  C.Where = D.Where;
  C.Name = D.Name;
  if (D.Body)
    C.Body = cloneExp(*D.Body);
  C.Funs = cloneFuns(D.Funs);
  return C;
}
