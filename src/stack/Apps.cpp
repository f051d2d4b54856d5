//===- stack/Apps.cpp - The paper's demonstration applications ---------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "stack/Apps.h"

#include "support/Rng.h"

#include <algorithm>
#include <cctype>
#include <utility>

using namespace silver;
using namespace silver::stack;

const char *silver::stack::helloSource() {
  return R"CML(val _ = print "Hello, world!\n")CML";
}

const char *silver::stack::catSource() {
  return R"CML(val _ = print (input_all ()))CML";
}

const char *silver::stack::wcSource() {
  // The paper's wc: |tokens is_space input| (§2.1).
  return R"CML(
val input = input_all ()
val _ = print (int_to_string (length (tokens is_space input)) ^ "\n")
)CML";
}

const char *silver::stack::sortSource() {
  return R"CML(
fun merge xs ys =
  case xs of
    [] => ys
  | x :: xt =>
      (case ys of
         [] => xs
       | y :: yt =>
           if strcmp x y <= 0 then x :: merge xt ys
           else y :: merge xs yt);
fun msort l =
  case l of
    [] => []
  | [x] => [x]
  | _ =>
      let val n = length l div 2 in
        merge (msort (take l n)) (msort (drop l n))
      end;
val input = input_all ()
val _ = print (concat (map (fn s => s ^ "\n") (msort (lines input))))
)CML";
}

const char *silver::stack::proofCheckerSource() {
  // A Hilbert-style propositional proof checker (the reproduction's
  // OpenTheory stand-in).  Formulas are prefix strings: lowercase
  // letters are atoms, ">ab" is the implication a -> b.  Proof lines:
  //   K <f>    f must instantiate a -> (b -> a)
  //   S <f>    f must instantiate (a->(b->c)) -> ((a->b)->(a->c))
  //   M <i> <j>  modus ponens: step j must be <step i> -> f
  return R"CML(
fun is_atom c = ord c >= 97 andalso ord c <= 122;
(* end index of the formula starting at i, or ~1 when malformed *)
fun fchk s i =
  if i >= str_size s then 0 - 1
  else if str_sub s i = #">" then
    let val a = fchk s (i + 1) in
      if a < 0 then 0 - 1 else fchk s a
    end
  else if is_atom (str_sub s i) then i + 1
  else 0 - 1;
fun is_formula s = str_size s > 0 andalso fchk s 0 = str_size s;
(* K: s = ">" a ">" b a *)
fun is_k s =
  if is_formula s andalso str_sub s 0 = #">" then
    let val a_end = fchk s 1 in
      if a_end > 0 andalso a_end < str_size s andalso
         str_sub s a_end = #">" then
        let
          val b_end = fchk s (a_end + 1)
          val a = substring s 1 (a_end - 1)
        in
          b_end > 0 andalso
          s = ">" ^ a ^ ">" ^
              substring s (a_end + 1) (b_end - a_end - 1) ^ a
        end
      else false
    end
  else false;
(* S: s = ">>" a ">" b c ">>" a b ">" a c *)
fun is_s s =
  if is_formula s andalso str_size s >= 2 andalso
     str_sub s 0 = #">" andalso str_sub s 1 = #">" then
    let val a_end = fchk s 2 in
      if a_end > 0 andalso a_end < str_size s andalso
         str_sub s a_end = #">" then
        let val b_end = fchk s (a_end + 1) in
          if b_end > 0 then
            let
              val c_end = fchk s b_end
              val a = substring s 2 (a_end - 2)
              val b = substring s (a_end + 1) (b_end - a_end - 1)
            in
              c_end > 0 andalso
              (let val c = substring s b_end (c_end - b_end) in
                 s = ">>" ^ a ^ ">" ^ b ^ c ^ ">>" ^ a ^ b ^ ">" ^ a ^ c
               end)
            end
          else false
        end
      else false
    end
  else false;
(* modus ponens: sj = ">" si f; returns f or "" *)
fun mp si sj =
  if str_size sj > str_size si + 1 andalso str_sub sj 0 = #">" andalso
     substring sj 1 (str_size si) = si then
    substring sj (1 + str_size si) (str_size sj - 1 - str_size si)
  else "";
fun nth_or l i =
  case l of [] => "" | h :: t => if i = 1 then h else nth_or t (i - 1);
fun s2i_aux s i acc =
  if i >= str_size s then acc
  else s2i_aux s (i + 1) (acc * 10 + (ord (str_sub s i) - 48));
fun s2i s = s2i_aux s 0 0;
fun check_lines lns proved n =
  case lns of
    [] => "VALID\n"
  | l :: rest =>
      let
        val ts = tokens is_space l
        val proven =
          case ts of
            [] => "skip"
          | cmd :: args =>
              if cmd = "K" then
                (case args of
                   [f] => if is_k f then f else ""
                 | _ => "")
              else if cmd = "S" then
                (case args of
                   [f] => if is_s f then f else ""
                 | _ => "")
              else if cmd = "M" then
                (case args of
                   [i, j] =>
                     let
                       val si = nth_or proved (s2i i)
                       val sj = nth_or proved (s2i j)
                     in
                       if si = "" orelse sj = "" then "" else mp si sj
                     end
                 | _ => "")
              else ""
      in
        if proven = "" then "INVALID " ^ int_to_string n ^ "\n"
        else if proven = "skip" then check_lines rest proved (n + 1)
        else check_lines rest (append proved [proven]) (n + 1)
      end;
val input = input_all ()
val _ = print (check_lines (lines input) [] 1)
)CML";
}

const char *silver::stack::tinCompilerSource() {
  // The bootstrapped compiler: Tin (assignments, print, + - * integer
  // expressions) to a textual stack machine.
  return R"CML(
fun is_digit c = ord c >= 48 andalso ord c <= 57;
fun is_alpha c =
  (ord c >= 97 andalso ord c <= 122) orelse
  (ord c >= 65 andalso ord c <= 90);
fun lex s =
  let
    val n = str_size s
    fun span p i = if i < n andalso p (str_sub s i) then span p (i + 1)
                   else i
    fun go i =
      if i >= n then []
      else if is_space (str_sub s i) then go (i + 1)
      else if is_digit (str_sub s i) then
        let val j = span is_digit i in substring s i (j - i) :: go j end
      else if is_alpha (str_sub s i) then
        let val j = span is_alpha i in substring s i (j - i) :: go j end
      else str (str_sub s i) :: go (i + 1)
  in go 0 end;
fun p_atom ts =
  case ts of
    [] => (false, ([], []))
  | t :: rest =>
      if t = "(" then
        (case p_expr rest of
           (ok, (code, r2)) =>
             if not ok then (false, ([], []))
             else
               (case r2 of
                  tk :: r3 =>
                    if tk = ")" then (true, (code, r3))
                    else (false, ([], []))
                | [] => (false, ([], []))))
      else if is_digit (str_sub t 0) then (true, (["PUSH " ^ t], rest))
      else if is_alpha (str_sub t 0) then (true, (["LOAD " ^ t], rest))
      else (false, ([], []))
and p_term ts =
  (case p_atom ts of
     (ok, (code, rest)) =>
       if ok then p_term_rest code rest else (false, ([], [])))
and p_term_rest acc ts =
  case ts of
    [] => (true, (acc, []))
  | t :: rest =>
      if t = "*" then
        (case p_atom rest of
           (ok, (code, r2)) =>
             if ok then p_term_rest (append acc (append code ["MUL"])) r2
             else (false, ([], [])))
      else (true, (acc, ts))
and p_expr ts =
  (case p_term ts of
     (ok, (code, rest)) =>
       if ok then p_expr_rest code rest else (false, ([], [])))
and p_expr_rest acc ts =
  case ts of
    [] => (true, (acc, []))
  | t :: rest =>
      if t = "+" orelse t = "-" then
        (case p_term rest of
           (ok, (code, r2)) =>
             if ok then
               p_expr_rest
                 (append acc
                    (append code [if t = "+" then "ADD" else "SUB"])) r2
             else (false, ([], [])))
      else (true, (acc, ts));
fun p_stmt ts =
  case ts of
    [] => (false, ([], []))
  | t :: rest =>
      if t = "print" then
        (case p_expr rest of
           (ok, (code, r2)) =>
             if ok then (true, (append code ["PRINT"], r2))
             else (false, ([], [])))
      else if is_alpha (str_sub t 0) then
        (case rest of
           eq :: r2 =>
             if eq = "=" then
               (case p_expr r2 of
                  (ok, (code, r3)) =>
                    if ok then (true, (append code ["STORE " ^ t], r3))
                    else (false, ([], [])))
             else (false, ([], []))
         | [] => (false, ([], [])))
      else (false, ([], []));
fun p_prog ts =
  case ts of
    [] => (true, [])
  | _ =>
      (case p_stmt ts of
         (ok, (code, rest)) =>
           if not ok then (false, [])
           else
             (case rest of
                [] => (true, code)
              | semi :: r2 =>
                  if semi = ";" then
                    (case p_prog r2 of
                       (ok2, code2) =>
                         if ok2 then (true, append code code2)
                         else (false, []))
                  else (false, [])));
val input = input_all ()
val _ =
  print
    (case p_prog (lex input) of
       (ok, code) =>
         if ok then concat (map (fn l => l ^ "\n") code) else "ERROR\n")
)CML";
}

const char *silver::stack::builtinSource(const std::string &Name) {
  static constexpr std::pair<const char *, const char *(*)()> Builtins[] = {
      {"hello", helloSource},        {"cat", catSource},
      {"wc", wcSource},              {"sort", sortSource},
      {"proof", proofCheckerSource}, {"tin", tinCompilerSource},
  };
  for (const auto &[BuiltinName, Source] : Builtins)
    if (Name == BuiltinName)
      return Source();
  return nullptr;
}

// --- specification functions -------------------------------------------------

static bool specIsSpace(unsigned char C) {
  return C == 32 || (C >= 9 && C <= 13);
}

static std::vector<std::string> specTokens(const std::string &Input,
                                           bool (*IsSep)(unsigned char)) {
  std::vector<std::string> Out;
  std::string Current;
  for (unsigned char C : Input) {
    if (IsSep(C)) {
      if (!Current.empty())
        Out.push_back(Current);
      Current.clear();
    } else {
      Current.push_back(static_cast<char>(C));
    }
  }
  if (!Current.empty())
    Out.push_back(Current);
  return Out;
}

std::string silver::stack::wcSpec(const std::string &Input) {
  return std::to_string(specTokens(Input, specIsSpace).size()) + "\n";
}

std::string silver::stack::sortSpec(const std::string &Input) {
  auto IsNewline = [](unsigned char C) { return C == '\n'; };
  std::vector<std::string> Lines = specTokens(Input, IsNewline);
  std::stable_sort(Lines.begin(), Lines.end());
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

std::string silver::stack::catSpec(const std::string &Input) { return Input; }

// --- proof checker spec -------------------------------------------------------

namespace {

int fchk(const std::string &S, int I) {
  if (I >= static_cast<int>(S.size()))
    return -1;
  if (S[I] == '>') {
    int A = fchk(S, I + 1);
    return A < 0 ? -1 : fchk(S, A);
  }
  if (S[I] >= 'a' && S[I] <= 'z')
    return I + 1;
  return -1;
}

bool isFormula(const std::string &S) {
  return !S.empty() && fchk(S, 0) == static_cast<int>(S.size());
}

bool isK(const std::string &S) {
  if (!isFormula(S) || S[0] != '>')
    return false;
  int AEnd = fchk(S, 1);
  if (AEnd <= 0 || AEnd >= static_cast<int>(S.size()) || S[AEnd] != '>')
    return false;
  int BEnd = fchk(S, AEnd + 1);
  if (BEnd <= 0)
    return false;
  std::string A = S.substr(1, AEnd - 1);
  std::string B = S.substr(AEnd + 1, BEnd - AEnd - 1);
  return S == ">" + A + ">" + B + A;
}

bool isS(const std::string &S) {
  if (!isFormula(S) || S.size() < 2 || S[0] != '>' || S[1] != '>')
    return false;
  int AEnd = fchk(S, 2);
  if (AEnd <= 0 || AEnd >= static_cast<int>(S.size()) || S[AEnd] != '>')
    return false;
  int BEnd = fchk(S, AEnd + 1);
  if (BEnd <= 0)
    return false;
  int CEnd = fchk(S, BEnd);
  if (CEnd <= 0)
    return false;
  std::string A = S.substr(2, AEnd - 2);
  std::string B = S.substr(AEnd + 1, BEnd - AEnd - 1);
  std::string C = S.substr(BEnd, CEnd - BEnd);
  return S == ">>" + A + ">" + B + C + ">>" + A + B + ">" + A + C;
}

std::string mp(const std::string &Si, const std::string &Sj) {
  if (Sj.size() > Si.size() + 1 && Sj[0] == '>' &&
      Sj.compare(1, Si.size(), Si) == 0)
    return Sj.substr(1 + Si.size());
  return "";
}

} // namespace

std::string silver::stack::proofSpec(const std::string &Input) {
  auto IsNewline = [](unsigned char C) { return C == '\n'; };
  std::vector<std::string> Lines = specTokens(Input, IsNewline);
  std::vector<std::string> Proved;
  int N = 1;
  for (const std::string &Line : Lines) {
    std::vector<std::string> Ts = specTokens(Line, specIsSpace);
    std::string Proven;
    bool Skip = false;
    if (Ts.empty()) {
      Skip = true;
    } else if (Ts[0] == "K" && Ts.size() == 2 && isK(Ts[1])) {
      Proven = Ts[1];
    } else if (Ts[0] == "S" && Ts.size() == 2 && isS(Ts[1])) {
      Proven = Ts[1];
    } else if (Ts[0] == "M" && Ts.size() == 3) {
      auto Num = [](const std::string &T) {
        int V = 0;
        for (char C : T)
          V = V * 10 + (C - '0');
        return V;
      };
      int I = Num(Ts[1]), J = Num(Ts[2]);
      std::string Si =
          I >= 1 && I <= static_cast<int>(Proved.size()) ? Proved[I - 1]
                                                         : "";
      std::string Sj =
          J >= 1 && J <= static_cast<int>(Proved.size()) ? Proved[J - 1]
                                                         : "";
      if (!Si.empty() && !Sj.empty())
        Proven = mp(Si, Sj);
    }
    if (Skip) {
      ++N;
      continue;
    }
    if (Proven.empty())
      return "INVALID " + std::to_string(N) + "\n";
    Proved.push_back(Proven);
    ++N;
  }
  return "VALID\n";
}

std::string silver::stack::sampleValidProof() {
  // Derives p -> p from K, S, and modus ponens.
  return "K >p>>ppp\n"
         "S >>p>>ppp>>p>pp>pp\n"
         "M 1 2\n"
         "K >p>pp\n"
         "M 4 3\n";
}

std::string silver::stack::sampleInvalidProof() {
  return "K >p>qq\n";
}

// --- Tin spec ------------------------------------------------------------------

namespace {

struct TinParser {
  std::vector<std::string> Ts;
  size_t Pos = 0;
  std::vector<std::string> Code;
  bool Failed = false;

  bool atEnd() const { return Pos >= Ts.size(); }
  const std::string &peek() const { return Ts[Pos]; }

  void expr();
  void term();
  void atom();
  void stmt();
};

void TinParser::atom() {
  if (Failed || atEnd()) {
    Failed = true;
    return;
  }
  std::string T = Ts[Pos++];
  if (T == "(") {
    expr();
    if (Failed || atEnd() || Ts[Pos++] != ")")
      Failed = true;
    return;
  }
  if (std::isdigit(static_cast<unsigned char>(T[0]))) {
    Code.push_back("PUSH " + T);
    return;
  }
  if (std::isalpha(static_cast<unsigned char>(T[0]))) {
    Code.push_back("LOAD " + T);
    return;
  }
  Failed = true;
}

void TinParser::term() {
  atom();
  while (!Failed && !atEnd() && peek() == "*") {
    ++Pos;
    atom();
    Code.push_back("MUL");
  }
}

void TinParser::expr() {
  term();
  while (!Failed && !atEnd() && (peek() == "+" || peek() == "-")) {
    std::string Op = Ts[Pos++];
    term();
    Code.push_back(Op == "+" ? "ADD" : "SUB");
  }
}

void TinParser::stmt() {
  if (Failed || atEnd()) {
    Failed = true;
    return;
  }
  std::string T = Ts[Pos++];
  if (T == "print") {
    expr();
    Code.push_back("PRINT");
    return;
  }
  if (!T.empty() && std::isalpha(static_cast<unsigned char>(T[0]))) {
    if (atEnd() || Ts[Pos++] != "=") {
      Failed = true;
      return;
    }
    expr();
    Code.push_back("STORE " + T);
    return;
  }
  Failed = true;
}

} // namespace

std::string silver::stack::tinSpec(const std::string &Source) {
  // Lex.
  std::vector<std::string> Ts;
  for (size_t I = 0; I < Source.size();) {
    unsigned char C = Source[I];
    if (specIsSpace(C)) {
      ++I;
      continue;
    }
    if (std::isdigit(C) || std::isalpha(C)) {
      size_t J = I;
      auto Same = std::isdigit(C) ? +[](unsigned char X) {
        return std::isdigit(X) != 0;
      }
                                  : +[](unsigned char X) {
        return std::isalpha(X) != 0;
      };
      while (J < Source.size() &&
             Same(static_cast<unsigned char>(Source[J])))
        ++J;
      Ts.push_back(Source.substr(I, J - I));
      I = J;
      continue;
    }
    Ts.push_back(std::string(1, Source[I]));
    ++I;
  }
  // Parse statement list separated by ';'.
  TinParser P;
  P.Ts = Ts;
  if (!P.Ts.empty()) {
    P.stmt();
    while (!P.Failed && !P.atEnd()) {
      if (P.Ts[P.Pos++] != ";") {
        P.Failed = true;
        break;
      }
      if (P.atEnd())
        break; // trailing separator? Tin requires a statement after ';'
      P.stmt();
    }
    // A trailing ';' with nothing after it is a parse error in the
    // MiniCake compiler as well (p_prog demands a statement).
  }
  if (P.Failed)
    return "ERROR\n";
  std::string Out;
  for (const std::string &L : P.Code)
    Out += L + "\n";
  return Out;
}

std::string silver::stack::sampleTinProgram(unsigned Statements) {
  // Deterministic round-robin over variables and expression shapes.
  std::string Out;
  const char Vars[] = {'a', 'b', 'c', 'd'};
  for (unsigned I = 0; I != Statements; ++I) {
    char V = Vars[I % 4];
    if (I == 0) {
      Out += "a = 1";
    } else if (I % 3 == 0) {
      Out += std::string("print ") + Vars[(I + 1) % 4];
    } else {
      Out += std::string(1, V) + " = " + std::string(1, Vars[(I + 3) % 4]) +
             " * " + std::to_string(I % 9 + 1) + " + (" +
             std::to_string(I % 7) + " - " + std::string(1, Vars[I % 4]) +
             ")";
    }
    Out += I + 1 == Statements ? "\n" : ";\n";
  }
  return Out;
}

std::string silver::stack::randomLines(unsigned LineCount, unsigned Seed) {
  Rng R(Seed * 0x9e3779b9u + 1);
  std::string Out;
  for (unsigned L = 0; L != LineCount; ++L) {
    unsigned Words = 1 + R.below(6);
    for (unsigned W = 0; W != Words; ++W) {
      if (W)
        Out.push_back(' ');
      unsigned Len = 1 + R.below(8);
      for (unsigned I = 0; I != Len; ++I)
        Out.push_back(static_cast<char>('a' + R.below(26)));
    }
    Out.push_back('\n');
  }
  return Out;
}
