//===- fuzz/Corpus.cpp - Reproducer corpus persistence ----------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"

#include "isa/Encoding.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace silver;
using namespace silver::fuzz;

namespace {

std::string hexBytes(const std::string &Data) {
  static const char Digits[] = "0123456789abcdef";
  std::string Out;
  Out.reserve(Data.size() * 2);
  for (char C : Data) {
    uint8_t B = static_cast<uint8_t>(C);
    Out += Digits[B >> 4];
    Out += Digits[B & 0xf];
  }
  return Out;
}

Result<std::string> unhexBytes(const std::string &Hex) {
  if (Hex.size() % 2 != 0)
    return Error("odd-length stdin hex string");
  auto Nibble = [](char C) -> int {
    if (C >= '0' && C <= '9')
      return C - '0';
    if (C >= 'a' && C <= 'f')
      return C - 'a' + 10;
    if (C >= 'A' && C <= 'F')
      return C - 'A' + 10;
    return -1;
  };
  std::string Out;
  Out.reserve(Hex.size() / 2);
  for (size_t I = 0; I != Hex.size(); I += 2) {
    int Hi = Nibble(Hex[I]), Lo = Nibble(Hex[I + 1]);
    if (Hi < 0 || Lo < 0)
      return Error("bad hex digit in stdin directive");
    Out += static_cast<char>((Hi << 4) | Lo);
  }
  return Out;
}

std::string operandText(const isa::Operand &Op) {
  if (Op.IsImm)
    return '#' + std::to_string(static_cast<int32_t>(Op.immValue()));
  return 'r' + std::to_string(Op.Value);
}

Result<isa::Operand> parseOperand(const std::string &Tok) {
  if (Tok.empty())
    return Error("empty operand");
  if (Tok[0] == '#') {
    int32_t V = 0;
    try {
      V = std::stoi(Tok.substr(1));
    } catch (...) {
      return Error("bad immediate '" + Tok + "'");
    }
    if (!fitsSigned(V, 6))
      return Error("immediate out of range '" + Tok + "'");
    return isa::Operand::imm(V);
  }
  if (Tok[0] == 'r') {
    unsigned R = 0;
    try {
      R = static_cast<unsigned>(std::stoul(Tok.substr(1)));
    } catch (...) {
      return Error("bad register '" + Tok + "'");
    }
    if (R >= isa::NumRegs)
      return Error("register out of range '" + Tok + "'");
    return isa::Operand::reg(R);
  }
  return Error("bad operand '" + Tok + "'");
}

Result<isa::Func> parseFunc(const std::string &Name) {
  for (unsigned I = 0; I != isa::NumFuncs; ++I) {
    isa::Func F = static_cast<isa::Func>(I);
    if (Name == isa::funcName(F))
      return F;
  }
  return Error("unknown ALU function '" + Name + "'");
}

Result<Word> parseWord(const std::string &Tok) {
  try {
    return static_cast<Word>(std::stoul(Tok, nullptr, 0));
  } catch (...) {
    return Error("bad number '" + Tok + "'");
  }
}

Result<uint64_t> parseU64(const std::string &Tok) {
  try {
    return std::stoull(Tok, nullptr, 0);
  } catch (...) {
    return Error("bad number '" + Tok + "'");
  }
}

Result<unsigned> parseLabelRef(const std::string &Tok) {
  if (Tok.size() < 2 || Tok[0] != 'L')
    return Error("bad label '" + Tok + "'");
  try {
    return static_cast<unsigned>(std::stoul(Tok.substr(1)));
  } catch (...) {
    return Error("bad label '" + Tok + "'");
  }
}

} // namespace

std::string silver::fuzz::serializeCase(const CaseSpec &C,
                                        const Divergence *D) {
  std::ostringstream Out;
  Out << "; silver-fuzz case v1\n";
  Out << "; seed=0x" << std::hex << C.Seed << " index=0x" << C.Index
      << std::dec << " profile=" << profileName(C.P) << "\n";
  if (D && D->found())
    Out << "; divergence=" << D->fingerprint() << " " << D->Detail << "\n";
  for (const std::string &Arg : C.CommandLine)
    Out << "; arg=" << Arg << "\n";
  if (!C.StdinData.empty())
    Out << "; stdin=" << hexBytes(C.StdinData) << "\n";

  for (const ProgItem &It : C.Items) {
    switch (It.K) {
    case ProgItem::Kind::Instr:
      Out << "instr " << toHex(isa::encode(It.Instr)) << "        ; "
          << isa::toString(It.Instr) << "\n";
      break;
    case ProgItem::Kind::Li:
      Out << "li r" << unsigned(It.Reg) << " " << toHex(It.Value) << "\n";
      break;
    case ProgItem::Kind::Label:
      Out << "label L" << It.Target << "\n";
      break;
    case ProgItem::Kind::Branch:
      Out << "branch " << (It.WhenZero ? "z" : "nz") << " "
          << isa::funcName(It.F) << " " << operandText(It.A) << " "
          << operandText(It.B) << " L" << It.Target << "\n";
      break;
    case ProgItem::Kind::Jump:
      Out << "jump L" << It.Target << "\n";
      break;
    case ProgItem::Kind::Ffi:
      Out << "ffi " << It.FfiIndex << " " << toHex(It.ConfAddr) << " "
          << It.ConfLen << " " << toHex(It.BytesAddr) << " " << It.BytesLen
          << "\n";
      break;
    }
  }
  return Out.str();
}

Result<CaseSpec> silver::fuzz::parseCase(const std::string &Text) {
  CaseSpec C;
  C.CommandLine.clear();
  std::istringstream In(Text);
  std::string Line;
  unsigned LineNo = 0;

  auto Fail = [&](const std::string &Msg) {
    return Error("line " + std::to_string(LineNo) + ": " + Msg);
  };

  while (std::getline(In, Line)) {
    ++LineNo;
    // Strip the trailing comment, then whitespace.
    if (!Line.empty() && Line[0] != ';')
      if (size_t Semi = Line.find(';'); Semi != std::string::npos)
        Line = Line.substr(0, Semi);
    std::istringstream Toks(Line);
    std::string Head;
    if (!(Toks >> Head))
      continue;

    if (Head == ";") {
      // Directive comments: "key=value" tokens we understand; any other
      // comment text is ignored.
      std::string Tok;
      while (Toks >> Tok) {
        size_t Eq = Tok.find('=');
        if (Eq == std::string::npos)
          continue;
        std::string Key = Tok.substr(0, Eq);
        std::string Value = Tok.substr(Eq + 1);
        if (Key == "seed") {
          if (Result<uint64_t> V = parseU64(Value))
            C.Seed = *V;
        } else if (Key == "index") {
          if (Result<uint64_t> V = parseU64(Value))
            C.Index = *V;
        } else if (Key == "profile") {
          Profile P;
          if (parseProfile(Value, P))
            C.P = P;
        } else if (Key == "arg") {
          C.CommandLine.push_back(Value);
        } else if (Key == "stdin") {
          Result<std::string> S = unhexBytes(Value);
          if (!S)
            return Fail(S.error().message());
          C.StdinData = *S;
        }
      }
      continue;
    }

    ProgItem It;
    if (Head == "instr") {
      std::string Tok;
      if (!(Toks >> Tok))
        return Fail("instr needs an encoded word");
      Result<Word> W = parseWord(Tok);
      if (!W)
        return Fail(W.error().message());
      Result<isa::Instruction> I = isa::decode(*W);
      if (!I)
        return Fail("undecodable instruction word " + Tok);
      It.K = ProgItem::Kind::Instr;
      It.Instr = *I;
    } else if (Head == "li") {
      std::string RegTok, ValTok;
      if (!(Toks >> RegTok >> ValTok))
        return Fail("li needs a register and a value");
      Result<isa::Operand> R = parseOperand(RegTok);
      if (!R || R->IsImm)
        return Fail("li needs a register destination");
      Result<Word> V = parseWord(ValTok);
      if (!V)
        return Fail(V.error().message());
      It.K = ProgItem::Kind::Li;
      It.Reg = R->Value;
      It.Value = *V;
    } else if (Head == "label") {
      std::string Tok;
      if (!(Toks >> Tok))
        return Fail("label needs a name");
      Result<unsigned> Id = parseLabelRef(Tok);
      if (!Id)
        return Fail(Id.error().message());
      It.K = ProgItem::Kind::Label;
      It.Target = *Id;
    } else if (Head == "branch") {
      std::string Pol, FuncTok, ATok, BTok, LabelTok;
      if (!(Toks >> Pol >> FuncTok >> ATok >> BTok >> LabelTok))
        return Fail("branch needs: z|nz func opA opB label");
      if (Pol != "z" && Pol != "nz")
        return Fail("branch polarity must be z or nz");
      Result<isa::Func> F = parseFunc(FuncTok);
      if (!F)
        return Fail(F.error().message());
      Result<isa::Operand> A = parseOperand(ATok);
      if (!A)
        return Fail(A.error().message());
      Result<isa::Operand> B = parseOperand(BTok);
      if (!B)
        return Fail(B.error().message());
      Result<unsigned> Id = parseLabelRef(LabelTok);
      if (!Id)
        return Fail(Id.error().message());
      It.K = ProgItem::Kind::Branch;
      It.WhenZero = Pol == "z";
      It.F = *F;
      It.A = *A;
      It.B = *B;
      It.Target = *Id;
    } else if (Head == "jump") {
      std::string Tok;
      if (!(Toks >> Tok))
        return Fail("jump needs a label");
      Result<unsigned> Id = parseLabelRef(Tok);
      if (!Id)
        return Fail(Id.error().message());
      It.K = ProgItem::Kind::Jump;
      It.Target = *Id;
    } else if (Head == "ffi") {
      unsigned Index = 0;
      std::string ConfTok, BytesTok;
      Word ConfLen = 0, BytesLen = 0;
      if (!(Toks >> Index >> ConfTok >> ConfLen >> BytesTok >> BytesLen))
        return Fail("ffi needs: index confaddr conflen bytesaddr byteslen");
      Result<Word> CA = parseWord(ConfTok);
      if (!CA)
        return Fail(CA.error().message());
      Result<Word> BA = parseWord(BytesTok);
      if (!BA)
        return Fail(BA.error().message());
      It.K = ProgItem::Kind::Ffi;
      It.FfiIndex = Index;
      It.ConfAddr = *CA;
      It.ConfLen = ConfLen;
      It.BytesAddr = *BA;
      It.BytesLen = BytesLen;
    } else {
      return Fail("unknown item '" + Head + "'");
    }
    C.Items.push_back(std::move(It));
  }

  if (C.CommandLine.empty())
    C.CommandLine = {"fuzz"};
  return C;
}

Result<void> silver::fuzz::saveCase(const std::string &Path,
                                    const CaseSpec &C, const Divergence *D) {
  std::error_code Ec;
  std::filesystem::path P(Path);
  if (P.has_parent_path())
    std::filesystem::create_directories(P.parent_path(), Ec);
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return Error("cannot write corpus file '" + Path + "'");
  Out << serializeCase(C, D);
  return {};
}

Result<CaseSpec> silver::fuzz::loadCase(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return Error("cannot read corpus file '" + Path + "'");
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Result<CaseSpec> C = parseCase(Buf.str());
  if (!C)
    return Error(Path + ": " + C.error().message());
  return C;
}

std::vector<std::string> silver::fuzz::listCorpus(const std::string &Dir) {
  std::vector<std::string> Out;
  std::error_code Ec;
  std::filesystem::directory_iterator It(Dir, Ec);
  if (Ec)
    return Out;
  for (const auto &Entry : It)
    if (Entry.is_regular_file() && Entry.path().extension() == ".s")
      Out.push_back(Entry.path().string());
  std::sort(Out.begin(), Out.end());
  return Out;
}
