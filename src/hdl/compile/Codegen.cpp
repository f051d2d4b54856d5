//===- hdl/compile/Codegen.cpp - Verilog-to-C++ code generator ---------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "hdl/compile/Codegen.h"

#include "support/Bits.h"

#include <set>

using namespace silver;
using namespace silver::hdl;

namespace {

std::string num(uint64_t V) {
  return "UINT64_C(" + std::to_string(V) + ")";
}

/// A local's or a label's name: \p Prefix, then \p N.
std::string name(char Prefix, uint64_t N) {
  std::string S(1, Prefix);
  return S += std::to_string(N);
}

/// Prints a tape as the body of the cycle function.
class TapePrinter {
public:
  explicit TapePrinter(const Tape &T)
      : T(T), Named(T.Layout.SlotWidths.size()) {}

  /// The local declarations, then one statement per instruction, each
  /// jump target labelled.
  std::string print() const;

private:
  const Tape &T;
  size_t Named; ///< slots below this one live in V

  std::string ref(uint32_t Slot) const {
    if (Slot < Named)
      return "V[" + std::to_string(Slot) + "]";
    if (T.Const[Slot])
      return num(T.Slots[Slot]);
    return name('t', Slot);
  }
  std::string statement(const Instr &In) const;
};

std::string TapePrinter::statement(const Instr &In) const {
  auto D = [&] { return ref(In.D) + " = "; };
  auto A = [&] { return ref(In.A); };
  auto B = [&] { return ref(In.B); };
  auto Sh = [&] { return std::to_string(In.Sh); };
  auto Masked = [&](const std::string &X) {
    return D() + "(" + X + ") & " + num(In.Imm) + ";";
  };
  auto Mem = [&] { return "M[" + std::to_string(In.B) + "]"; };
  auto Fails = [&](const std::string &Index, bool Read) {
    return "if (" + Index + " >= " + num(T.Layout.MemDepths[In.B]) +
           ") return " + std::to_string(memFault(In.B, Read)) + ";";
  };
  switch (In.Code) {
  case Op::Copy:
    return D() + A() + ";";
  case Op::Add:
    return Masked(A() + " + " + B());
  case Op::Sub:
    return Masked(A() + " - " + B());
  case Op::Mul:
    return Masked(A() + " * " + B());
  case Op::And:
    return D() + A() + " & " + B() + ";";
  case Op::Or:
    return D() + A() + " | " + B() + ";";
  case Op::Xor:
    return D() + A() + " ^ " + B() + ";";
  case Op::Eq:
    return D() + A() + " == " + B() + ";";
  case Op::LtU:
    return D() + A() + " < " + B() + ";";
  case Op::LtS:
    return D() + "sgn(" + Sh() + ", " + A() + ") < sgn(" + Sh() + ", " +
           B() + ");";
  case Op::Shl:
    return D() + B() + " >= " + Sh() + " ? 0 : (" + A() + " << " + B() +
           ") & " + num(In.Imm) + ";";
  case Op::ShrL:
    return D() + B() + " >= " + Sh() + " ? 0 : " + A() + " >> " + B() + ";";
  case Op::ShrA:
    return Masked("shra(" + Sh() + ", " + A() + ", " + B() + ")");
  case Op::Not:
    return Masked("~" + A());
  case Op::IsZero:
    return D() + A() + " == 0;";
  case Op::NonZero:
    return D() + A() + " != 0;";
  case Op::Slice:
    return Masked(A() + " >> " + Sh());
  case Op::Concat:
    return D() + "(" + A() + " << " + Sh() + ") | " + B() + ";";
  case Op::SignExt:
    return Masked("uint64_t(sgn(" + Sh() + ", " + A() + "))");
  case Op::Select:
    return D() + A() + " ? " + B() + " : " +
           ref(static_cast<uint32_t>(In.Imm)) + ";";
  case Op::MemRead:
    return D() + Mem() + "[" + A() + "];";
  case Op::MemReadChecked:
    return Fails(A(), true) + " " + D() + Mem() + "[" + A() + "];";
  case Op::JumpIfZero:
    return "if (" + A() + " == 0) goto " + name('L', In.D) + ";";
  case Op::Jump:
    return "goto " + name('L', In.D) + ";";
  case Op::Latch:
    return D() + A() + "; " + ref(In.D + 1) + " = 1;";
  case Op::MemLatch:
    return D() + A() + "; " + ref(In.D + 1) + " = " + B() + "; " +
           ref(In.D + 2) + " = 1;";
  case Op::Commit:
    return "if (" + ref(In.A + 1) + ") { " + D() + A() + "; " +
           ref(In.A + 1) + " = 0; }";
  case Op::MemCommit:
  case Op::MemCommitChecked:
    return "if (" + ref(In.A + 2) + ") { " +
           (In.Code == Op::MemCommitChecked ? Fails(A(), false) + " " : "") +
           Mem() + "[" + A() + "] = " + ref(In.A + 1) + "; " +
           ref(In.A + 2) + " = 0; }";
  case Op::Halt:
    return "return 0;";
  }
  return "";
}

std::string TapePrinter::print() const {
  std::string Out;
  // Declared up front and zeroed, so no goto crosses an initialisation
  // and every flag starts the cycle clear.
  for (size_t Slot = Named; Slot != T.Slots.size(); ++Slot)
    if (!T.Const[Slot])
      Out += "  uint64_t " + name('t', Slot) + " = 0;\n";

  std::set<uint32_t> Targets;
  for (const Instr &In : T.Code)
    if (In.Code == Op::JumpIfZero || In.Code == Op::Jump)
      Targets.insert(In.D);
  for (uint32_t K = 0; K != T.Code.size(); ++K) {
    if (Targets.count(K))
      Out += name('L', K) + ":\n";
    Out += "  " + statement(T.Code[K]) + "\n";
  }
  return Out;
}

} // namespace

Result<GeneratedModule> silver::hdl::generateCpp(const VModule &M) {
  Result<Tape> T = lowerModule(M);
  if (!T)
    return T.error();

  std::string Src;
  Src += "// Generated by SilverStack hdl/compile for module '" + M.Name +
         "'.  Do not edit.\n";
  Src += "// One call = one clock cycle: the module's tape (hdl/Tape.h),\n";
  Src += "// one statement per instruction; checked against the\n";
  Src += "// interpreter by the differential tests.\n";
  Src += "#include <cstdint>\n\n";
  Src += "namespace {\n\n";
  Src += "inline int64_t sgn(unsigned Sh, uint64_t X) {\n";
  Src += "  return static_cast<int64_t>(X << Sh) >> Sh;\n}\n\n";
  Src += "inline uint64_t shra(unsigned Sh, uint64_t A, uint64_t B) {\n";
  Src += "  int64_t S = sgn(Sh, A);\n";
  Src += "  return B >= 64u - Sh ? (S < 0 ? ~uint64_t(0) : 0)\n";
  Src += "                       : static_cast<uint64_t>(S >> B);\n}\n\n";
  Src += "} // namespace\n\n";
  Src += "extern \"C\" {\n\n";
  Src += "uint32_t silver_hdl_abi_version(void) { return " +
         std::to_string(CompiledAbiVersion) + "; }\n\n";
  Src += "uint64_t silver_hdl_design_hash(void) { return "
         "SILVER_DESIGN_HASH; }\n\n";
  Src += "int silver_hdl_cycle(uint64_t *V, uint64_t *const *M) {\n";
  Src += "  (void)M;\n";
  Src += TapePrinter(*T).print();
  Src += "}\n\n";
  Src += "} // extern \"C\"\n";

  GeneratedModule G;
  G.Layout = std::move(T->Layout);
  // The design hash covers the source with the placeholder still in
  // place (the hash cannot cover itself), then gets substituted in.
  G.DesignHash = fnv1a64(reinterpret_cast<const uint8_t *>(Src.data()),
                         Src.size());
  std::string Token = "SILVER_DESIGN_HASH";
  size_t At = Src.find(Token);
  Src.replace(At, Token.size(), num(G.DesignHash));
  G.Source = std::move(Src);
  return G;
}
