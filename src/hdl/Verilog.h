//===- hdl/Verilog.h - Deeply embedded Verilog subset -----------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deeply embedded AST for the synthesisable Verilog subset of the
/// paper (§3): a flattened module whose processes are all `always_ff @
/// (posedge clk)` blocks over a common clock, with blocking assignments
/// for intra-process intermediates and non-blocking assignments for
/// state.  Values are booleans and bit vectors (HOL words map to Verilog
/// arrays); register files are memories (`logic [w-1:0] m [0:d-1]`).
/// X values are not modelled (the paper quantifies over them in the
/// logic; here uninitialised state is zero and the type checker rejects
/// reads of undeclared variables), and there are no multiple drivers (Z).
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_HDL_VERILOG_H
#define SILVER_HDL_VERILOG_H

#include "support/Result.h"

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace silver {
namespace hdl {

/// A runtime value: a bool, a bit vector (width <= 64), or a memory.
struct VValue {
  enum class Kind : uint8_t { Bool, Vec, Mem } K = Kind::Bool;
  bool B = false;
  unsigned Width = 0;   ///< Vec width / Mem element width
  uint64_t Bits = 0;    ///< Vec payload (masked to Width)
  std::vector<uint64_t> Elems; ///< Mem payload

  static VValue boolean(bool V) {
    VValue R;
    R.K = Kind::Bool;
    R.B = V;
    return R;
  }
  static VValue vec(unsigned Width, uint64_t Bits) {
    VValue R;
    R.K = Kind::Vec;
    R.Width = Width;
    R.Bits = Width >= 64 ? Bits : (Bits & ((uint64_t(1) << Width) - 1));
    return R;
  }
  static VValue mem(unsigned ElemWidth, size_t Depth) {
    VValue R;
    R.K = Kind::Mem;
    R.Width = ElemWidth;
    R.Elems.assign(Depth, 0);
    return R;
  }

  bool operator==(const VValue &O) const {
    return K == O.K && B == O.B && Width == O.Width && Bits == O.Bits &&
           Elems == O.Elems;
  }
};

/// Variable types for declarations and checking.
struct VType {
  enum class Kind : uint8_t { Bool, Vec, Mem } K = Kind::Bool;
  unsigned Width = 0;
  size_t Depth = 0;

  static VType boolean() { return {Kind::Bool, 0, 0}; }
  static VType vec(unsigned Width) { return {Kind::Vec, Width, 0}; }
  static VType mem(unsigned Width, size_t Depth) {
    return {Kind::Mem, Width, Depth};
  }
  bool operator==(const VType &O) const {
    return K == O.K && Width == O.Width && Depth == O.Depth;
  }
};

// --- expressions ------------------------------------------------------------

enum class BinaryOp : uint8_t {
  Add,
  Sub,
  Mul,
  And,
  Or,
  Xor,
  Eq,
  LtU,   ///< unsigned <
  LtS,   ///< signed < ($signed compare)
  Shl,
  ShrL,  ///< logical >>
  ShrA,  ///< arithmetic >>> (with $signed lhs)
};

enum class UnaryOp : uint8_t {
  Not,     ///< bitwise ~
  LogicNot ///< !
};

struct VExp;
using VExpPtr = std::unique_ptr<VExp>;

enum class VExpKind : uint8_t {
  ConstBool,
  ConstVec,
  Var,     ///< bool or vec variable
  MemRead, ///< m[idx]
  Binary,
  Unary,
  Slice,   ///< e[hi:lo]
  Concat,  ///< {a, b}
  Cond,    ///< c ? t : e
  ZeroExt, ///< width extension (w2w)
  SignExt,
  BoolToVec, ///< 1-bit vector from a bool (e.g. {31'd0, b})
  VecToBool, ///< e != 0 used as a condition? restricted: 1-bit vec -> bool
};

struct VExp {
  VExpKind Kind = VExpKind::ConstBool;
  bool Bool = false;          // ConstBool
  unsigned Width = 0;         // ConstVec / ZeroExt / SignExt target width
  uint64_t Bits = 0;          // ConstVec
  std::string Name;           // Var / MemRead
  BinaryOp BOp = BinaryOp::Add;
  UnaryOp UOp = UnaryOp::Not;
  unsigned Hi = 0, Lo = 0;    // Slice
  std::vector<VExpPtr> Args;

  VExpPtr clone() const;
};

VExpPtr vConstBool(bool B);
VExpPtr vConstVec(unsigned Width, uint64_t Bits);
VExpPtr vVar(std::string Name);
VExpPtr vMemRead(std::string Name, VExpPtr Index);
VExpPtr vBinary(BinaryOp Op, VExpPtr A, VExpPtr B);
VExpPtr vUnary(UnaryOp Op, VExpPtr A);
VExpPtr vSlice(VExpPtr A, unsigned Hi, unsigned Lo);
VExpPtr vConcat(VExpPtr Hi, VExpPtr Lo);
VExpPtr vCond(VExpPtr C, VExpPtr T, VExpPtr E);
VExpPtr vZeroExt(unsigned Width, VExpPtr A);
VExpPtr vSignExt(unsigned Width, VExpPtr A);
VExpPtr vBoolToVec(VExpPtr A);
VExpPtr vVecToBool(VExpPtr A);

// --- statements -------------------------------------------------------------

struct VStmt;
using VStmtPtr = std::unique_ptr<VStmt>;

enum class VStmtKind : uint8_t {
  Block,
  If,
  BlockingAssign,    ///< x = e      (intra-process intermediate)
  NonBlockingAssign, ///< x <= e     (state update, queued)
  MemWrite,          ///< m[i] <= e  (queued)
};

struct VStmt {
  VStmtKind Kind = VStmtKind::Block;
  std::vector<VStmtPtr> Stmts; // Block
  VExpPtr Cond;                // If
  VStmtPtr Then, Else;         // If (Else may be null)
  std::string Lhs;             // assigns / MemWrite target
  VExpPtr Index;               // MemWrite
  VExpPtr Rhs;
};

VStmtPtr vBlock(std::vector<VStmtPtr> Stmts);
VStmtPtr vIf(VExpPtr Cond, VStmtPtr Then, VStmtPtr Else);
VStmtPtr vBlocking(std::string Lhs, VExpPtr Rhs);
VStmtPtr vNonBlocking(std::string Lhs, VExpPtr Rhs);
VStmtPtr vMemWrite(std::string Mem, VExpPtr Index, VExpPtr Rhs);

/// The variables \p S (or any statement inside it) assigns with a
/// blocking assignment.
std::set<std::string> blockingTargets(const VStmt &S);

// --- module -----------------------------------------------------------------

struct VPort {
  enum class Dir : uint8_t { Input, Output } D = Dir::Input;
  std::string Name;
  VType Type; ///< Bool or Vec
};

struct VDecl {
  std::string Name;
  VType Type;
};

/// One always_ff @(posedge clk) process.
struct VProcess {
  std::string Comment; ///< printed above the block
  VStmtPtr Body;
};

struct VModule {
  std::string Name = "top";
  std::vector<VPort> Ports;
  std::vector<VDecl> Decls;
  std::vector<VProcess> Processes;
};

} // namespace hdl
} // namespace silver

#endif // SILVER_HDL_VERILOG_H
