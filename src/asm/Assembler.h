//===- asm/Assembler.h - Silver assembler ----------------------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A two-phase assembler for Silver machine code with labels, data
/// directives, and pseudo-instructions.  Conditional branches carry only a
/// 10-bit word offset and unconditional relative jumps a 6-bit byte
/// offset, so the assembler performs iterative branch relaxation: every
/// symbolic control-flow item starts in its short form and grows to a
/// far-form sequence when its target turns out to be out of range.
/// Because item sizes only ever grow, relaxation reaches a fixpoint.
///
/// The CakeML compiler's Silver backend performs the same job in the
/// paper (the `compile` function of theorem (3) produces "bytes of
/// machine code"); here the assembler is shared by the MiniCake code
/// generator, the hand-written system-call routines, and the startup code.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_ASM_ASSEMBLER_H
#define SILVER_ASM_ASSEMBLER_H

#include "isa/Abi.h"
#include "isa/Encoding.h"
#include "support/Result.h"

#include <map>
#include <string>
#include <vector>

namespace silver {
namespace assembler {

/// A resolved program: raw bytes plus the symbol table.
struct Assembled {
  Word BaseAddr = 0;
  std::vector<uint8_t> Bytes;
  std::map<std::string, Word> Symbols;

  /// Address of \p Label; asserts the label exists.
  Word addressOf(const std::string &Label) const;
};

/// The outcome of branch relaxation: every item's offset and form.  Item
/// sizes depend only on distances, so the layout still holds when the
/// whole program and its extern symbols move by a multiple of MaxAlign.
struct Layout {
  Word BaseAddr = 0; ///< the address the layout was computed at
  Word Size = 0;
  Word MaxAlign = 1; ///< largest Align directive
  std::vector<Word> Offset;            ///< per item, from BaseAddr
  std::vector<bool> Far;               ///< per Branch/Jump item
  std::map<std::string, Word> Labels;  ///< own labels at BaseAddr
};

/// Code laid out and encoded once at address 0, to be placed at the start
/// of an image.  Every absolute address in it is a two-instruction load
/// (address loads, calls, far branches and jumps); Relocs lists them, so
/// placing the fragment re-encodes those loads and copies the rest.
struct Fragment {
  struct Reloc {
    Word Offset = 0;    ///< of the load's first instruction
    unsigned Reg = 0;
    Word Target = 0;    ///< fragment offset, when Extern is empty
    std::string Extern; ///< a label the rest of the image defines
  };
  std::vector<uint8_t> Bytes;
  std::map<std::string, Word> Labels; ///< own labels, as offsets
  std::vector<Reloc> Relocs;

  /// The bytes placed at \p BaseAddr, with the external labels resolved
  /// from \p Later (absolute addresses).
  Result<std::vector<uint8_t>>
  placeAt(Word BaseAddr, const std::map<std::string, Word> &Later) const;
};

/// Program builder.  Emit instructions, labels, pseudo-instructions and
/// data, then call assemble() with the load address.
class Assembler {
public:
  /// Defines \p Name at the current position.  Names must be unique.
  void label(const std::string &Name);

  /// Emits a fixed machine instruction.
  void emit(const isa::Instruction &I);

  /// Loads a 32-bit constant using the minimal sequence: one LoadConstant
  /// when the value (or its negation) fits in 21 bits, otherwise
  /// LoadConstant + LoadUpperConstant.
  void emitLi(unsigned Reg, Word Value);

  /// Loads the address of \p Label.  Always the two-instruction form so
  /// the item size is independent of layout.
  void emitLiLabel(unsigned Reg, const std::string &Label);

  /// Conditional branch: if alu(F, A, B) ==/!= 0, go to \p Label.
  /// Short form is one JumpIfZero/JumpIfNotZero; the far form inverts the
  /// condition over an absolute jump through \p abi::TmpReg.
  void emitBranch(bool WhenZero, isa::Func F, isa::Operand A,
                  isa::Operand B, const std::string &Label);

  /// Unconditional jump to \p Label.  Short form is a single relative
  /// Jump; far form materialises the address in \p abi::TmpReg.
  void emitJump(const std::string &Label);

  /// Call: sets \p LinkReg to the return address and jumps to \p Label.
  void emitCall(const std::string &Label, unsigned LinkReg = abi::LinkReg);

  /// Return: absolute jump to \p LinkReg (link write goes to TmpReg).
  void emitRet(unsigned LinkReg = abi::LinkReg);

  /// The canonical halt self-loop.
  void emitHalt();

  /// Emits a 32-bit data word.
  void word(Word Value);

  /// Emits raw bytes.
  void bytes(const std::vector<uint8_t> &Data);

  /// Emits the bytes of \p Text (no terminator).
  void ascii(const std::string &Text);

  /// Pads with zero bytes to the given power-of-two alignment.
  void align(Word Alignment);

  /// Emits \p Count zero bytes.
  void space(Word Count);

  /// Lays out and encodes the program at \p BaseAddr.  Fails on duplicate
  /// or undefined labels.  External symbols (e.g. addresses in other
  /// images) can be pre-bound via \p Externs.
  Result<Assembled>
  assemble(Word BaseAddr,
           const std::map<std::string, Word> &Externs = {}) const;

  /// Branch relaxation at \p BaseAddr: the first half of assemble().
  Result<Layout> layout(Word BaseAddr,
                        const std::map<std::string, Word> &Externs = {}) const;

  /// Encodes \p L moved by \p Shift: the program lands at L.BaseAddr +
  /// Shift and each of \p Externs (the map \p L was laid out with) at its
  /// value + Shift.  Symbols holds the program's own labels only.
  Result<Assembled> encode(const Layout &L,
                           const std::map<std::string, Word> &Externs,
                           Word Shift) const;

  /// Lays out and encodes the program as a Fragment.  Branches and jumps
  /// must target its own labels (their forms depend on distances); address
  /// loads and calls may name labels defined after it.
  Result<Fragment> fragment() const;

  /// Number of items emitted so far (for tests).
  size_t size() const { return Items.size(); }

private:
  enum class Kind : uint8_t {
    Fixed,    ///< a literal instruction
    LiLabel,  ///< load address of a label (2 instructions)
    Branch,   ///< conditional branch to label (relaxable: 1 or 4)
    Jump,     ///< unconditional jump to label (relaxable: 1 or 3)
    Call,     ///< call label (3 instructions)
    Label,
    Word,
    Bytes,
    Align,
    Space,
  };
  struct Item {
    Kind K = Kind::Fixed;
    isa::Instruction Instr;       // Fixed
    std::string Sym;              // LiLabel/Branch/Jump/Call/Label
    unsigned Reg = 0;             // LiLabel/Call link register
    bool WhenZero = false;        // Branch
    isa::Func F = isa::Func::Add; // Branch
    isa::Operand A, B;            // Branch
    silver::Word Data = 0;        // Word/Align/Space
    std::vector<uint8_t> Blob;    // Bytes
  };

  std::vector<Item> Items;

  /// encode(), collecting the absolute loads into \p Relocs when given;
  /// then labels nobody defines become relocations instead of errors.
  Result<Assembled> encodeWith(const Layout &L,
                               const std::map<std::string, Word> &Externs,
                               Word Shift,
                               std::vector<Fragment::Reloc> *Relocs) const;
};

} // namespace assembler
} // namespace silver

#endif // SILVER_ASM_ASSEMBLER_H
