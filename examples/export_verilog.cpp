//===- examples/export_verilog.cpp - Print the synthesisable Silver core -------===//
//
// Builds the Silver core at the circuit level, runs the code generator to
// the deeply embedded Verilog AST, checks it against every rule of the
// Verilog subset (the vars_has_type obligation and the stricter rules of
// hdl/Check.h), and pretty-prints the synthesisable SystemVerilog — the
// artefact the paper feeds to Vivado for the PYNQ-Z1 board.  Writes
// silver_cpu.sv to the current directory and prints a summary.
//
//===----------------------------------------------------------------------===//

#include "cpu/Core.h"
#include "hdl/Check.h"
#include "hdl/Printer.h"
#include "rtl/ToVerilog.h"

#include <cstdio>
#include <fstream>

using namespace silver;

int main() {
  cpu::SilverCore Core = cpu::buildSilverCore();
  if (Result<void> V = Core.Circuit.validate(); !V) {
    std::fprintf(stderr, "circuit invalid: %s\n", V.error().str().c_str());
    return 1;
  }
  Result<hdl::VModule> Module = rtl::toVerilog(Core.Circuit);
  if (!Module) {
    std::fprintf(stderr, "codegen failed: %s\n",
                 Module.error().str().c_str());
    return 1;
  }
  std::vector<hdl::Finding> Findings = hdl::checkModule(*Module);
  if (!Findings.empty()) {
    for (const hdl::Finding &F : Findings)
      std::fprintf(stderr, "lint: %s\n", hdl::formatFinding(F).c_str());
    return 1;
  }
  std::string Text = hdl::printModule(*Module);
  std::ofstream Out("silver_cpu.sv");
  Out << Text;
  Out.close();

  std::printf("circuit: %zu nodes, %zu registers, %zu memories\n",
              Core.Circuit.Nodes.size(), Core.Circuit.Regs.size(),
              Core.Circuit.Mems.size());
  std::printf("module:  %zu declarations, %zu processes, lint clean, "
              "%zu bytes of SystemVerilog -> silver_cpu.sv\n",
              Module->Decls.size(), Module->Processes.size(), Text.size());
  // Show the first lines as a taste.
  size_t Shown = 0, Lines = 0;
  while (Shown < Text.size() && Lines < 12) {
    size_t End = Text.find('\n', Shown);
    std::printf("| %.*s\n", int(End - Shown), Text.c_str() + Shown);
    Shown = End + 1;
    ++Lines;
  }
  return 0;
}
