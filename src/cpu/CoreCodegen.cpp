//===- cpu/CoreCodegen.cpp - Build-time generator of the core simulator ------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
// Writes the Silver core's compiled simulator, the C++ that
// hdl::generateCpp emits for rtl::toVerilog(buildSilverCore()), to the
// file named by its one argument.  The build runs it and compiles the
// output into silver_cpu (src/cpu/CMakeLists.txt):
//
//   silver-core-codegen <out.cpp>
//
//===----------------------------------------------------------------------===//

#include "cpu/Core.h"
#include "hdl/compile/Codegen.h"
#include "rtl/ToVerilog.h"

#include <cstdio>
#include <fstream>

using namespace silver;

int main(int Argc, char **Argv) {
  if (Argc != 2) {
    std::fprintf(stderr, "usage: silver-core-codegen OUT.cpp\n");
    return 2;
  }
  cpu::SilverCore Core = cpu::buildSilverCore();
  Result<hdl::VModule> Module = rtl::toVerilog(Core.Circuit);
  Result<hdl::GeneratedModule> G =
      Module ? hdl::generateCpp(*Module)
             : Result<hdl::GeneratedModule>(Module.error());
  if (!G) {
    std::fprintf(stderr, "silver-core-codegen: %s\n", G.error().str().c_str());
    return 1;
  }
  std::ofstream Out(Argv[1]);
  Out << G->Source;
  if (!Out.flush()) {
    std::fprintf(stderr, "silver-core-codegen: cannot write '%s'\n", Argv[1]);
    return 1;
  }
  return 0;
}
