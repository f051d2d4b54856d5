//===- hdl/compile/Build.h - Host-compiler build driver ---------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a generated translation unit (Codegen.h) into a loaded shared
/// object at run time: invoke the host C++ compiler, cache the artifact
/// keyed by the design hash, dlopen it, and verify the exported ABI
/// version and design hash before handing out the entry point.
///
/// This serves modules other than the Silver core, whose simulator is
/// generated and compiled with the project and linked in (cpu/Sim.cpp),
/// so running the core needs no host compiler.  Without a usable host
/// compiler compiledSimAvailable() is false and buildAndLoad fails.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_HDL_COMPILE_BUILD_H
#define SILVER_HDL_COMPILE_BUILD_H

#include "hdl/compile/Codegen.h"
#include "support/Result.h"

#include <memory>
#include <string>

namespace silver {
namespace hdl {

/// Knobs for the build; the defaults read the environment:
/// SILVER_HDL_CXX (then CXX, then "c++") picks the compiler and
/// SILVER_HDL_CACHE picks the artifact cache directory.
struct BuildOptions {
  std::string Compiler; ///< empty = environment / "c++"
  std::string CacheDir; ///< empty = environment / default cache dir
};

/// The artifact cache directory the defaulted BuildOptions resolve to:
/// $SILVER_HDL_CACHE, else $XDG_CACHE_HOME/silver-hdl, else
/// $HOME/.cache/silver-hdl, else /tmp/silver-hdl.
std::string defaultCacheDir();

/// True when a host C++ compiler answers.  Probed once per process and
/// cached.
bool compiledSimAvailable();

/// A dlopen'ed generated simulator: the resolved entry point plus the
/// owning handle.  Destroying the last shared_ptr dlclose()s.
class LoadedModule {
public:
  /// Takes ownership of the dlopen handle.  Built by buildAndLoad; the
  /// constructor is public only for the loader internals.
  LoadedModule(void *Handle, CompiledCycleFn Cycle)
      : Handle(Handle), Cycle(Cycle) {}
  ~LoadedModule();
  LoadedModule(const LoadedModule &) = delete;
  LoadedModule &operator=(const LoadedModule &) = delete;

  CompiledCycleFn cycle() const { return Cycle; }

private:
  void *Handle = nullptr;
  CompiledCycleFn Cycle = nullptr;
};

/// Compiles (or reuses the cached artifact for) \p G and loads it.
/// Cache artifacts are named by the design hash and written atomically
/// (per-call temp files + rename), so concurrent builders of the same
/// design, in one process or several, race benignly.  Fails with the
/// compiler log tail when compilation fails.
Result<std::shared_ptr<LoadedModule>>
buildAndLoad(const GeneratedModule &G, const BuildOptions &O = {});

} // namespace hdl
} // namespace silver

#endif // SILVER_HDL_COMPILE_BUILD_H
