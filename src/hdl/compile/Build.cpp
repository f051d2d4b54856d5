//===- hdl/compile/Build.cpp - Host-compiler build driver --------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "hdl/compile/Build.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <dlfcn.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

using namespace silver;
using namespace silver::hdl;

namespace fs = std::filesystem;

namespace {

std::string envOr(const char *Name, const std::string &Fallback) {
  const char *V = std::getenv(Name);
  return (V != nullptr && *V != '\0') ? std::string(V) : Fallback;
}

std::string resolveCompiler(const BuildOptions &O) {
  if (!O.Compiler.empty())
    return O.Compiler;
  return envOr("SILVER_HDL_CXX", envOr("CXX", "c++"));
}

std::string shQuote(const std::string &Path) { return "'" + Path + "'"; }

std::string hexHash(uint64_t H) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

std::string tailOfFile(const std::string &Path, size_t MaxBytes = 2048) {
  std::ifstream In(Path);
  std::stringstream Ss;
  Ss << In.rdbuf();
  std::string S = Ss.str();
  if (S.size() > MaxBytes)
    S = "..." + S.substr(S.size() - MaxBytes);
  return S;
}

bool probeCompiler(const std::string &Cxx) {
  std::string Cmd = Cxx + " --version >/dev/null 2>&1";
  return std::system(Cmd.c_str()) == 0; // NOLINT(cert-env33-c)
}

/// Loads and verifies one artifact; returns null (after closing the
/// handle) on any mismatch, so a stale or truncated cache entry is
/// indistinguishable from a missing one.
std::shared_ptr<LoadedModule> tryLoad(const std::string &Path,
                                      uint64_t WantHash);

} // namespace

std::string silver::hdl::defaultCacheDir() {
  std::string Dir = envOr("SILVER_HDL_CACHE", "");
  if (!Dir.empty())
    return Dir;
  std::string Xdg = envOr("XDG_CACHE_HOME", "");
  if (!Xdg.empty())
    return Xdg + "/silver-hdl";
  std::string Home = envOr("HOME", "");
  if (!Home.empty())
    return Home + "/.cache/silver-hdl";
  return "/tmp/silver-hdl";
}

bool silver::hdl::compiledSimAvailable() {
  static const bool Available = probeCompiler(resolveCompiler({}));
  return Available;
}

LoadedModule::~LoadedModule() {
  if (Handle != nullptr)
    dlclose(Handle);
}

namespace {

std::shared_ptr<LoadedModule> tryLoad(const std::string &Path,
                                      uint64_t WantHash) {
  void *H = dlopen(Path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (H == nullptr)
    return nullptr;
  auto Abi =
      reinterpret_cast<uint32_t (*)()>(dlsym(H, "silver_hdl_abi_version"));
  auto Hash =
      reinterpret_cast<uint64_t (*)()>(dlsym(H, "silver_hdl_design_hash"));
  auto Cycle =
      reinterpret_cast<CompiledCycleFn>(dlsym(H, "silver_hdl_cycle"));
  if (Abi == nullptr || Hash == nullptr || Cycle == nullptr ||
      Abi() != CompiledAbiVersion || Hash() != WantHash) {
    dlclose(H);
    return nullptr;
  }
  return std::make_shared<LoadedModule>(H, Cycle);
}

} // namespace

Result<std::shared_ptr<LoadedModule>>
silver::hdl::buildAndLoad(const GeneratedModule &G, const BuildOptions &O) {
  std::string Cxx = resolveCompiler(O);
  std::string Dir = O.CacheDir.empty() ? defaultCacheDir() : O.CacheDir;

  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  if (Ec)
    return Error("hdl compile: cannot create cache dir '" + Dir +
                 "': " + Ec.message());

  std::string Stem = Dir + "/silver-hdl-" + hexHash(G.DesignHash);
  std::string SoPath = Stem + ".so";

  if (fs::exists(SoPath, Ec))
    if (std::shared_ptr<LoadedModule> M = tryLoad(SoPath, G.DesignHash))
      return M;

  // Build to temporaries private to this call (pid plus a process-wide
  // counter, so threads of one process do not share them either), then
  // rename into place: concurrent builders of the same design race
  // benignly (all produce identical artifacts) and readers never see a
  // partial file.
  static std::atomic<uint64_t> NextBuild{0};
  std::string Tag = std::to_string(getpid()) + "-" +
                    std::to_string(NextBuild.fetch_add(1));
  std::string CppTmp = Stem + "." + Tag + ".cpp";
  std::string SoTmp = Stem + "." + Tag + ".so.tmp";
  std::string Log = Stem + "." + Tag + ".log";
  {
    std::ofstream Out(CppTmp);
    Out << G.Source;
    if (!Out)
      return Error("hdl compile: cannot write '" + CppTmp + "'");
  }
  std::string Cmd = Cxx + " -std=c++17 -O2 -fPIC -shared -o " +
                    shQuote(SoTmp) + " " + shQuote(CppTmp) + " > " +
                    shQuote(Log) + " 2>&1";
  int Rc = std::system(Cmd.c_str()); // NOLINT(cert-env33-c)
  if (Rc != 0) {
    std::string Diag = tailOfFile(Log);
    fs::remove(CppTmp, Ec);
    fs::remove(SoTmp, Ec);
    fs::remove(Log, Ec);
    return Error("hdl compile: host compiler failed (" + Cxx +
                 "): " + Diag);
  }
  fs::rename(CppTmp, Stem + ".cpp", Ec); // kept for inspection
  fs::rename(SoTmp, SoPath, Ec);
  if (Ec)
    return Error("hdl compile: cannot install artifact '" + SoPath +
                 "': " + Ec.message());
  fs::remove(Log, Ec);

  if (std::shared_ptr<LoadedModule> M = tryLoad(SoPath, G.DesignHash))
    return M;
  return Error("hdl compile: built artifact '" + SoPath +
               "' failed to load or verify");
}
