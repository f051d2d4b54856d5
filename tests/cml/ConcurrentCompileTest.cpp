//===- tests/cml/ConcurrentCompileTest.cpp - compiling from many threads -----===//
//
// The prelude's saved pass states are built on first use and shared by
// every later compile.  This binary holds one test, so the states are
// cold when it starts: four threads race to build and read them, and
// their bytes must equal a serial compile's.  The CI ThreadSanitizer
// job runs it.
//
//===----------------------------------------------------------------------===//

#include "cml/Compiler.h"
#include "stack/Apps.h"

#include <gtest/gtest.h>

#include <thread>

using namespace silver;

TEST(Compiler, ColdPreludeStateIsSharedAcrossThreads) {
  const char *Apps[] = {stack::helloSource(),        stack::catSource(),
                        stack::wcSource(),           stack::sortSource(),
                        stack::proofCheckerSource(), stack::tinCompilerSource()};
  const cml::OptOptions Opts[] = {cml::OptOptions::all(),
                                  cml::OptOptions::none()};
  constexpr unsigned Threads = 4;
  // Bytes[thread][app][opt]; each thread walks the apps from its own
  // starting point so the first compiles of each state overlap.
  std::vector<std::vector<std::vector<uint8_t>>> Bytes(
      Threads, std::vector<std::vector<uint8_t>>(std::size(Apps) * 2));
  std::vector<std::string> Errors(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      for (size_t K = 0; K != std::size(Apps) * 2; ++K) {
        size_t I = (K + T) % (std::size(Apps) * 2);
        cml::CompileOptions Options;
        Options.Opt = Opts[(I + T) % 2];
        Result<cml::Compiled> C = cml::compileProgram(Apps[I / 2], Options);
        if (!C) {
          Errors[T] = C.error().str();
          return;
        }
        Bytes[T][I] = std::move(C->Program);
      }
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (unsigned T = 0; T != Threads; ++T)
    ASSERT_TRUE(Errors[T].empty()) << Errors[T];

  for (size_t I = 0; I != std::size(Apps) * 2; ++I)
    for (unsigned T = 0; T != Threads; ++T) {
      cml::CompileOptions Options;
      Options.Opt = Opts[(I + T) % 2];
      Result<cml::Compiled> Serial = cml::compileProgram(Apps[I / 2], Options);
      ASSERT_TRUE(Serial) << Serial.error().str();
      EXPECT_TRUE(Bytes[T][I] == Serial->Program)
          << "thread " << T << ", program " << I;
    }
}
