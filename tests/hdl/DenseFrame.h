//===- tests/hdl/DenseFrame.h - Named stimulus for dense stepping -*- C++ -*-===//
//
// Tests write a cycle's stimulus by port name; the module simulators take
// one value per input port in declaration order (ModuleSim::stepDense).
// denseFrame bridges the two, so the simulators need no name-keyed step.
//
//===----------------------------------------------------------------------===//

#ifndef SILVER_TESTS_HDL_DENSEFRAME_H
#define SILVER_TESTS_HDL_DENSEFRAME_H

#include "hdl/ModuleSim.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace silver {
namespace hdl {

/// The stepDense frame of \p Sim for \p Named: entry k drives
/// inputName(k), and ports \p Named leaves out are driven with 0.  A name
/// that is not an input port of \p Sim fails the calling test.
inline std::vector<uint64_t>
denseFrame(const ModuleSim &Sim,
           const std::map<std::string, uint64_t> &Named) {
  std::vector<uint64_t> Frame(Sim.numInputs(), 0);
  size_t Used = 0;
  for (size_t K = 0; K != Frame.size(); ++K) {
    auto It = Named.find(Sim.inputName(K));
    if (It == Named.end())
      continue;
    Frame[K] = It->second;
    ++Used;
  }
  EXPECT_EQ(Used, Named.size()) << "stimulus names a non-input port";
  return Frame;
}

} // namespace hdl
} // namespace silver

#endif // SILVER_TESTS_HDL_DENSEFRAME_H
