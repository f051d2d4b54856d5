//===- cpu/LabEnv.cpp - The lab-setup environment model ----------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "cpu/LabEnv.h"

using namespace silver;
using namespace silver::cpu;

/// The cycle at which mem_start_ready rises.
static constexpr unsigned MemStartCycle = 2;
/// Extra wait cycles before interrupt_ack.
static constexpr unsigned InterruptAckWait = 1;

void LabEnv::inputsForCycle(CoreInputs &In) {
  ReadyNow = false;
  AckNow = false;
  RData = 0;

  if (MemBusy) {
    if (MemRemaining == 0) {
      // Complete the transaction now.
      if (MemIsWrite) {
        if (MemIsByte)
          Dram.writeByte(MemAddr, static_cast<uint8_t>(MemWData));
        else
          Dram.writeWord(MemAddr, MemWData);
      } else {
        RData = MemIsByte ? Dram.readByte(MemAddr) : Dram.readWord(MemAddr);
      }
      ReadyNow = true;
      MemBusy = false;
    } else {
      --MemRemaining;
    }
  }
  if (IntBusy) {
    if (IntRemaining == 0) {
      AckNow = true;
      IntBusy = false;
    } else {
      --IntRemaining;
    }
  }

  In.MemRdata = RData;
  In.MemReady = ReadyNow;
  In.MemStartReady = Cycle >= MemStartCycle;
  In.InterruptAck = AckNow;
  In.DataIn = 0;
  ++Cycle;
}

Result<void> LabEnv::observeOutputs(const CoreOutputs &Out) {
  if (Out.MemRen || Out.MemWen) {
    if (MemBusy)
      return Error("lab env: memory request while a transaction is busy");
    Word Addr = static_cast<Word>(Out.MemAddr);
    bool IsByte = Out.MemWbyte;
    if (!IsByte && (Addr & 3))
      return Error("lab env: misaligned word access at " +
                   std::to_string(Addr));
    if (!Dram.inRange(Addr, IsByte ? 1 : 4))
      return Error("lab env: memory access out of range at " +
                   std::to_string(Addr));
    MemBusy = true;
    MemRemaining = Opt.MemLatency;
    MemIsWrite = Out.MemWen;
    MemIsByte = IsByte;
    MemAddr = Addr;
    MemWData = static_cast<Word>(Out.MemWdata);
  }
  if (Out.InterruptReq) {
    if (IntBusy)
      return Error("lab env: interrupt request while one is pending");
    // The observable action happens at notification time, matching the
    // ISA semantics of the Interrupt instruction.
    sys::interruptObservable(Dram.Memory.data(), Layout, Stdout, Stderr);
    IntBusy = true;
    IntRemaining = InterruptAckWait;
  }
  return {};
}
