//===- ffi/BasisFfi.cpp - The CakeML basis FFI model -----------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "ffi/BasisFfi.h"

#include <algorithm>
#include <cassert>

using namespace silver;
using namespace silver::ffi;

Filesystem Filesystem::withStdin(std::string Input) {
  Filesystem Fs;
  Fs.StdinData = std::move(Input);
  return Fs;
}

uint64_t Filesystem::openIn(const std::string &Name) {
  auto It = Files.find(Name);
  if (It == Files.end())
    return 0;
  OpenFile F;
  F.Name = Name;
  F.Writable = false;
  uint64_t Fd = NextFd++;
  OpenFds.emplace(Fd, std::move(F));
  return Fd;
}

uint64_t Filesystem::openOut(const std::string &Name) {
  Files[Name].clear();
  OpenFile F;
  F.Name = Name;
  F.Writable = true;
  uint64_t Fd = NextFd++;
  OpenFds.emplace(Fd, std::move(F));
  return Fd;
}

bool Filesystem::close(uint64_t Fd) { return OpenFds.erase(Fd) != 0; }

bool Filesystem::read(uint64_t Fd, size_t Count, std::string &OutData) {
  OutData.clear();
  if (Fd == StdinFd) {
    size_t Remaining = StdinData.size() - StdinOffset;
    size_t Take = std::min(Count, Remaining);
    OutData = StdinData.substr(StdinOffset, Take);
    StdinOffset += Take;
    return true;
  }
  auto It = OpenFds.find(Fd);
  if (It == OpenFds.end() || It->second.Writable)
    return false;
  const std::string &Contents = Files[It->second.Name];
  size_t Remaining =
      It->second.Offset <= Contents.size()
          ? Contents.size() - It->second.Offset
          : 0;
  size_t Take = std::min(Count, Remaining);
  OutData = Contents.substr(It->second.Offset, Take);
  It->second.Offset += Take;
  return true;
}

bool Filesystem::write(uint64_t Fd, const std::string &Data) {
  if (Fd == StdoutFd) {
    StdoutData += Data;
    return true;
  }
  if (Fd == StderrFd) {
    StderrData += Data;
    return true;
  }
  auto It = OpenFds.find(Fd);
  if (It == OpenFds.end() || !It->second.Writable)
    return false;
  Files[It->second.Name] += Data;
  It->second.Offset += Data.size();
  return true;
}

bool Filesystem::operator==(const Filesystem &O) const {
  return StdinData == O.StdinData && StdinOffset == O.StdinOffset &&
         StdoutData == O.StdoutData && StderrData == O.StderrData &&
         Files == O.Files;
}

uint64_t silver::ffi::bytesToU64(const std::vector<uint8_t> &Bytes) {
  uint64_t Value = 0;
  for (uint8_t B : Bytes)
    Value = (Value << 8) | B;
  return Value;
}

uint16_t silver::ffi::bytesToU16(const uint8_t *Bytes) {
  return static_cast<uint16_t>((Bytes[0] << 8) | Bytes[1]);
}

void silver::ffi::u16ToBytes(uint16_t Value, uint8_t *Bytes) {
  Bytes[0] = static_cast<uint8_t>(Value >> 8);
  Bytes[1] = static_cast<uint8_t>(Value);
}

const std::vector<std::string> &BasisFfi::callNames() {
  static const std::vector<std::string> Names = {
      "read",       "write",   "get_arg_count", "get_arg_length",
      "get_arg",    "open_in", "open_out",      "close",
      "exit"};
  return Names;
}

std::optional<IoEvent> silver::ffi::ioEvent(unsigned Index,
                                           std::vector<uint8_t> Conf,
                                           const uint8_t *Bytes,
                                           uint64_t BytesLen) {
  FfiIndex Call = static_cast<FfiIndex>(Index);
  if (Call == FfiIndex::Exit)
    return std::nullopt;
  uint64_t Header = Call == FfiIndex::Write ? 4
                    : Call == FfiIndex::Read || Call == FfiIndex::GetArg ||
                            Call == FfiIndex::GetArgLength
                        ? 2
                        : 0;
  IoEvent E{Index, std::move(Conf), BytesLen, {}};
  E.Request.assign(Bytes, Bytes + std::min(Header, BytesLen));
  if (Header == 4 && BytesLen >= 4) {
    uint64_t Count = bytesToU16(Bytes);
    uint64_t Offset = bytesToU16(Bytes + 2);
    if (Offset + Count <= BytesLen - 4)
      E.Request.insert(E.Request.end(), Bytes + 4 + Offset,
                       Bytes + 4 + Offset + Count);
  }
  return E;
}

FfiResult BasisFfi::call(const std::string &Name,
                         const std::vector<uint8_t> &Conf,
                         const std::vector<uint8_t> &Bytes) {
  const std::vector<std::string> &Names = callNames();
  unsigned Index = static_cast<unsigned>(
      std::find(Names.begin(), Names.end(), Name) - Names.begin());
  if (std::optional<IoEvent> E = ioEvent(Index, Conf, Bytes.data(),
                                         Bytes.size()))
    Trace.push_back(std::move(*E));
  if (Obs)
    Obs->onFfi({Index, /*Entry=*/true});
  FfiResult R = callImpl(Name, Conf, Bytes);
  if (Obs)
    Obs->onFfi({Index, /*Entry=*/false});
  return R;
}

FfiResult BasisFfi::callImpl(const std::string &Name,
                             const std::vector<uint8_t> &Conf,
                             const std::vector<uint8_t> &Bytes) {
  FfiResult R;
  R.Bytes = Bytes;

  auto Fail = [&R]() {
    R.Outcome = FfiOutcome::Fail;
    return R;
  };
  auto SetStatus = [&R](uint8_t Status) {
    assert(!R.Bytes.empty());
    R.Bytes[0] = Status;
  };

  if (Name == "read") {
    // Mirrors the paper's ffi_read: needs |conf| = 8 and at least four
    // header bytes; bytes[0..1] request a count no larger than the tail.
    if (Conf.size() != 8 || Bytes.size() < 4)
      return Fail();
    size_t MaxCount = bytesToU16(Bytes.data());
    if (Bytes.size() - 4 < MaxCount) {
      // The monadic assertion fails: ffi_read's `otherwise` branch
      // returns failure in byte 0 with the rest unchanged.
      SetStatus(1);
    } else {
      std::string Data;
      if (!Fs.read(bytesToU64(Conf), MaxCount, Data)) {
        SetStatus(1);
      } else {
        SetStatus(0);
        u16ToBytes(static_cast<uint16_t>(Data.size()), R.Bytes.data() + 1);
        for (size_t I = 0; I != Data.size(); ++I)
          R.Bytes[4 + I] = static_cast<uint8_t>(Data[I]);
      }
    }
  } else if (Name == "write") {
    if (Conf.size() != 8 || Bytes.size() < 4)
      return Fail();
    size_t Count = bytesToU16(Bytes.data());
    size_t Offset = bytesToU16(Bytes.data() + 2);
    if (Offset + Count > Bytes.size() - 4) {
      SetStatus(1);
    } else {
      std::string Data(Bytes.begin() + 4 + Offset,
                       Bytes.begin() + 4 + Offset + Count);
      if (!Fs.write(bytesToU64(Conf), Data)) {
        SetStatus(1);
      } else {
        SetStatus(0);
        u16ToBytes(static_cast<uint16_t>(Count), R.Bytes.data() + 1);
      }
    }
  } else if (Name == "get_arg_count") {
    if (Bytes.size() < 2)
      return Fail();
    u16ToBytes(static_cast<uint16_t>(CommandLine.size()), R.Bytes.data());
  } else if (Name == "get_arg_length") {
    if (Bytes.size() < 2)
      return Fail();
    size_t Index = bytesToU16(Bytes.data());
    if (Index >= CommandLine.size())
      return Fail();
    u16ToBytes(static_cast<uint16_t>(CommandLine[Index].size()),
               R.Bytes.data());
  } else if (Name == "get_arg") {
    if (Bytes.size() < 2)
      return Fail();
    size_t Index = bytesToU16(Bytes.data());
    if (Index >= CommandLine.size())
      return Fail();
    const std::string &Arg = CommandLine[Index];
    if (Bytes.size() < Arg.size())
      return Fail();
    for (size_t I = 0; I != Arg.size(); ++I)
      R.Bytes[I] = static_cast<uint8_t>(Arg[I]);
  } else if (Name == "open_in") {
    if (Bytes.size() < 3)
      return Fail();
    std::string FileName(Conf.begin(), Conf.end());
    uint64_t Fd = Fs.openIn(FileName);
    SetStatus(Fd == 0 ? 1 : 0);
    u16ToBytes(static_cast<uint16_t>(Fd), R.Bytes.data() + 1);
  } else if (Name == "open_out") {
    if (Bytes.size() < 3)
      return Fail();
    std::string FileName(Conf.begin(), Conf.end());
    uint64_t Fd = Fs.openOut(FileName);
    SetStatus(Fd == 0 ? 1 : 0);
    u16ToBytes(static_cast<uint16_t>(Fd), R.Bytes.data() + 1);
  } else if (Name == "close") {
    if (Conf.size() != 8 || Bytes.empty())
      return Fail();
    SetStatus(Fs.close(bytesToU64(Conf)) ? 0 : 1);
  } else if (Name == "exit") {
    if (Bytes.empty())
      return Fail();
    R.Outcome = FfiOutcome::Exit;
    R.ExitCode = Bytes[0];
    return R;
  } else {
    return Fail();
  }
  return R;
}
