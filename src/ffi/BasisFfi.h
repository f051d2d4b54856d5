//===- ffi/BasisFfi.h - The CakeML basis FFI model --------------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The basis FFI model (paper §5): a filesystem + command-line state and
/// the oracle function `basis_ffi_oracle` specifying the behaviour of each
/// foreign call the CakeML basis library makes ("read", "write",
/// "get_arg_count", "get_arg_length", "get_arg", "open_in", "open_out",
/// "close", "exit").  Each call receives an immutable configuration array
/// `conf` and a mutable byte array `bytes`; the oracle returns the updated
/// bytes and evolves the filesystem.  This model is the *specification*
/// the hand-written Silver system calls are checked against (§6,
/// theorem (13)) and the oracle the machine-sem layer consults.
///
/// Wire formats (following the paper's ffi_read excerpt):
///  - fds are 8-byte big-endian words in `conf` (the paper's w82n conf);
///  - 16-bit counts are 2-byte big-endian (w22n / n2w2);
///  - `read`:  in: bytes[0..1]=max count, bytes[2],bytes[3] ignored;
///             out on success: bytes[0]=0, bytes[1..2]=count read,
///             bytes[3] unchanged, bytes[4..] = data then unchanged tail;
///             out on failure: bytes[0]=1, rest unchanged.
///  - `write`: in: bytes[0..1]=count, bytes[2..3]=offset into payload,
///             payload = bytes[4..]; out: bytes[0]=0, bytes[1..2]=written
///             (or bytes[0]=1 on failure).
///  - `get_arg_count`: out: bytes[0..1]=argc.
///  - `get_arg_length`: in: bytes[0..1]=index; out: bytes[0..1]=length.
///  - `get_arg`: in: bytes[0..1]=index; out: argument copied to bytes[0..].
///  - `open_in`/`open_out`: filename in conf; out: bytes[0]=status,
///             bytes[1..2]=fd.
///  - `close`: fd in conf; out: bytes[0]=status.
///  - `exit`:  bytes[0]=exit code; terminates the program.
///
/// A run's FFI behaviour is its IoTrace: one IoEvent per call, holding
/// the call's request only (ioEvent).  Every level records it, through
/// this oracle (Spec, Machine) or at the syscall entry (Isa, Rtl,
/// Verilog; sys::recordFfiCall), and the end-to-end checks compare it
/// (stack::compareBehaviour).  Responses are a function of the oracle
/// state and the requests, so the requests determine the trace.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_FFI_BASISFFI_H
#define SILVER_FFI_BASISFFI_H

#include "obs/Observer.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace silver {
namespace ffi {

/// FFI indices, in BasisFfi::callNames() order (the syscall table order
/// of the Silver memory image).
enum class FfiIndex : unsigned {
  Read = 0,
  Write = 1,
  GetArgCount = 2,
  GetArgLength = 3,
  GetArg = 4,
  OpenIn = 5,
  OpenOut = 6,
  Close = 7,
  Exit = 8,
};

/// Standard stream descriptors.
inline constexpr uint64_t StdinFd = 0;
inline constexpr uint64_t StdoutFd = 1;
inline constexpr uint64_t StderrFd = 2;

/// The filesystem model.  The paper's bare-metal instantiation provides
/// only the standard streams (pre-filled stdin, collected stdout/stderr);
/// named files exist in the model so the machine-sem layer can also test
/// the open/close paths that the bare-metal syscalls reject.
class Filesystem {
public:
  /// Creates the paper's `fsin input` state: no files, \p Input on stdin.
  static Filesystem withStdin(std::string Input);

  std::string StdinData;
  size_t StdinOffset = 0;
  std::string StdoutData;
  std::string StderrData;
  std::map<std::string, std::string> Files;

  /// Opens a named file for reading; returns the new fd or 0 on failure.
  uint64_t openIn(const std::string &Name);
  /// Creates/truncates a named file for writing; returns fd or 0.
  uint64_t openOut(const std::string &Name);
  /// Closes a non-stream fd; returns false for unknown or stream fds.
  bool close(uint64_t Fd);

  /// Reads up to \p Count bytes from \p Fd.  Returns false for bad fds;
  /// at end of input it succeeds with an empty result (EOF).
  bool read(uint64_t Fd, size_t Count, std::string &OutData);
  /// Writes \p Data to \p Fd; returns false for bad fds.
  bool write(uint64_t Fd, const std::string &Data);

  bool operator==(const Filesystem &O) const;

private:
  struct OpenFile {
    std::string Name;
    size_t Offset = 0;
    bool Writable = false;
  };
  std::map<uint64_t, OpenFile> OpenFds;
  uint64_t NextFd = 3;
};

/// Outcome of one oracle call (the paper's Oracle_return / Oracle_final).
enum class FfiOutcome : uint8_t {
  Return,  ///< bytes updated, state evolved
  Fail,    ///< FFI_failed: malformed call (never happens for compiled code)
  Exit,    ///< the "exit" call: program terminates with ExitCode
};

struct FfiResult {
  FfiOutcome Outcome = FfiOutcome::Return;
  std::vector<uint8_t> Bytes; ///< updated byte array (Return only)
  uint8_t ExitCode = 0;       ///< Exit only
};

/// One FFI call of a run, CakeML's io_events entry reduced to its
/// request: the call index, the conf bytes, the byte-array length, and
/// the bytes of the array the wire format reads (Request).  Bytes the
/// call ignores, such as the stale tail of a read buffer, are not part
/// of it.
struct IoEvent {
  unsigned Index = 0;
  std::vector<uint8_t> Conf;
  uint64_t BytesLen = 0;
  std::vector<uint8_t> Request;

  bool operator==(const IoEvent &) const = default;
};
using IoTrace = std::vector<IoEvent>;

/// The event of call \p Index on the \p BytesLen-byte array at \p Bytes:
/// `read`, `get_arg_length` and `get_arg` read bytes[0..1]; `write`
/// reads its 4-byte header and, when it fits, the payload it names;
/// the other calls read only conf.  The footprint is clamped to the
/// array.  `exit` is no event: CakeML treats it as final.
std::optional<IoEvent> ioEvent(unsigned Index, std::vector<uint8_t> Conf,
                               const uint8_t *Bytes, uint64_t BytesLen);

/// The basis_ffi oracle state: command line + filesystem, with the oracle
/// function as a method and the trace of IO events.
class BasisFfi {
public:
  BasisFfi() = default;
  BasisFfi(std::vector<std::string> CommandLine, Filesystem Fs)
      : CommandLine(std::move(CommandLine)), Fs(std::move(Fs)) {}

  std::vector<std::string> CommandLine;
  Filesystem Fs;
  IoTrace Trace;

  /// The oracle: dispatches on \p Name, records the call's IoEvent,
  /// evolves the state, and returns the updated bytes (paper's call_FFI
  /// wrapper around basis_ffi_oracle).
  FfiResult call(const std::string &Name, const std::vector<uint8_t> &Conf,
                 const std::vector<uint8_t> &Bytes);

  /// Emits an obs::FfiEvent entry/exit pair around every oracle call (the
  /// machine level's FFI calls are instantaneous: the oracle replaces the
  /// system-call code).  Null detaches; not owned.
  void attachObserver(obs::Observer *O) { Obs = O; }

  /// All bytes written to stdout so far (the paper's get_stdout io).
  const std::string &getStdout() const { return Fs.StdoutData; }
  const std::string &getStderr() const { return Fs.StderrData; }

  /// The FFI names in their canonical index order (the syscall table
  /// order used by the Silver memory image).
  static const std::vector<std::string> &callNames();

private:
  FfiResult callImpl(const std::string &Name,
                     const std::vector<uint8_t> &Conf,
                     const std::vector<uint8_t> &Bytes);

  obs::Observer *Obs = nullptr;
};

// Big-endian helpers shared with the syscall implementation tests.
uint64_t bytesToU64(const std::vector<uint8_t> &Bytes);
uint16_t bytesToU16(const uint8_t *Bytes);
void u16ToBytes(uint16_t Value, uint8_t *Bytes);

} // namespace ffi
} // namespace silver

#endif // SILVER_FFI_BASISFFI_H
