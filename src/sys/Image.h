//===- sys/Image.h - Memory images and the lab environment -----*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds bootable Silver memory images (paper Figure 2) from a compiled
/// program, a command line, and pre-filled standard input — as a boot
/// snapshot that is built once per program and instantiated per run (the
/// ISA state and the lab DRAM alike), or densely for the static audit
/// and tests; provides the
/// environment model that plays the role of the paper's lab setup (the
/// ARM core's Python script reacting to interrupts); and implements the
/// installed/init validators — executable versions of the paper's
/// installed and init assumptions (§5, §6).
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_SYS_IMAGE_H
#define SILVER_SYS_IMAGE_H

#include "isa/Interp.h"
#include "sys/Layout.h"
#include "sys/Syscalls.h"

#include <memory>
#include <string>
#include <vector>

namespace silver {
namespace sys {

/// Everything needed to build a bootable image.
struct ImageSpec {
  std::vector<std::string> CommandLine;
  std::string StdinData;
  std::vector<uint8_t> Program; ///< machine code + data, loaded at CodeBase
  LayoutParams Params;
};

/// A built image: the full memory contents plus its layout.
struct MemoryImage {
  MemoryLayout Layout;
  std::vector<uint8_t> Memory;
};

/// Builds the image: startup code, descriptor table, command-line region,
/// stdin region, zeroed output buffer, system-call code, zeroed usable
/// memory, and the program at CodeBase.  Enforces cl_ok and the region
/// capacities.
Result<MemoryImage> buildImage(const ImageSpec &Spec);

/// The paper's init assumption (theorem (5)): a machine state with the
/// image in memory, PC at the startup code, everything else clear.
isa::MachineState initialState(const MemoryImage &Image);

/// The run-independent part of a program's Figure-2 image: startup code,
/// descriptor table, system-call code and the program, with the
/// command-line and stdin regions left zero.  Immutable once built, so
/// one snapshot serves every run of the program (stack::Prepared caches
/// it).  Stored sparsely as its nonzero 4 KiB pages, together with the
/// isa::pageHash of every page of memory, which is what an incremental
/// StateDigest takes for the pages a run never wrote.
struct BootSnapshot {
  MemoryLayout Layout;
  size_t ProgramBytes = 0;
  std::vector<Word> Pages;          ///< indices of the nonzero pages, ascending
  std::vector<uint8_t> PageBytes;   ///< their contents, isa::PageSize each
  std::vector<uint64_t> PageHashes; ///< one per page of memory

  size_t memBytes() const { return Layout.Params.MemSize; }
};

/// Builds the snapshot of \p Program under \p Params.  Fails when the
/// layout does not fit.
Result<BootSnapshot> buildSnapshot(const std::vector<uint8_t> &Program,
                                   const LayoutParams &Params);

/// Exit status recorded by the "exit" system call.
struct ExitStatus {
  bool Exited = false;
  uint8_t Code = 0;
};
ExitStatus readExitStatus(const isa::MachineState &State,
                          const MemoryLayout &Layout);
/// The same, from a raw memory (the lab DRAM).
ExitStatus readExitStatus(const uint8_t *Memory, const MemoryLayout &Layout);

/// The observable action of one Interrupt notification against a raw
/// memory: reads the exit cells / output buffer, appends terminal text to
/// \p StdoutData / \p StderrData, and returns the observable bytes for
/// the IO-event trace.  Shared by the ISA-level SysEnv and the RTL-level
/// LabEnv so both layers expose identical behaviour.
std::vector<uint8_t> interruptObservable(const uint8_t *Memory,
                                         const MemoryLayout &Layout,
                                         std::string &StdoutData,
                                         std::string &StderrData);

/// The environment in the lab setup (paper §4.2): reacts to Interrupt by
/// reading the output buffer and appending it to the collected terminal
/// streams (stdout id 1, stderr id 2).  The bytes it extracts are what
/// the IO-event trace records.
class SysEnv : public isa::IsaEnv {
public:
  explicit SysEnv(MemoryLayout Layout) : Layout(std::move(Layout)) {}

  std::vector<uint8_t> onInterrupt(isa::MachineState &State) override;

  /// Terminal output collected so far (the paper's stdout/stderr of the
  /// io_events trace).
  const std::string &collectedStdout() const { return Stdout; }
  const std::string &collectedStderr() const { return Stderr; }

private:
  MemoryLayout Layout;
  std::string Stdout;
  std::string Stderr;
};

/// Checks the installed-state assumption (paper §5, points (i)-(iv)) on a
/// post-startup machine state: info registers r1-r4 accurate, program
/// code in memory at CodeBase with the PC pointing at it, regions
/// word-aligned and non-overlapping, command line well-formed, and stdin
/// within its capacity.  Point (v) — system calls behave as modelled —
/// is discharged dynamically by machine::checkInterferenceImpl.
Result<void> validateInstalled(const isa::MachineState &State,
                               const MemoryLayout &Layout,
                               const ImageSpec &Spec);

/// A booted run: the state ready at CodeBase (at the startup code when
/// only instantiated), with the page-state table marking everything
/// written since instantiation (command line, stdin and the startup
/// code's own stores), and the snapshot it was booted from.
struct BootResult {
  MemoryLayout Layout;
  isa::MachineState State;
  uint64_t StartupSteps = 0;
  std::shared_ptr<const BootSnapshot> Snapshot;
};

/// The init state of theorem (5) for one run, from a snapshot: memory
/// holding the snapshot's pages plus \p Spec's command line and stdin,
/// PC at the startup code, StartupSteps 0.  Only the pages the command
/// line and stdin wrote are marked in the page-state table, and only
/// written.  \p Spec must describe the program and layout the snapshot
/// was built from; cl_ok and the stdin capacity are enforced as in
/// buildImage.
///
/// The memory comes from a finished run handed to recycle() when one of
/// the right size is pooled; only the pages that run could have left
/// nonzero are cleared.  The state is the same either way.  The lab DRAM
/// of the hardware levels is instantiated this way (the core runs the
/// startup code itself, from reset).
Result<BootResult> instantiate(std::shared_ptr<const BootSnapshot> Snap,
                               const ImageSpec &Spec);

/// Boots one run of \p Snap: instantiate(), then the startup code (the
/// Next^k prefix of theorem (5)), then validateInstalled().  Each startup
/// retire is reported to \p Obs when it is non-null (retire indices
/// 0..StartupSteps-1, matching the RTL level, which retires the startup
/// code on the real core from reset).
///
Result<BootResult> boot(std::shared_ptr<const BootSnapshot> Snap,
                        const ImageSpec &Spec, obs::Observer *Obs = nullptr);

/// Hands a finished run's state to a small process-wide pool that
/// instantiate() draws memory from, so the next run reuses resident
/// pages instead of faulting fresh zero pages in.  The pool keeps at
/// most a couple of states; beyond that \p Done is freed.  \p Done must
/// come from instantiate() or boot() and every write to it since must
/// have marked its page written.
void recycle(BootResult Done);

/// buildSnapshot() for \p Spec's program, then boot() from it.
Result<BootResult> boot(const ImageSpec &Spec, obs::Observer *Obs = nullptr);

} // namespace sys
} // namespace silver

#endif // SILVER_SYS_IMAGE_H
