//===- ps/Machine.h - Whole-program machines --------------------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-program machine states and the interleaving machine of PS2.1
/// (Fig 9). A MachineState bundles the thread pool, the memory, and the two
/// extra components of the non-preemptive machine (current thread id and
/// switch bit) so that both machines share one state type — the explorer,
/// the canonicalizer and the race detectors are machine-generic.
///
/// Machine-step granularity: one thread step per machine step, with the
/// consistency check after every step (the POPL'17/PLDI'20 presentation;
/// see DESIGN.md §2 for why this generates the same behaviors as Fig 9's
/// one-or-more-steps τ rule). Context switches are fused into successor
/// enumeration: the interleaving machine lets any thread step from any
/// state, so the explicit sw step and the current-thread id are redundant
/// there and are kept at fixed values to maximize state sharing.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_PS_MACHINE_H
#define PSOPT_PS_MACHINE_H

#include "ps/CertCache.h"
#include "ps/Certification.h"
#include "ps/ThreadStep.h"

#include <memory>

namespace psopt {

/// Whole-machine configuration W (Fig 8), extended with the NP components.
struct MachineState {
  std::vector<ThreadState> Threads;
  Memory Mem;
  /// NP machine: the running thread. Fixed to 0 in the interleaving machine.
  Tid Cur = 0;
  /// NP machine: the switch bit β (true = ◦, switching allowed). Fixed to
  /// true in the interleaving machine.
  bool SwitchAllowed = true;

  bool operator==(const MachineState &O) const {
    return Cur == O.Cur && SwitchAllowed == O.SwitchAllowed &&
           Threads == O.Threads && Mem == O.Mem;
  }

  std::size_t hash() const;

  /// True when every thread has terminated (trace marker `done`).
  bool allTerminated() const;

  std::string str() const;
};

/// While alive, sends the machine.thread_steps that successor enumeration
/// counts on the calling thread to \p Sink instead of the shared
/// statistic, so a search worker's enumerations write no shared cache
/// line. The search adds its workers' sinks to the statistic
/// (addThreadSteps) once they join. Guards nest.
class ThreadStepTally {
public:
  explicit ThreadStepTally(std::uint64_t &Sink);
  ~ThreadStepTally();
  ThreadStepTally(const ThreadStepTally &) = delete;
  ThreadStepTally &operator=(const ThreadStepTally &) = delete;

private:
  std::uint64_t *Prev;
};

/// Adds \p N thread steps tallied by ThreadStepTally to machine.thread_steps.
void addThreadSteps(std::uint64_t N);

/// Label of one machine step (ProgEvt of Fig 8, with abort surfaced).
struct MachineEvent {
  enum class Kind : std::uint8_t { Tau, Out, Abort };
  Kind K = Kind::Tau;
  Val OutVal = 0;
  Tid Thread = 0;          ///< Which thread stepped.
  ThreadEvent ThreadEv;    ///< The underlying thread event (diagnostics).
};

/// One enumerated machine successor.
struct MachineSuccessor {
  MachineState State;
  MachineEvent Ev;
};

/// Abstract machine: initial state plus successor enumeration.
class Machine {
public:
  Machine(const Program &P, StepConfig C);
  virtual ~Machine() = default;

  const Program &program() const { return *P; }
  const StepConfig &config() const { return Cfg; }

  /// Whether the step relation maintains the acquire view
  /// (enumerateProgramSteps): on exactly when the program has an
  /// acquire-side fence (programHasAcquireFence), derived once here.
  bool tracksAcqView() const { return TrackAcqView; }

  /// Thread \p T's promise domain, computed once at construction.
  const PromiseDomain &promiseDomain(Tid T) const { return Domains[T]; }

  /// The machine's certification cache; null when disabled
  /// (StepConfig::EnableCertCache). Shared by all explorer workers.
  CertCache *certCache() const { return Cert.get(); }

  /// The initial machine state; nullopt when a thread entry is missing
  /// (the program's only behavior is then `abort`).
  const std::optional<MachineState> &initial() const { return Init; }

  /// Enumerates all successors of \p S into \p Out (cleared first).
  virtual void successors(const MachineState &S,
                          std::vector<MachineSuccessor> &Out) const = 0;

  /// Human-readable machine name for reports.
  virtual const char *name() const = 0;

  /// True when the explorer's ample-set reduction (explore/Reduction.h) is
  /// sound for this machine. Only the interleaving machine opts in: its
  /// successor relation is schedule-closed (any thread may step anywhere),
  /// which the reduction's commutation argument relies on. The NP machine
  /// constrains scheduling itself and is always explored unreduced.
  virtual bool supportsReduction() const { return false; }

protected:
  /// Lifts thread \p T's enumerated successors into machine successors,
  /// applying the per-step consistency check (after the StoreReach
  /// fast-fail). Promise/reserve steps are enumerated only when
  /// \p AllowPromiseReserve (the NP machine passes its switch bit); cancel
  /// steps are always eligible. When \p TrackNP, the successor records the
  /// stepping thread and the updated switch bit per Fig 10; otherwise
  /// Cur/β stay at their fixed interleaving values.
  void liftThreadSuccessors(const MachineState &S, Tid T,
                            bool AllowPromiseReserve, bool TrackNP,
                            std::vector<MachineSuccessor> &Out) const;

  const Program *P;
  StepConfig Cfg;
  bool TrackAcqView;
  std::vector<PromiseDomain> Domains; // Indexed by thread id.
  std::optional<MachineState> Init;
  std::unique_ptr<StoreReach> Reach; // Null when EnablePromises is off.
  std::unique_ptr<CertCache> Cert;   // Null when EnableCertCache is off.
};

/// The interleaving machine of Fig 9 (∥ composition).
class InterleavingMachine : public Machine {
public:
  InterleavingMachine(const Program &P, StepConfig C) : Machine(P, C) {}

  void successors(const MachineState &S,
                  std::vector<MachineSuccessor> &Out) const override;

  const char *name() const override { return "interleaving"; }

  bool supportsReduction() const override { return true; }
};

} // namespace psopt

#endif // PSOPT_PS_MACHINE_H
