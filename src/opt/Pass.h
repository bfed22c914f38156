//===- opt/Pass.h - Optimization pass interface -----------------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimizer interface of §6.3: Opt takes the source code π and the
/// atomic set ι (bundled in a Program) and returns the target code with the
/// same ι and thread list. Verified optimizers never touch atomic accesses
/// (§1: "we focus on optimizations on non-atomic accesses").
///
/// Passes compose vertically (§2.5: LICM ≜ LInv ∘ CSE); the paper's
/// Lm 6.2 justifies composition because each verified pass preserves
/// write-write race freedom — checked empirically in tests/opt.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_OPT_PASS_H
#define PSOPT_OPT_PASS_H

#include "lang/Program.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace psopt {

/// One optimization pass.
class Pass {
public:
  virtual ~Pass() = default;

  /// The pass name ("constprop", "dce", ...).
  virtual const char *name() const = 0;

  /// Transforms a whole program: every function of π is optimized; ι and
  /// the thread list are returned unchanged.
  virtual Program run(const Program &P) const = 0;
};

/// Runs \p P on \p In with telemetry: the run is wrapped in a trace span
/// (cat "opt", name = pass name, instruction counts as args) and added to
/// a per-pass-name phase timer keyed "opt.<name>", so --stats and traces
/// report per-pass pipeline timing. All pipeline drivers — PassPipeline
/// and runPassPipeline, which serves the CLI's optimize command, the
/// fuzzer and corpus replay — run passes through this.
Program runPassInstrumented(const Pass &P, const Program &In);

/// The outcome of runPassPipeline: the optimized program, or the first
/// pass name createPassByName does not know (then no pass has run).
struct PipelineResult {
  Program Prog;
  std::optional<std::string> UnknownPass;
};

/// Runs the passes named \p Names on \p In in order, each through
/// runPassInstrumented. Every name is resolved before the first pass runs.
PipelineResult runPassPipeline(const std::vector<std::string> &Names,
                               const Program &In);

/// Creates the constant propagation pass (ConstProp, §7.2).
std::unique_ptr<Pass> createConstProp();

/// Creates the dead code elimination pass (DCE, §7.1).
std::unique_ptr<Pass> createDCE();

/// Creates an *incorrect* DCE variant whose liveness analysis ignores the
/// release rule — the red annotation of Fig 15. Exists so tests and benches
/// can demonstrate that the rule is what makes DCE sound.
std::unique_ptr<Pass> createUnsafeDCE();

/// Creates the common subexpression elimination pass (CSE, §2.5/§7.2).
std::unique_ptr<Pass> createCSE();

/// Creates an *incorrect* CSE variant that keeps load equations across
/// acquire reads — the Fig 1 mistake.
std::unique_ptr<Pass> createUnsafeCSE();

/// Creates the loop-invariant read introduction pass (LInv, §2.5).
std::unique_ptr<Pass> createLInv();

/// Creates an *incorrect* LInv variant that hoists across acquire reads —
/// the Fig 1 mistake, at the hoisting pass.
std::unique_ptr<Pass> createUnsafeLInv();

/// Creates the adjacent-instruction reordering pass (Fig 3 / Fig 14):
/// hoists loads and sinks stores within blocks under the delayed-write
/// side conditions.
std::unique_ptr<Pass> createReorder();

/// Creates an *incorrect* Reorder variant that hoists loads above acquire
/// loads — Fig 1 as a peephole.
std::unique_ptr<Pass> createUnsafeReorder();

/// Creates the redundant store elimination pass: kills na stores
/// overwritten in-block with no intervening observer or release boundary
/// (the write-side dual of DCE's Fig 15 rule).
std::unique_ptr<Pass> createStoreElim();

/// Creates an *incorrect* RSE variant that eliminates across release
/// writes and rel-side fences — the Fig 15 mistake on the write side.
std::unique_ptr<Pass> createUnsafeStoreElim();

/// Creates the fence elimination/weakening pass: drops dominated and
/// trailing fences, demotes acqrel fences whose one side is redundant.
std::unique_ptr<Pass> createFenceWeaken();

/// Creates an *incorrect* FenceWeaken variant that treats acq fences as
/// dominated even across intervening relaxed loads.
std::unique_ptr<Pass> createUnsafeFenceWeaken();

/// Vertical composition: runs passes in order (◦ of §2.5, rightmost name
/// first in the constructor call, i.e. compose({A, B}) runs A then B).
class PassPipeline : public Pass {
public:
  PassPipeline(std::string Name, std::vector<std::unique_ptr<Pass>> Passes)
      : Name(std::move(Name)), Passes(std::move(Passes)) {}

  const char *name() const override { return Name.c_str(); }

  Program run(const Program &P) const override {
    Program Cur = P;
    for (const auto &Pass_ : Passes)
      Cur = runPassInstrumented(*Pass_, Cur);
    return Cur;
  }

private:
  std::string Name;
  std::vector<std::unique_ptr<Pass>> Passes;
};

/// Creates LICM ≜ CSE ∘ LInv (first LInv, then CSE — Fig 5(a)).
std::unique_ptr<Pass> createLICM();

/// Creates the trace-preserving control-flow cleanup pass: unreachable
/// block removal, skip deletion, branch collapsing, jump threading. No
/// memory access is touched (§7.2 category 1).
std::unique_ptr<Pass> createSimplifyCfg();

/// Creates the incorrect LICM that hoists across acquire reads (Fig 1).
std::unique_ptr<Pass> createUnsafeLICM();

/// One registered optimizer. Every pass-name list in the workbench — the
/// CLI's createPassByName, the fuzzer's random pipelines, the litmus
/// sweeps and the property harness — derives from this table; a new pass
/// registers here once and appears everywhere.
struct PassInfo {
  /// CLI name of the verified pass ("dce", "rse", ...).
  const char *Name;
  /// Factory for the verified pass.
  std::unique_ptr<Pass> (*Create)();
  /// CLI name of the deliberately unsound twin ("unsafe-dce", ...), or
  /// null when the pass has none.
  const char *UnsafeName = nullptr;
  /// Factory for the unsound twin, or null.
  std::unique_ptr<Pass> (*CreateUnsafe)() = nullptr;
  /// Included in createAllVerifiedPasses() and the refinement sweeps.
  /// (linv is excluded — it only appears composed inside licm; the
  /// trace-preserving simplifycfg is excluded as memory-untouching.)
  bool InRefinementSweep = true;
  /// Listed by verifiedPassNames(), the pool random fuzz pipelines draw
  /// from. (linv is excluded in favour of licm.)
  bool InFuzzPipelines = true;
};

/// The pass registry, in pipeline-draw order.
const std::vector<PassInfo> &passRegistry();

/// The verified optimizers with InRefinementSweep set, for parameterized
/// test/bench sweeps. Derived from passRegistry().
std::vector<std::unique_ptr<Pass>> createAllVerifiedPasses();

/// Names accepted by createPassByName for the verified passes (including
/// the trace-preserving simplifycfg); the pool `psopt fuzz` draws random
/// pipelines from. Derived from passRegistry().
const std::vector<std::string> &verifiedPassNames();

/// Names of the unsound twins ("unsafe-dce", ...), for twin-firing
/// campaigns. Derived from passRegistry().
const std::vector<std::string> &unsafePassNames();

/// Creates a pass by CLI name — any entry of verifiedPassNames(), "linv",
/// or an unsafePassNames() twin (for the fuzzer's demonstrate-the-oracle
/// mode). Returns null for unknown names. Derived from passRegistry().
std::unique_ptr<Pass> createPassByName(const std::string &Name);

} // namespace psopt

#endif // PSOPT_OPT_PASS_H
