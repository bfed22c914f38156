//===- opt/Pass.cpp - Optimization pass composition and registry ----------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "support/Timer.h"
#include "support/Trace.h"

#include <map>
#include <mutex>

namespace psopt {

namespace {

/// Lazily-created per-pass-name phase timers ("opt.dce", "opt.licm", ...).
/// Pass names arrive at runtime (registry names, composed pipeline names),
/// so the timers cannot be namespace-scope statics; the node-based map
/// keeps the name storage stable for the PhaseTimer's lifetime.
PhaseTimer &passTimer(const char *Name) {
  static std::mutex M;
  static std::map<std::string, std::unique_ptr<PhaseTimer>> Timers;
  std::lock_guard<std::mutex> Lock(M);
  auto It = Timers.find(Name);
  if (It == Timers.end()) {
    It = Timers.emplace(Name, nullptr).first;
    It->second = std::make_unique<PhaseTimer>(
        "opt", It->first.c_str(), "wall-clock time inside this pass");
  }
  return *It->second;
}

} // namespace

Program runPassInstrumented(const Pass &P, const Program &In) {
  PhaseTimerScope Time(passTimer(P.name()));
  TraceSpan Span("opt", P.name());
  return P.run(In);
}

PipelineResult runPassPipeline(const std::vector<std::string> &Names,
                               const Program &In) {
  std::vector<std::unique_ptr<Pass>> Passes;
  for (const std::string &Name : Names) {
    Passes.push_back(createPassByName(Name));
    if (!Passes.back())
      return {Program{}, Name};
  }
  PipelineResult R{In, std::nullopt};
  for (const std::unique_ptr<Pass> &P : Passes)
    R.Prog = runPassInstrumented(*P, R.Prog);
  return R;
}

std::unique_ptr<Pass> createLICM() {
  std::vector<std::unique_ptr<Pass>> Ps;
  Ps.push_back(createLInv());
  Ps.push_back(createCSE());
  return std::make_unique<PassPipeline>("licm", std::move(Ps));
}

std::unique_ptr<Pass> createUnsafeLICM() {
  std::vector<std::unique_ptr<Pass>> Ps;
  Ps.push_back(createUnsafeLInv());
  Ps.push_back(createUnsafeCSE());
  return std::make_unique<PassPipeline>("licm-unsafe", std::move(Ps));
}

const std::vector<PassInfo> &passRegistry() {
  static const std::vector<PassInfo> Registry = {
      {"constprop", createConstProp},
      {"dce", createDCE, "unsafe-dce", createUnsafeDCE},
      {"rse", createStoreElim, "unsafe-rse", createUnsafeStoreElim},
      {"cse", createCSE, "unsafe-cse", createUnsafeCSE},
      {"linv", createLInv, "unsafe-linv", createUnsafeLInv,
       /*InRefinementSweep=*/false, /*InFuzzPipelines=*/false},
      {"licm", createLICM, "unsafe-licm", createUnsafeLICM},
      {"reorder", createReorder, "unsafe-reorder", createUnsafeReorder},
      {"fenceweaken", createFenceWeaken, "unsafe-fenceweaken",
       createUnsafeFenceWeaken},
      {"simplifycfg", createSimplifyCfg, nullptr, nullptr,
       /*InRefinementSweep=*/false},
  };
  return Registry;
}

std::vector<std::unique_ptr<Pass>> createAllVerifiedPasses() {
  std::vector<std::unique_ptr<Pass>> Ps;
  for (const PassInfo &Info : passRegistry())
    if (Info.InRefinementSweep)
      Ps.push_back(Info.Create());
  return Ps;
}

const std::vector<std::string> &verifiedPassNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> Out;
    for (const PassInfo &Info : passRegistry())
      if (Info.InFuzzPipelines)
        Out.push_back(Info.Name);
    return Out;
  }();
  return Names;
}

const std::vector<std::string> &unsafePassNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> Out;
    for (const PassInfo &Info : passRegistry())
      if (Info.UnsafeName)
        Out.push_back(Info.UnsafeName);
    return Out;
  }();
  return Names;
}

std::unique_ptr<Pass> createPassByName(const std::string &Name) {
  for (const PassInfo &Info : passRegistry()) {
    if (Name == Info.Name)
      return Info.Create();
    if (Info.UnsafeName && Name == Info.UnsafeName)
      return Info.CreateUnsafe();
  }
  return nullptr;
}

} // namespace psopt
