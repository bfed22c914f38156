//===- fuzz/Fuzzer.cpp - Differential optimization fuzzer -----------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "explore/Refinement.h"
#include "explore/Witness.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "lang/Validate.h"
#include "litmus/RandomProgram.h"
#include "opt/Pass.h"
#include "support/Statistic.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <optional>
#include <random>

namespace psopt {

/// Shrinker oracle budget per failure (ShrinkConfig::MaxChecks).
static constexpr unsigned ShrinkMaxChecks = 400;

std::uint64_t fuzzRunSeed(std::uint64_t Base, unsigned Run) {
  if (Run == 0)
    return Base; // identity, so logged seeds replay with --runs=1
  std::uint64_t Z = Base + 0x9e3779b97f4a7c15ull * Run;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

const char *FuzzFailure::kindName(Kind K) {
  switch (K) {
  case Kind::Refinement:
    return "refinement";
  case Kind::InvalidTarget:
    return "invalid-target";
  case Kind::RoundTrip:
    return "round-trip";
  case Kind::ParallelDivergence:
    return "parallel-divergence";
  case Kind::CertCacheDivergence:
    return "certcache-divergence";
  case Kind::ReductionDivergence:
    return "reduction-divergence";
  }
  return "?";
}

static std::string pipelineStr(const std::vector<std::string> &Pipeline) {
  if (Pipeline.empty())
    return "(empty)";
  std::string Out;
  for (std::size_t I = 0; I < Pipeline.size(); ++I) {
    if (I)
      Out += ",";
    Out += Pipeline[I];
  }
  return Out;
}

std::string FuzzFailure::str() const {
  std::string Out = std::string("FAILURE[") + kindName(K) + "] seed=" +
                    std::to_string(Seed) + " pipeline=" +
                    pipelineStr(Pipeline) + "\n";
  if (!Detail.empty())
    Out += "  " + Detail + "\n";
  if (InstrsAfter < InstrsBefore)
    Out += "  shrunk: " + std::to_string(InstrsBefore) + " -> " +
           std::to_string(InstrsAfter) + " instructions\n";
  if (!ReproPath.empty())
    Out += "  repro: " + ReproPath + "\n";
  Out += printProgram(Shrunk);
  return Out;
}

std::string FuzzReport::str() const {
  std::string Out;
  for (const FuzzFailure &F : Failures)
    Out += F.str() + "\n";
  Out += "fuzz: runs=" + std::to_string(Runs) + " failures=" +
         std::to_string(Failures.size()) + " skipped=" +
         std::to_string(Skipped) + " seed=" + std::to_string(BaseSeed) +
         " elapsed=" + std::to_string(ElapsedSec) + "s\n";
  return Out;
}

namespace {

/// One run's oracle context: programs explored under the reference
/// configuration (jobs=1, cert cache on).
struct Oracle {
  StepConfig SC;
  ExploreConfig Seq;

  explicit Oracle(const FuzzConfig &C) {
    SC.EnablePromises = C.EnablePromises;
    SC.EnableCertCache = true;
    Seq.MaxNodes = C.MaxNodes;
    Seq.Jobs = 1;
  }

  BehaviorSet explore(const Program &P) const {
    return exploreInterleaving(P, SC, Seq);
  }
};

/// The refinement oracle as a shrink predicate: the pipeline's output must
/// keep exhibiting a target-only behavior, exactly (no bound trips).
bool refinementStillFails(const Program &P,
                          const std::vector<std::string> &Pipeline,
                          const Oracle &O) {
  PipelineResult Tgt = runPassPipeline(Pipeline, P);
  if (Tgt.UnknownPass || !isValidProgram(Tgt.Prog))
    return false;
  BehaviorSet SrcB = O.explore(P);
  BehaviorSet TgtB = O.explore(Tgt.Prog);
  if (!SrcB.Exhausted || !TgtB.Exhausted)
    return false;
  return !checkRefinement(TgtB, SrcB).Holds;
}

/// Generator shape for one run, drawn from the run's own RNG so the whole
/// run reproduces from its seed. Sizes are kept litmus-scale: the oracle
/// explores every interleaving.
RandomProgramConfig generatorConfig(std::uint64_t RunSeed) {
  std::mt19937_64 Rng(RunSeed);
  auto Pick = [&](unsigned Lo, unsigned Hi) {
    return std::uniform_int_distribution<unsigned>(Lo, Hi)(Rng);
  };
  RandomProgramConfig G;
  G.Seed = RunSeed;
  // Sizes stay litmus-scale — the oracle pays for every interleaving, and
  // a third thread or a longer body multiplies the state space.
  G.NumThreads = Pick(0, 7) == 0 ? 3 : 2;
  G.AllowLoop = Pick(0, 3) == 0;
  G.InstrsPerThread = G.AllowLoop ? 2 : Pick(2, 4);
  G.NumNaVars = Pick(2, 3);
  G.NumAtomicVars = Pick(1, 2);
  G.NumRegs = 3;
  G.AllowCas = Pick(0, 1) == 0;
  G.AllowBranch = !G.AllowLoop;
  G.LoopTripCount = 2;
  G.ExclusiveNaWriters = true; // ww-RF by construction (Thm 6.6 premise)
  G.AcqRelPercent = 50;
  G.CasWeight = 2;
  G.RedundancyPercent = 35;
  G.LoopInvariantLoad = true;
  G.PrintLoadedRegs = true;
  // Bias toward release/acquire message passing: the idiom every unsound
  // optimization in the paper breaks (Fig 1, Fig 15), and the shape plain
  // uniform sampling almost never produces.
  G.MpSkeletonPercent = 60;
  // Fence-based MP half the time the skeleton fires, plus stray fences in
  // ordinary bodies: gives fenceweaken dominated/adjacent/trailing fences
  // and makes unsafe-fenceweaken's dropped reader fence observable.
  G.FenceMpPercent = 50;
  G.FencePercent = 12;
  // Adjacent na-store/na-load pairs and the post-acquire payload re-read:
  // the shapes reorder moves and unsafe-reorder hoists across the acquire.
  G.ReorderBaitPercent = 40;
  return G;
}

/// Random pipeline of 1-3 verified passes, drawn with replacement.
std::vector<std::string> randomPipeline(std::mt19937_64 &Rng) {
  const std::vector<std::string> &Names = verifiedPassNames();
  std::uniform_int_distribution<std::size_t> PickName(0, Names.size() - 1);
  std::uniform_int_distribution<unsigned> PickLen(1, 3);
  std::vector<std::string> Pipeline;
  unsigned Len = PickLen(Rng);
  for (unsigned I = 0; I < Len; ++I)
    Pipeline.push_back(Names[PickName(Rng)]);
  return Pipeline;
}

/// Confirms a refinement counterexample with a witness search on the
/// target, classifying the failing behavior. Returns a human-readable
/// summary for the report.
std::string classifyWithWitness(const Program &Tgt, const Behavior &Cex,
                                const Oracle &O) {
  InterleavingMachine M(Tgt, O.SC);
  WitnessResult W = findWitness(M, Cex.Outs, Cex.Ending, O.Seq);
  if (W.Bounded)
    return "witness: search bounded by MaxNodes before reaching the "
           "counterexample";
  if (!W)
    return "witness: NOT FOUND for counterexample (unexpected)";
  ReplayResult R = replayWitness(M, *W);
  std::string Kind = Cex.Ending == Behavior::End::Done    ? "done"
                     : Cex.Ending == Behavior::End::Abort ? "abort"
                                                          : "prefix";
  return "witness: target reaches the " + Kind + " counterexample in " +
         std::to_string(W->Steps.size()) +
         " steps (replay " + (R.Ok ? "confirmed" : "FAILED: " + R.Error) +
         ")";
}

std::string sanitizeSlug(std::string S) {
  for (char &C : S)
    if (!std::isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return S;
}

} // namespace

FuzzReport runFuzzer(const FuzzConfig &C) {
  auto Start = std::chrono::steady_clock::now();
  auto Elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  };

  FuzzReport Report;
  Report.BaseSeed = C.Seed;
  Oracle O(C);

  TraceSpan CampaignSpan("fuzz", "campaign");
  CampaignSpan.arg("base_seed", C.Seed).arg("jobs", C.Jobs);

  for (unsigned Run = 0; Run < C.Runs; ++Run) {
    if (C.TimeBudgetSec && Elapsed() > C.TimeBudgetSec)
      break;
    ++Report.Runs;

    std::uint64_t Seed = fuzzRunSeed(C.Seed, Run);
    std::mt19937_64 Rng(Seed ^ 0x5eedF00dull);
    Program Src = generateRandomProgram(generatorConfig(Seed));
    std::vector<std::string> Pipeline =
        C.Pipeline.empty() ? randomPipeline(Rng) : C.Pipeline;

    // Per-run telemetry: wall-clock plus a statistics snapshot, so the
    // run record reports run-local deltas (nodes explored, cache hits),
    // not campaign-cumulative totals.
    Timer RunTimer;
    std::optional<StatisticSnapshot> RunStats;
    if (traceEnabled())
      RunStats.emplace();
    const std::size_t FailuresBefore = Report.Failures.size();
    const unsigned SkippedBefore = Report.Skipped;

    // The run body is an immediately-invoked closure so every early-out
    // path (round-trip failure, skip, divergence) still falls through to
    // the one per-run telemetry record below.
    [&] {
    auto Report_ = [&](FuzzFailure::Kind K, std::string Detail,
                       const ShrinkOracle &StillFails) {
      FuzzFailure F;
      F.K = K;
      F.Seed = Seed;
      F.Pipeline = Pipeline;
      F.Detail = std::move(Detail);
      F.Source = Src;
      F.Shrunk = Src;
      F.InstrsBefore = F.InstrsAfter = programInstructionCount(Src);
      if (C.Shrink && StillFails) {
        ShrinkConfig SC;
        SC.MaxChecks = ShrinkMaxChecks;
        ShrinkResult R = shrinkProgram(Src, StillFails, SC);
        F.Shrunk = std::move(R.Prog);
        F.InstrsAfter = R.InstrsAfter;
      }
      return F;
    };

    // 1. Printer -> Parser round-trip (reproducer files depend on it).
    {
      auto RoundTripBroken = [](const Program &P) {
        ParseResult R = parseProgram(printProgram(P));
        return !R.ok() || !(*R.Prog == P);
      };
      if (RoundTripBroken(Src)) {
        Report.Failures.push_back(Report_(FuzzFailure::Kind::RoundTrip,
                                          "print->parse mismatch",
                                          RoundTripBroken));
        return;
      }
    }

    // 2. Run the pipeline; the target must validate.
    PipelineResult Opt = runPassPipeline(Pipeline, Src);
    if (Opt.UnknownPass) {
      FuzzFailure F = Report_(FuzzFailure::Kind::InvalidTarget,
                              "unknown pass in pipeline", nullptr);
      Report.Failures.push_back(std::move(F));
      return;
    }
    const Program &Tgt = Opt.Prog;
    if (!isValidProgram(Tgt)) {
      auto TargetInvalid = [&Pipeline](const Program &P) {
        PipelineResult T = runPassPipeline(Pipeline, P);
        return !T.UnknownPass && !isValidProgram(T.Prog);
      };
      Report.Failures.push_back(Report_(FuzzFailure::Kind::InvalidTarget,
                                        "pipeline output fails validation",
                                        TargetInvalid));
      return;
    }

    // 3. The refinement oracle under the reference engine.
    BehaviorSet SrcB = O.explore(Src);
    BehaviorSet TgtB = O.explore(Tgt);
    if (!SrcB.Exhausted || !TgtB.Exhausted) {
      ++Report.Skipped;
      return;
    }
    RefinementResult R = checkRefinement(TgtB, SrcB);
    if (!R.Holds) {
      auto StillFails = [&Pipeline, &O](const Program &P) {
        return refinementStillFails(P, Pipeline, O);
      };
      FuzzFailure F = Report_(FuzzFailure::Kind::Refinement,
                              "counterexample: " + R.CounterExample,
                              StillFails);
      // Re-derive the counterexample on the shrunk program and confirm it
      // with a witness (the shrinker may have found a different trace).
      Program ShrunkTgt = runPassPipeline(Pipeline, F.Shrunk).Prog;
      RefinementResult SR =
          checkRefinement(O.explore(ShrunkTgt), O.explore(F.Shrunk));
      if (SR.Cex) {
        F.Detail = "counterexample: " + SR.CounterExample + "\n  " +
                   classifyWithWitness(ShrunkTgt, *SR.Cex, O);
      }
      if (!C.CorpusDir.empty()) {
        CorpusEntry E;
        E.Name = "repro_" + std::to_string(Seed) + "_" +
                 sanitizeSlug(pipelineStr(Pipeline));
        E.Seed = Seed;
        E.Pipeline = Pipeline;
        E.ExpectFail = true;
        E.Promises = C.EnablePromises;
        E.Note = "found by psopt fuzz; shrunk from " +
                 std::to_string(F.InstrsBefore) + " instructions";
        E.Prog = F.Shrunk;
        std::string Path = C.CorpusDir + "/" + E.Name + ".rtl";
        if (storeCorpusEntry(E, Path))
          F.ReproPath = Path;
      }
      Report.Failures.push_back(std::move(F));
      return;
    }

    // 4. Differential engine cross-validation. The parallel explorer with
    // the certification cache disabled must reproduce the reference
    // BehaviorSet bit-identically; a mismatch is bisected to the guilty
    // engine dimension. The fourth dimension is the schedule reduction:
    // --reduce=off explores every interleaving and must reproduce the
    // reduced reference's behavior sets (counters legitimately differ, so
    // the comparison is sameBehaviors, not operator==).
    if (C.Differential) {
      StepConfig NoCache = O.SC;
      NoCache.EnableCertCache = false;
      ExploreConfig Par = O.Seq;
      Par.Jobs = C.Jobs;
      ExploreConfig NoReduce = O.Seq;
      NoReduce.Reduce = false;
      struct Side {
        const char *Name;
        const Program *Prog;
        const BehaviorSet *Ref;
      };
      const Side Sides[] = {{"source", &Src, &SrcB}, {"target", &Tgt, &TgtB}};
      bool Diverged = false;
      for (const Side &S : Sides) {
        BehaviorSet Alt = exploreInterleaving(*S.Prog, NoCache, Par);
        if (Alt == *S.Ref)
          continue;
        // Bisect: jobs=1 cache-off isolates the cache dimension.
        BehaviorSet SeqNoCache = exploreInterleaving(*S.Prog, NoCache, O.Seq);
        bool CacheGuilty = SeqNoCache != *S.Ref;
        auto Diverges = [&](const Program &P) {
          BehaviorSet A = exploreInterleaving(P, O.SC, O.Seq);
          BehaviorSet B = CacheGuilty
                              ? exploreInterleaving(P, NoCache, O.Seq)
                              : exploreInterleaving(P, O.SC, Par);
          return A.Exhausted && B.Exhausted && A != B;
        };
        FuzzFailure F = Report_(
            CacheGuilty ? FuzzFailure::Kind::CertCacheDivergence
                        : FuzzFailure::Kind::ParallelDivergence,
            std::string("BehaviorSet divergence on the ") + S.Name +
                " program (jobs=" + std::to_string(C.Jobs) + ")",
            Diverges);
        Report.Failures.push_back(std::move(F));
        Diverged = true;
        break;
      }
      for (const Side &S : Sides) {
        if (Diverged)
          break;
        // The unreduced sweep only falsifies if it completes, and on
        // programs where reduction wins big it never would — cap it at a
        // multiple of the reduced graph and skip the comparison on a
        // bound trip (a behavior prefix proves nothing either way).
        NoReduce.MaxNodes = std::min<std::uint64_t>(
            C.MaxNodes, 32 * S.Ref->NodesVisited + 4096);
        BehaviorSet Unreduced = exploreInterleaving(*S.Prog, O.SC, NoReduce);
        if (!Unreduced.Exhausted)
          continue;
        if (Unreduced.sameBehaviors(*S.Ref))
          continue;
        auto DivergesRed = [&](const Program &P) {
          BehaviorSet A = exploreInterleaving(P, O.SC, O.Seq);
          BehaviorSet B = exploreInterleaving(P, O.SC, NoReduce);
          return A.Exhausted && B.Exhausted && !A.sameBehaviors(B);
        };
        FuzzFailure F = Report_(
            FuzzFailure::Kind::ReductionDivergence,
            std::string("behavior-set divergence on the ") + S.Name +
                " program (reduce=on vs reduce=off)",
            DivergesRed);
        Report.Failures.push_back(std::move(F));
        break;
      }
    }
    }();

    if (RunStats) {
      const char *Verdict =
          Report.Failures.size() > FailuresBefore
              ? FuzzFailure::kindName(Report.Failures.back().K)
              : (Report.Skipped > SkippedBefore ? "skipped" : "ok");
      TraceArgs A;
      A.add("run", Run)
          .add("seed", Seed)
          .add("pipeline", pipelineStr(Pipeline))
          .add("verdict", Verdict)
          .add("nodes", RunStats->delta("explore", "nodes"))
          .add("transitions", RunStats->delta("explore", "transitions"))
          .add("cert_hits", RunStats->delta("certcache", "hits"))
          .add("cert_misses", RunStats->delta("certcache", "misses"))
          .add("duration_ms", RunTimer.elapsedNanos() * 1e-6);
      traceInstant("fuzz", "run", std::move(A));
    }
  }

  CampaignSpan.arg("runs", Report.Runs)
      .arg("failures", static_cast<std::uint64_t>(Report.Failures.size()))
      .arg("skipped", Report.Skipped);
  Report.ElapsedSec = Elapsed();
  return Report;
}

} // namespace psopt
