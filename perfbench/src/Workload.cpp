//===- perfbench/src/Workload.cpp - Benchmark workloads and inputs --------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"
#include "Timing.h"

#include "fuzz/Corpus.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "litmus/RandomProgram.h"
#include "litmus/ScaleWorkload.h"
#include "opt/Pass.h"

#include <random>

using namespace psopt;

namespace perfbench {

namespace {

/// One shape of scale program. The seed draws the filler lengths and the
/// filler itself; the skeletons and prints, and so the behaviors, depend
/// only on the shape. That is why one fingerprint per shape checks every
/// seed.
struct ScaleShape {
  const char *Tag;
  unsigned Threads, Skeletons;
  unsigned FillerLo, FillerHi;   ///< read-only filler per thread
  unsigned PrivateLo, PrivateHi; ///< private-store filler per thread
  std::uint64_t Fingerprint;     ///< behaviorFingerprint of every instance
};

// About 600-1600 instructions each, sized so every shape takes about the
// same time (0.2-0.4 s on a 2.1 GHz Xeon core): with one shape far
// slower than the rest, the tail percentile would sit on the edge of that
// shape's items and jump between runs.
constexpr ScaleShape ScaleShapes[] = {
    {"t4_s3", 4, 3, 150, 210, 0, 0, 0x3d9236f99e318090ull},
    {"t4_s3_pv", 4, 3, 80, 100, 4, 6, 0x3d9236f99e318090ull},
    {"t5_s2", 5, 2, 260, 340, 0, 0, 0xfef7e77307acd245ull},
    {"t5_s2_pv", 5, 2, 110, 140, 6, 9, 0xfef7e77307acd245ull},
    {"t6_s1", 6, 1, 220, 300, 0, 0, 0xcb6c0466942debb2ull},
};

/// Programs per shape in one input set.
constexpr unsigned ScaleCopies = 2;

/// Random refinement items per input set; the corpus rides along. Small
/// enough that a run cycles through all of them at least once, so which
/// items a run covers does not depend on how fast the machine is.
constexpr unsigned VerifyRandomItems = 300;

/// Generator seed base of the verify workload's program catalogue.
constexpr std::uint64_t VerifyCatalogueSeed = 0x5eed0000;

/// Per-exploration node bound of the verify workload. It keeps the rare
/// huge random program from dominating a run: about 3% of items trip it
/// and count as undecided.
constexpr std::uint64_t VerifyMaxNodes = 10'000;

std::uint64_t splitmix64(std::uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Generates one program, then hands the harness its printed text parsed
/// back: the same input a user would pass on the command line.
template <typename GenT>
bool generateParsed(GenT &&Gen, Inputs &Out, Program &Prog, std::string &Err) {
  Clock::time_point T0 = Clock::now();
  std::string Text = printProgram(Gen());
  Out.GenerateS += since(T0);

  T0 = Clock::now();
  ParseResult R = parseProgram(Text);
  Out.ParseS += since(T0);
  if (!R.ok()) {
    Err = "generated program does not parse: " + R.Error;
    return false;
  }
  Prog = std::move(*R.Prog);
  return true;
}

bool buildScale(std::uint64_t Seed, Inputs &Out, std::string &Err) {
  for (unsigned Copy = 0; Copy < ScaleCopies; ++Copy) {
    for (std::size_t S = 0; S < std::size(ScaleShapes); ++S) {
      const ScaleShape &Shape = ScaleShapes[S];
      std::mt19937_64 Rng(splitmix64(Seed * 1000 + S * 10 + Copy));
      auto Draw = [&Rng](unsigned Lo, unsigned Hi) {
        return std::uniform_int_distribution<unsigned>(Lo, Hi)(Rng);
      };
      ScaleWorkloadConfig C;
      C.Seed = Rng();
      C.NumThreads = Shape.Threads;
      C.Skeletons = Shape.Skeletons;
      C.Shape = ScaleWorkloadConfig::Mix::Mixed;
      C.FillerPerThread = Draw(Shape.FillerLo, Shape.FillerHi);
      C.PrivateStoresPerThread = Draw(Shape.PrivateLo, Shape.PrivateHi);

      Item It;
      It.Name = std::string(Shape.Tag) + "#" + std::to_string(Copy);
      It.Want = Expect::Fingerprint;
      It.Fingerprint = Shape.Fingerprint;
      if (!generateParsed([&C] { return generateScaleWorkload(C); }, Out,
                          It.Source, Err))
        return false;
      Out.Items.push_back(std::move(It));
    }
  }
  return true;
}

/// The fuzzer's program shape, kept to two threads: ww-RF by construction,
/// biased toward release/acquire message passing, with redundancy for the
/// passes to remove and every loaded register printed.
RandomProgramConfig verifyProgramConfig(std::mt19937_64 &Rng) {
  auto Pick = [&Rng](unsigned Lo, unsigned Hi) {
    return std::uniform_int_distribution<unsigned>(Lo, Hi)(Rng);
  };
  RandomProgramConfig G;
  G.Seed = Rng();
  G.NumThreads = 2;
  G.AllowLoop = Pick(0, 3) == 0;
  G.InstrsPerThread = G.AllowLoop ? 2 : Pick(2, 3);
  G.NumNaVars = 2;
  G.NumAtomicVars = Pick(1, 2);
  G.NumRegs = 3;
  G.AllowCas = Pick(0, 1) == 0;
  G.AllowBranch = !G.AllowLoop;
  G.LoopTripCount = 2;
  G.ExclusiveNaWriters = true;
  G.AcqRelPercent = 50;
  G.CasWeight = 2;
  G.RedundancyPercent = 35;
  G.LoopInvariantLoad = true;
  G.PrintLoadedRegs = true;
  G.MpSkeletonPercent = 60;
  G.FenceMpPercent = 50;
  G.FencePercent = 12;
  G.ReorderBaitPercent = 40;
  return G;
}

bool buildVerify(std::uint64_t Seed, const std::string &CorpusDir,
                 Inputs &Out, std::string &Err) {
  std::vector<Item> Corpus;
  for (const std::string &Path : listCorpusFiles(CorpusDir)) {
    Clock::time_point T0 = Clock::now();
    std::optional<CorpusEntry> E = loadCorpusEntry(Path, Err);
    Out.ParseS += since(T0);
    if (!E) {
      Err = Path + ": " + Err;
      return false;
    }
    Item It;
    It.Name = "corpus:" + E->Name;
    It.Source = std::move(E->Prog);
    It.Pipeline = std::move(E->Pipeline);
    It.Want = E->ExpectFail ? Expect::Fails : Expect::Holds;
    It.Promises = true;
    Corpus.push_back(std::move(It));
  }
  if (Corpus.empty()) {
    Err = "no corpus reproducers under " + CorpusDir;
    return false;
  }

  const std::vector<std::string> &Passes = verifiedPassNames();
  // Spread the corpus evenly so a run that covers part of the input set
  // still checks known failures.
  const unsigned Stride = VerifyRandomItems / Corpus.size();
  std::size_t NextCorpus = 0;
  for (unsigned I = 0; I < VerifyRandomItems; ++I) {
    if (I % Stride == 0 && NextCorpus < Corpus.size())
      Out.Items.push_back(std::move(Corpus[NextCorpus++]));

    // The program of slot I is the same for every seed; the seed draws
    // its pipeline. Random programs' exploration cost is heavy-tailed, so
    // letting the seed redraw them would move every timing by more than
    // any bound a regression check could use.
    std::mt19937_64 ProgRng(splitmix64(VerifyCatalogueSeed + I));
    std::mt19937_64 Rng(splitmix64(Seed * 1'000'003 + I));
    Item It;
    It.Name = "rand#" + std::to_string(I);
    It.Want = Expect::Holds;
    It.Promises = true;
    RandomProgramConfig G = verifyProgramConfig(ProgRng);
    if (!generateParsed([&G] { return generateRandomProgram(G); }, Out,
                        It.Source, Err))
      return false;
    std::uniform_int_distribution<std::size_t> PickPass(0, Passes.size() - 1);
    unsigned Len = std::uniform_int_distribution<unsigned>(1, 3)(Rng);
    for (unsigned K = 0; K < Len; ++K)
      It.Pipeline.push_back(Passes[PickPass(Rng)]);
    Out.Items.push_back(std::move(It));
  }
  return true;
}

} // namespace

std::optional<Workload> parseWorkload(const std::string &Name) {
  for (Workload W : {Workload::ScaleExplore, Workload::ScaleParallel,
                     Workload::VerifyPromises})
    if (Name == workloadName(W))
      return W;
  return std::nullopt;
}

const char *workloadName(Workload W) {
  switch (W) {
  case Workload::ScaleExplore:
    return "scale_explore";
  case Workload::ScaleParallel:
    return "scale_parallel";
  case Workload::VerifyPromises:
    return "verify_promises";
  }
  return "?";
}

bool buildInputs(Workload W, std::uint64_t Seed, unsigned Jobs,
                 const std::string &CorpusDir, Inputs &Out, std::string &Err) {
  Out = Inputs();
  if (W == Workload::VerifyPromises) {
    Out.Explore.MaxNodes = VerifyMaxNodes;
    return buildVerify(Seed, CorpusDir, Out, Err);
  }
  Out.Explore.Jobs = Jobs;
  return buildScale(Seed, Out, Err);
}

std::uint64_t behaviorFingerprint(const BehaviorSet &B) {
  std::uint64_t H = 0xcbf29ce484222325ull; // FNV-1a
  auto Mix = [&H](std::uint64_t V) {
    for (int Byte = 0; Byte < 8; ++Byte) {
      H ^= (V >> (8 * Byte)) & 0xff;
      H *= 0x100000001b3ull;
    }
  };
  Mix(B.Exhausted);
  for (const std::set<Trace> *S : {&B.Done, &B.Abort, &B.Prefixes, &B.Blocked}) {
    Mix(S->size());
    for (const Trace &T : *S) {
      Mix(T.size());
      for (Val V : T)
        Mix(static_cast<std::uint32_t>(V));
    }
  }
  return H;
}

} // namespace perfbench
