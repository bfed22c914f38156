//===- fuzz/Corpus.cpp - Replayable regression corpus ---------------------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"

#include "explore/Refinement.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "lang/Validate.h"
#include "opt/Pass.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace psopt {

static std::string joinPipeline(const std::vector<std::string> &Pipeline) {
  std::string Out;
  for (std::size_t I = 0; I < Pipeline.size(); ++I) {
    if (I)
      Out += ",";
    Out += Pipeline[I];
  }
  return Out;
}

std::string renderCorpusEntry(const CorpusEntry &E) {
  std::string Out = "# psopt-fuzz reproducer v1\n";
  if (!E.Name.empty())
    Out += "# name: " + E.Name + "\n";
  Out += "# seed: " + std::to_string(E.Seed) + "\n";
  Out += "# pipeline: " + joinPipeline(E.Pipeline) + "\n";
  Out += std::string("# promises: ") + (E.Promises ? "on" : "off") + "\n";
  Out += std::string("# expect: ") + (E.ExpectFail ? "fail" : "hold") + "\n";
  if (!E.Note.empty())
    Out += "# note: " + E.Note + "\n";
  Out += printProgram(E.Prog);
  return Out;
}

std::optional<CorpusEntry> parseCorpusEntry(const std::string &Text,
                                            std::string &Error) {
  CorpusEntry E;
  bool SawMagic = false, SawPipeline = false, SawExpect = false;

  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("#", 0) != 0)
      break; // program text begins
    std::string Body = Line.substr(1);
    while (!Body.empty() && Body.front() == ' ')
      Body.erase(Body.begin());
    if (Body.rfind("psopt-fuzz reproducer", 0) == 0) {
      SawMagic = true;
      continue;
    }
    std::size_t Colon = Body.find(": ");
    if (Colon == std::string::npos)
      continue; // free-form comment
    std::string Key = Body.substr(0, Colon);
    std::string Val = Body.substr(Colon + 2);
    if (Key == "name") {
      E.Name = Val;
    } else if (Key == "seed") {
      try {
        E.Seed = std::stoull(Val);
      } catch (const std::exception &) {
        Error = "seed is not a number: '" + Val + "'";
        return std::nullopt;
      }
    } else if (Key == "pipeline") {
      std::stringstream SS(Val);
      std::string Name;
      while (std::getline(SS, Name, ','))
        if (!Name.empty())
          E.Pipeline.push_back(Name);
      SawPipeline = true;
    } else if (Key == "promises") {
      E.Promises = Val == "on";
    } else if (Key == "expect") {
      if (Val != "fail" && Val != "hold") {
        Error = "expect must be 'fail' or 'hold', got '" + Val + "'";
        return std::nullopt;
      }
      E.ExpectFail = Val == "fail";
      SawExpect = true;
    } else if (Key == "note") {
      E.Note = Val;
    } else {
      Error = "unknown reproducer metadata key '" + Key + "'";
      return std::nullopt;
    }
  }

  if (!SawMagic) {
    Error = "missing '# psopt-fuzz reproducer' header";
    return std::nullopt;
  }
  if (!SawPipeline || !SawExpect) {
    Error = "reproducer must declare 'pipeline' and 'expect'";
    return std::nullopt;
  }

  // The metadata lines are ordinary comments to the program parser, so the
  // whole file is the program source.
  ParseResult R = parseProgram(Text);
  if (!R.ok()) {
    Error = "line " + std::to_string(R.ErrorLine) + ": " + R.Error;
    return std::nullopt;
  }
  E.Prog = std::move(*R.Prog);
  return E;
}

std::optional<CorpusEntry> loadCorpusEntry(const std::string &Path,
                                           std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot open " + Path;
    return std::nullopt;
  }
  std::stringstream SS;
  SS << In.rdbuf();
  std::optional<CorpusEntry> E = parseCorpusEntry(SS.str(), Error);
  if (E && E->Name.empty())
    E->Name = std::filesystem::path(Path).stem().string();
  if (!E)
    Error = Path + ": " + Error;
  return E;
}

bool storeCorpusEntry(const CorpusEntry &E, const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << renderCorpusEntry(E);
  return static_cast<bool>(Out);
}

std::vector<std::string> listCorpusFiles(const std::string &Dir) {
  std::vector<std::string> Files;
  std::error_code Ec;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, Ec)) {
    if (!Entry.is_regular_file())
      continue;
    if (Entry.path().extension() == ".rtl")
      Files.push_back(Entry.path().string());
  }
  std::sort(Files.begin(), Files.end());
  return Files;
}

ReplayVerdict replayCorpusEntry(const CorpusEntry &E, const ExploreConfig &C,
                                bool CertCache) {
  ReplayVerdict V;

  PipelineResult Opt = runPassPipeline(E.Pipeline, E.Prog);
  if (Opt.UnknownPass) {
    V.Detail = "unknown pass '" + *Opt.UnknownPass + "'";
    return V;
  }
  const Program &Tgt = Opt.Prog;
  if (!isValidProgram(Tgt)) {
    V.Detail = "pipeline produced an invalid program";
    return V;
  }

  StepConfig SC;
  SC.EnablePromises = E.Promises;
  SC.EnableCertCache = CertCache;

  BehaviorSet SrcB = exploreInterleaving(E.Prog, SC, C);
  BehaviorSet TgtB = exploreInterleaving(Tgt, SC, C);
  if (!SrcB.Exhausted || !TgtB.Exhausted) {
    V.Detail = "exploration bound tripped; verdict not exact";
    return V;
  }

  RefinementResult R = checkRefinement(TgtB, SrcB);
  V.RefinementHolds = R.Holds;
  V.Match = R.Holds != E.ExpectFail;
  V.Detail = R.Holds ? "refinement holds" : "counterexample " +
                                                R.CounterExample;
  return V;
}

} // namespace psopt
