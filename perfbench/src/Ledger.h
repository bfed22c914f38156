//===- perfbench/src/Ledger.h - Item execution and layer ledger -*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark item through psopt's public API and checks its
/// answer. In a traced run the same calls are wrapped in TraceSpans and
/// timed from outside, the interleaving machine is swapped for a subclass
/// that times Machine::successors, and the layer times land in a Ledger.
/// Counts come from the Statistic registry as per-item StatisticSnapshot
/// deltas.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_PERFBENCH_LEDGER_H
#define PSOPT_PERFBENCH_LEDGER_H

#include "Workload.h"

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Layer times and sizes accumulated over a traced pass. Times are
/// seconds; with Jobs > 1, explore and successors times are summed over
/// worker threads (CPU seconds), so successors + self still add up to
/// explore.
struct Ledger {
  std::uint64_t Items = 0;
  double ExploreS = 0;     ///< busy seconds inside explore()
  double ExploreWallS = 0; ///< wall seconds inside explore()
  double ExploreCpuS = 0;  ///< process CPU seconds inside explore()
  double SuccessorsS = 0;  ///< inside Machine::successors
  std::uint64_t SuccessorsCalls = 0;
  double MachineInitS = 0; ///< Machine constructors
  double OptS = 0;         ///< Pass::run calls
  double FootprintS = 0;   ///< FootprintAnalysis constructors
  double RefineS = 0;      ///< checkRefinement over BehaviorSets
  std::uint64_t RefineCalls = 0;
  std::uint64_t Prefixes = 0;     ///< summed |BehaviorSet::Prefixes|
  std::uint64_t UniqueStates = 0; ///< summed BehaviorSet::UniqueStates
  double HeapGrowthB = 0;         ///< summed peak heap growth per explore
  std::uint64_t InstrsBefore = 0, InstrsAfter = 0; ///< non-skip, around pipelines
  /// Statistic registry deltas of the traced items, keyed "group.name".
  std::map<std::string, std::uint64_t> Counters;

  std::uint64_t count(const std::string &Key) const {
    auto It = Counters.find(Key);
    return It == Counters.end() ? 0 : It->second;
  }
};

/// The counts that must repeat exactly when a jobs=1 item is run again.
constexpr std::size_t NumItemCounts = 6;
using ItemCounts = std::array<std::uint64_t, NumItemCounts>;
extern const char *const ItemCountNames[NumItemCounts];

/// The result of one item.
struct ItemOutcome {
  double WallS = 0;
  bool Undecided = false; ///< a node, output or certification bound cut it
  bool Wrong = false;     ///< the answer contradicts the known answer
  std::string Detail;     ///< why it is wrong
  ItemCounts Counts{};
  std::optional<psopt::BehaviorSet> Behaviors; ///< scale items only
};

/// Runs \p It under \p EC. \p L is null in untraced runs.
ItemOutcome runItem(const Item &It, const psopt::ExploreConfig &EC,
                    Ledger *L);

/// One reported number.
struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  std::string Note; ///< printed beside the value: base, absence reason
};

/// Derives the per-layer metrics from a traced pass.
std::vector<Metric> layerMetrics(const Ledger &L, unsigned Jobs);

} // namespace perfbench

#endif // PSOPT_PERFBENCH_LEDGER_H
