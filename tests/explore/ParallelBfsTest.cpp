//===- tests/explore/ParallelBfsTest.cpp - The worker pool on its own ----===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// ParallelBfs (explore/ParallelBfs.h) driven over synthetic graphs, with
/// no machine behind it: a long chain, a wide tree and a layered DAG with
/// many joins, whose nodes have no child, one child or many. At every
/// worker count the pool must return, expand each reachable node exactly
/// once, and report min(|graph|, MaxNodes) expansions with NodeBoundHit
/// set exactly when the bound cut the search. The pool settles its
/// pending-work count once per node; a count that misses a childless
/// node never reaches zero, and one that misses children ends the search
/// early, so both show here as a hang or a missed node.
///
//===----------------------------------------------------------------------===//

#include "explore/ParallelBfs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

namespace psopt {
namespace {

/// Adjacency lists; node 0 is the root.
using Graph = std::vector<std::vector<std::uint32_t>>;

Graph chain(std::uint32_t N) {
  Graph G(N);
  for (std::uint32_t I = 0; I + 1 < N; ++I)
    G[I].push_back(I + 1);
  return G;
}

/// A root with \p Width children, each with \p Leaves childless children.
Graph wideTree(std::uint32_t Width, std::uint32_t Leaves) {
  Graph G(1 + Width + Width * Leaves);
  std::uint32_t Next = 1 + Width;
  for (std::uint32_t I = 1; I <= Width; ++I) {
    G[0].push_back(I);
    for (std::uint32_t L = 0; L < Leaves; ++L)
      G[I].push_back(Next++);
  }
  return G;
}

/// \p Layers layers of \p Width nodes; a node links into the next layer
/// with three, one or no edges, so most nodes are reached along several
/// paths, and some nodes are unreachable from the root.
Graph layeredDag(std::uint32_t Layers, std::uint32_t Width) {
  Graph G(Layers * Width);
  for (std::uint32_t L = 0; L + 1 < Layers; ++L)
    for (std::uint32_t J = 0; J < Width; ++J) {
      std::vector<std::uint32_t> &Out = G[L * Width + J];
      std::uint32_t Next = (L + 1) * Width;
      switch (J % 4) {
      case 0:
      case 1:
        Out = {Next + J, Next + (J + 1) % Width, Next + (J * 7 + 3) % Width};
        break;
      case 2:
        Out = {Next + (J + 5) % Width};
        break;
      default:
        break; // childless
      }
    }
  return G;
}

/// The nodes reachable from the root.
std::vector<bool> reachable(const Graph &G) {
  std::vector<bool> Seen(G.size());
  std::vector<std::uint32_t> Stack{0};
  Seen[0] = true;
  while (!Stack.empty()) {
    std::uint32_t N = Stack.back();
    Stack.pop_back();
    for (std::uint32_t C : G[N])
      if (!Seen[C]) {
        Seen[C] = true;
        Stack.push_back(C);
      }
  }
  return Seen;
}

struct Outcome {
  ParallelBfs<std::uint32_t>::Stats Stats;
  std::vector<unsigned> Expansions; ///< per node
};

/// Searches \p G with the pool, expanding a node on its first visit once
/// claim() grants it. A run that does not return within a minute aborts
/// the test binary: the pool's termination count is off.
Outcome search(const Graph &G, unsigned Jobs, std::uint64_t MaxNodes) {
  std::vector<std::atomic<bool>> Seen(G.size());
  std::vector<std::atomic<unsigned>> Count(G.size());
  ParallelBfs<std::uint32_t> Engine(Jobs, MaxNodes);
  auto Visit = [&](unsigned, const std::uint32_t &N, auto &&Push) {
    if (Seen[N].exchange(true, std::memory_order_relaxed) || !Engine.claim())
      return;
    Count[N].fetch_add(1, std::memory_order_relaxed);
    for (std::uint32_t C : G[N])
      Push(std::uint32_t(C));
  };

  Outcome Out;
  std::promise<void> Returned;
  std::future<void> Done = Returned.get_future();
  std::thread Runner([&] {
    Out.Stats = Engine.run(0, Visit);
    Returned.set_value();
  });
  if (Done.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    std::fprintf(stderr, "ParallelBfs::run did not return (jobs=%u)\n", Jobs);
    std::abort();
  }
  Runner.join();
  for (const std::atomic<unsigned> &C : Count)
    Out.Expansions.push_back(C.load());
  return Out;
}

struct NamedGraph {
  const char *Name;
  Graph G;
};

std::vector<NamedGraph> graphs() {
  return {{"chain", chain(10000)},
          {"wide_tree", wideTree(200, 50)},
          {"layered_dag", layeredDag(60, 120)}};
}

constexpr unsigned JobCounts[] = {1, 2, 8};

TEST(ParallelBfsTest, ExpandsEveryReachableNodeOnce) {
  for (const NamedGraph &NG : graphs()) {
    std::vector<bool> Reach = reachable(NG.G);
    std::uint64_t Size = 0;
    for (bool R : Reach)
      Size += R;
    for (unsigned Jobs : JobCounts) {
      SCOPED_TRACE(std::string(NG.Name) + " jobs=" + std::to_string(Jobs));
      Outcome O = search(NG.G, Jobs, Size + 1000);
      EXPECT_EQ(O.Stats.Expanded, Size);
      EXPECT_FALSE(O.Stats.NodeBoundHit);
      std::uint64_t Wrong = 0;
      for (std::size_t N = 0; N < NG.G.size(); ++N)
        Wrong += O.Expansions[N] != (Reach[N] ? 1u : 0u);
      EXPECT_EQ(Wrong, 0u) << "nodes not expanded exactly once";
    }
  }
}

TEST(ParallelBfsTest, NodeBoundCutsAtMaxNodes) {
  for (const NamedGraph &NG : graphs()) {
    std::vector<bool> Reach = reachable(NG.G);
    std::uint64_t Size = 0;
    for (bool R : Reach)
      Size += R;
    for (std::uint64_t Max : {std::uint64_t(1), std::uint64_t(500), Size - 1,
                              Size, Size + 1}) {
      for (unsigned Jobs : JobCounts) {
        SCOPED_TRACE(std::string(NG.Name) + " jobs=" + std::to_string(Jobs) +
                     " max=" + std::to_string(Max));
        Outcome O = search(NG.G, Jobs, Max);
        EXPECT_EQ(O.Stats.Expanded, std::min(Size, Max));
        EXPECT_EQ(O.Stats.NodeBoundHit, Size > Max);
        std::uint64_t Total = 0, Wrong = 0;
        for (std::size_t N = 0; N < NG.G.size(); ++N) {
          Total += O.Expansions[N];
          Wrong += O.Expansions[N] > (Reach[N] ? 1u : 0u);
        }
        EXPECT_EQ(Total, O.Stats.Expanded);
        EXPECT_EQ(Wrong, 0u) << "a node expanded twice or unreachably";
      }
    }
  }
}

TEST(ParallelBfsTest, StopDrainsWithoutTrippingTheBound) {
  Graph G = layeredDag(60, 120);
  for (unsigned Jobs : JobCounts) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    std::vector<std::atomic<bool>> Seen(G.size());
    std::atomic<std::uint64_t> Visited{0};
    ParallelBfs<std::uint32_t> Engine(Jobs, 1'000'000);
    auto Stats = Engine.run(0, [&](unsigned, const std::uint32_t &N,
                                   auto &&Push) {
      if (Seen[N].exchange(true) || !Engine.claim())
        return;
      if (Visited.fetch_add(1) + 1 == 100)
        Engine.stop();
      for (std::uint32_t C : G[N])
        Push(std::uint32_t(C));
    });
    EXPECT_FALSE(Stats.NodeBoundHit);
    EXPECT_EQ(Stats.Expanded, Visited.load());
    // Visits already past their check of the stop flag still finish, so
    // only the lower end is exact.
    EXPECT_GE(Stats.Expanded, 100u);
  }
}

} // namespace
} // namespace psopt
