//===- explore/ParallelBfs.h - Work-stealing parallel BFS -------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel search engine: a worker pool expands nodes from
/// per-worker deques with stealing. The pool keeps no visited table: each
/// search decides a node's first visit by marking it in its state graph
/// (StateGraph::reach, explore/StateGraph.h). The explorer (nodes are
/// (state entry, trace entry) id pairs) and the race checker (nodes are
/// state entries) instantiate it. With one worker the search runs on the
/// calling thread and spawns nothing.
///
/// Guarantees, given a visitor that expands a node only on its first
/// visit and only after claim() succeeds:
///  * at most MaxNodes nodes are ever expanded — the (MaxNodes+1)-th
///    claim trips the bound, after which workers drain their queues;
///  * the expansion count is deterministic: min(|reachable graph|,
///    MaxNodes).
///
/// Per node a worker writes shared memory only where the search needs it
/// (DESIGN.md §7): its own queue's lock, the Claimed count, and at most
/// one update of the pending count, since a node's children are queued
/// together after its visit.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_EXPLORE_PARALLELBFS_H
#define PSOPT_EXPLORE_PARALLELBFS_H

#include "support/Statistic.h"
#include "support/Trace.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace psopt {

namespace detail {
/// The parallel.steals / parallel.idle_waits counters shared by every
/// ParallelBfs instantiation (defined in ParallelBfs.cpp).
Statistic &numBfsSteals();
Statistic &numBfsIdleWaits();
} // namespace detail

template <typename NodeT> class ParallelBfs {
public:
  struct Stats {
    std::uint64_t Expanded = 0; ///< successful claim()s: nodes expanded
    bool NodeBoundHit = false;  ///< MaxNodes tripped (search incomplete)
  };

  ParallelBfs(unsigned Jobs, std::uint64_t MaxNodes)
      : Jobs(Jobs < 1 ? 1 : Jobs), MaxNodes(MaxNodes), Queues(this->Jobs) {}

  unsigned jobs() const { return Jobs; }

  /// Requests early termination (e.g. a race witness was found): pending
  /// nodes are drained but no further node is visited. The verdict of a
  /// stopped search is decided by the caller; the node bound is not
  /// considered hit.
  void stop() { Stop.store(true, std::memory_order_relaxed); }

  /// Claims one of the MaxNodes expansions for a node's first visit; the
  /// visitor expands the node only on success. The (MaxNodes+1)-th claim
  /// trips the bound and stops the search.
  bool claim() {
    std::uint64_t Cur = Claimed.load(std::memory_order_relaxed);
    while (Cur < MaxNodes)
      if (Claimed.compare_exchange_weak(Cur, Cur + 1,
                                        std::memory_order_relaxed))
        return true;
    NodeBound.store(true, std::memory_order_relaxed);
    Stop.store(true, std::memory_order_relaxed);
    return false;
  }

  /// Runs the search from \p Root. \p Visit is invoked for every popped
  /// node until the search stops, concurrently from up to Jobs workers, as
  ///   Visit(WorkerId, const NodeT &, Push)
  /// where Push(NodeT &&) adds a child, queued once Visit returns.
  /// Single-shot: construct a fresh engine per search.
  template <typename VisitT> Stats run(NodeT Root, VisitT &&Visit) {
    Pending.store(1, std::memory_order_relaxed);
    Queues[0].D.push_back(std::move(Root));
    // The calling thread doubles as worker 0; only Jobs - 1 threads spawn.
    std::vector<std::thread> Workers;
    Workers.reserve(Jobs - 1);
    for (unsigned W = 1; W < Jobs; ++W)
      Workers.emplace_back([this, W, &Visit] { workerLoop(W, Visit); });
    workerLoop(0, Visit);
    for (std::thread &T : Workers)
      T.join();
    searchFrontierGauge().set(0);
    searchVisitedGauge().set(Claimed.load(std::memory_order_relaxed));
    Stats S;
    S.Expanded = Claimed.load(std::memory_order_relaxed);
    S.NodeBoundHit = NodeBound.load(std::memory_order_relaxed);
    return S;
  }

private:
  /// The size of a cache line: every line a worker writes in the pool is
  /// its own, so one worker's write does not evict a line others read.
  static constexpr std::size_t LineSize = 64;

  struct alignas(LineSize) WorkQueue {
    std::mutex M;
    std::deque<NodeT> D;
  };

  /// Queues the children \p Kids of a node worker \p W visited, all under
  /// one lock, and settles the pending count with at most one update:
  /// the node was counted until now and each child is counted from now,
  /// so k children add k - 1. The count is raised before the children are
  /// visible, so it never reaches zero while work remains.
  void finishNode(unsigned W, std::vector<NodeT> &Kids) {
    if (Kids.empty()) {
      Pending.fetch_sub(1, std::memory_order_release);
      return;
    }
    if (Kids.size() > 1)
      Pending.fetch_add(Kids.size() - 1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> Lock(Queues[W].M);
      for (NodeT &K : Kids)
        Queues[W].D.push_back(std::move(K));
    }
    Kids.clear();
  }

  /// Pops from the owner's tail, else steals from a victim's head
  /// (setting \p Stolen so the worker's telemetry can count steals).
  std::optional<NodeT> popWork(unsigned W, bool &Stolen) {
    Stolen = false;
    {
      WorkQueue &Q = Queues[W];
      std::lock_guard<std::mutex> Lock(Q.M);
      if (!Q.D.empty()) {
        NodeT N = std::move(Q.D.back());
        Q.D.pop_back();
        return N;
      }
    }
    for (unsigned I = 1; I < Jobs; ++I) {
      WorkQueue &Q = Queues[(W + I) % Jobs];
      std::lock_guard<std::mutex> Lock(Q.M);
      if (!Q.D.empty()) {
        NodeT N = std::move(Q.D.front());
        Q.D.pop_front();
        Stolen = true;
        return N;
      }
    }
    return std::nullopt;
  }

  template <typename VisitT> void workerLoop(unsigned W, VisitT &Visit) {
    // Per-worker telemetry: one span covering the whole loop, with the
    // worker's expansion/steal/idle tallies as args — the raw material
    // for the "why doesn't this scale" question (DESIGN.md §14). Spawned
    // workers name their trace track; worker 0 is the calling thread and
    // keeps its name.
    if (W > 0 && traceEnabled())
      traceSetThreadName("worker-" + std::to_string(W));
    TraceSpan Span("explore", "worker");
    std::uint64_t Popped = 0, Steals = 0, IdleWaits = 0;

    // A visit's children are buffered and queued once it returns.
    std::vector<NodeT> Kids;
    auto Push = [&Kids](NodeT &&N) { Kids.push_back(std::move(N)); };
    unsigned IdleSpins = 0;
    for (;;) {
      bool Stolen = false;
      std::optional<NodeT> N = popWork(W, Stolen);
      if (!N) {
        if (Pending.load(std::memory_order_acquire) == 0)
          break;
        // Work exists (or is in flight) but not reachable yet: back off.
        if (++IdleSpins < 64) {
          std::this_thread::yield();
        } else {
          ++IdleWaits;
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        continue;
      }
      IdleSpins = 0;
      Steals += Stolen;
      // Publish live frontier/visited levels for the --progress heartbeat
      // at a coarse cadence (one relaxed store each).
      if ((++Popped & 255) == 0) {
        searchFrontierGauge().set(Pending.load(std::memory_order_relaxed));
        searchVisitedGauge().set(Claimed.load(std::memory_order_relaxed));
      }
      // Draining after a bound trip or stop(): don't visit.
      if (!Stop.load(std::memory_order_relaxed))
        Visit(W, *N, Push);
      finishNode(W, Kids);
    }
    detail::numBfsSteals() += Steals;
    detail::numBfsIdleWaits() += IdleWaits;
    Span.arg("worker", W)
        .arg("popped", Popped)
        .arg("steals", Steals)
        .arg("idle_waits", IdleWaits);
  }

  const unsigned Jobs;
  const std::uint64_t MaxNodes;
  std::vector<WorkQueue> Queues;
  /// Nodes queued or being visited; written by a node with no child or
  /// several. Alone on its line, like Claimed.
  alignas(LineSize) std::atomic<std::uint64_t> Pending{0};
  /// Expansions claimed; written once per expanded node.
  alignas(LineSize) std::atomic<std::uint64_t> Claimed{0};
  /// Read once per node and written only when the search stops, so its
  /// line stays shared between the workers' caches.
  alignas(LineSize) std::atomic<bool> Stop{false};
  std::atomic<bool> NodeBound{false};
};

} // namespace psopt

#endif // PSOPT_EXPLORE_PARALLELBFS_H
