//===- explore/ParallelBfs.h - Work-stealing parallel BFS -------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel search engine: a worker pool expands nodes from
/// per-worker deques with stealing, deduplicating through a sharded,
/// striped-lock visited table (explore/Sharded.h). The explorer (nodes are
/// (state entry, trace entry) id pairs) and the race checker (nodes are
/// state entries, explore/StateGraph.h) instantiate it. With one worker
/// the search runs on the calling thread, spawns nothing, and keeps a
/// single unsharded visited table.
///
/// Guarantees:
///  * each unique node (under HashT/operator==) is visited exactly once;
///  * at most MaxNodes nodes are ever visited — the (MaxNodes+1)-th
///    insertion attempt trips the bound, after which workers drain their
///    queues without expanding;
///  * the visit count is deterministic: min(|reachable graph|, MaxNodes).
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_EXPLORE_PARALLELBFS_H
#define PSOPT_EXPLORE_PARALLELBFS_H

#include "explore/Sharded.h"
#include "support/Statistic.h"
#include "support/Trace.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>
#include <vector>

namespace psopt {

namespace detail {
/// The parallel.steals / parallel.idle_waits counters shared by every
/// ParallelBfs instantiation (defined in ParallelBfs.cpp).
Statistic &numBfsSteals();
Statistic &numBfsIdleWaits();
} // namespace detail

template <typename NodeT, typename HashT> class ParallelBfs {
public:
  struct Stats {
    std::uint64_t Expanded = 0; ///< unique nodes visited
    bool NodeBoundHit = false;  ///< MaxNodes tripped (search incomplete)
  };

  ParallelBfs(unsigned Jobs, std::uint64_t MaxNodes)
      : Jobs(Jobs < 1 ? 1 : Jobs), MaxNodes(MaxNodes),
        Shards(this->Jobs), Queues(this->Jobs) {}

  unsigned jobs() const { return Jobs; }

  /// Requests early termination (e.g. a race witness was found): pending
  /// nodes are drained but no further node is visited. The verdict of a
  /// stopped search is decided by the caller; the node bound is not
  /// considered hit.
  void stop() { Stop.store(true, std::memory_order_relaxed); }

  /// Runs the search from \p Root. \p Visit is invoked exactly once per
  /// unique node, concurrently from up to Jobs workers, as
  ///   Visit(WorkerId, const NodeT &, Push)
  /// where Push(NodeT &&) enqueues a child; duplicates are filtered at
  /// expansion time. Single-shot: construct a fresh engine per search.
  template <typename VisitT> Stats run(NodeT Root, VisitT &&Visit) {
    pushWork(0, std::move(Root));
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
  struct VisitedShard {
    std::mutex M;
    std::unordered_set<NodeT, HashT> Set;
  };

  struct WorkQueue {
    std::mutex M;
    std::deque<NodeT> D;
  };

  void pushWork(unsigned W, NodeT &&N) {
    Pending.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(Queues[W].M);
    Queues[W].D.push_back(std::move(N));
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

  /// Claims one of the MaxNodes visit tickets; failure trips the bound.
  bool claimTicket() {
    std::uint64_t Cur = Claimed.load(std::memory_order_relaxed);
    while (Cur < MaxNodes)
      if (Claimed.compare_exchange_weak(Cur, Cur + 1,
                                        std::memory_order_relaxed))
        return true;
    return false;
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

    auto Push = [this, W](NodeT &&N) { pushWork(W, std::move(N)); };
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
      expand(W, std::move(*N), Visit, Push);
      Pending.fetch_sub(1, std::memory_order_release);
    }
    detail::numBfsSteals() += Steals;
    detail::numBfsIdleWaits() += IdleWaits;
    Span.arg("worker", W)
        .arg("popped", Popped)
        .arg("steals", Steals)
        .arg("idle_waits", IdleWaits);
  }

  template <typename VisitT, typename PushT>
  void expand(unsigned W, NodeT &&N, VisitT &Visit, PushT &Push) {
    if (Stop.load(std::memory_order_relaxed))
      return; // draining after a bound trip or stop(): don't expand
    VisitedShard &S = Shards.forHash(HashT{}(N));
    const NodeT *Ref;
    {
      std::lock_guard<std::mutex> Lock(S.M);
      auto [It, IsNew] = S.Set.insert(std::move(N));
      if (!IsNew)
        return;
      if (!claimTicket()) {
        // Over budget: leave the table exactly MaxNodes strong.
        S.Set.erase(It);
        NodeBound.store(true, std::memory_order_relaxed);
        Stop.store(true, std::memory_order_relaxed);
        return;
      }
      // Element addresses in unordered_set survive rehashing, so the
      // reference stays valid outside the lock; nodes are never erased
      // after a successful claim.
      Ref = &*It;
    }
    Visit(W, *Ref, Push);
  }

  const unsigned Jobs;
  const std::uint64_t MaxNodes;
  Sharded<VisitedShard> Shards;
  std::vector<WorkQueue> Queues;
  std::atomic<std::uint64_t> Pending{0};
  std::atomic<std::uint64_t> Claimed{0};
  std::atomic<bool> Stop{false};
  std::atomic<bool> NodeBound{false};
};

} // namespace psopt

#endif // PSOPT_EXPLORE_PARALLELBFS_H
