// Run-wide AEC state: the per-lock manager records (conceptually resident
// on each lock's manager node — all handlers that touch a lock's record run
// as services on that node, so the *timing* is distributed even though the
// storage is shared), the barrier manager's episode state, and the per-page
// home map.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/params.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "locks/strategy.hpp"
#include "policy/lap.hpp"
#include "policy/policy.hpp"

namespace aecdsm::aec {

/// Manager-side record of one lock.
struct LockRecord {
  LockRecord(const SystemParams& p, double affinity_threshold)
      : lap(p.num_procs, p.update_set_size, affinity_threshold),
        update_set(static_cast<std::size_t>(p.num_procs)) {}

  bool taken = false;
  ProcId owner = kNoProc;          ///< current owner while taken
  ProcId last_releaser = kNoProc;  ///< kNoProc right after a barrier (chain reset)
  std::uint32_t counter = 0;       ///< acquire counter; ++ per grant
  /// Acquisition counter of the last release — the counter its push carries.
  /// Grants ship it so acquirers can tell the announced push from a stale
  /// one left over from an earlier ownership of the same processor.
  std::uint32_t last_release_counter = 0;
  std::uint32_t epoch = 0;         ///< barrier episode of the last chain reset

  policy::LockLap lap;

  /// U_l(p) as computed at p's last grant (shipped in the grant reply; the
  /// releaser pushes its merged diffs to this set).
  std::vector<std::vector<ProcId>> update_set;

  /// Cumulative, per barrier step: which processor holds the freshest
  /// merged diff of each page modified under this lock. Drives both the
  /// grant-time invalidation list and the barrier diff routing.
  std::map<PageId, ProcId> diff_holder;

  // Crash-failover dedup state, populated only when a crash schedule
  // exists. Requests and releases then carry a per-(node, lock) monotonic
  // serial; the manager records the serial pending per requester, the
  // serial echoed at its grant, and the serial of its last processed
  // release, so replayed or bounced duplicates are recognized and dropped
  // (or answered idempotently) instead of corrupting the FIFO state.
  std::map<ProcId, std::uint64_t> req_serial;
  std::map<ProcId, std::uint64_t> granted_serial;
  std::map<ProcId, std::uint64_t> released_serial;

  /// hier strategy: consecutive grants that skipped a cross-cohort FIFO
  /// head (locks::pick_waiter's fairness budget).
  int hier_streak = 0;
};

/// Per-lock information a processor reports on barrier arrival: the acquire
/// counter of its last ownership and the pages its merged diffs cover.
/// Routing diffs from these lists (highest counter wins per page) makes the
/// barrier independent of release messages still in flight to lock managers.
struct ArrivalLockInfo {
  LockId lock = 0;
  std::uint32_t counter = 0;
  std::vector<PageId> pages;
};

/// Barrier manager episode state (lives on node 0).
struct BarrierEpisode {
  struct Arrival {
    bool here = false;
    std::vector<ArrivalLockInfo> lock_info;
    std::vector<PageId> outside_pages;   ///< pages this proc wrote outside CSes
    std::vector<std::uint8_t> valid_map; ///< bitmap of pages valid at arrival
  };
  std::vector<Arrival> arrival;
  int arrived = 0;
  int completed = 0;
  std::uint32_t episode = 0;
};

class AecProtocol;

struct AecShared {
  AecShared(const SystemParams& p, policy::ConsistencyPolicy pol)
      : params(p),
        policy(std::move(pol)),
        strategy(aecdsm::locks::parse_strategy(p.locks.strategy)),
        locks(static_cast<std::size_t>(p.num_procs)),
        lockstats(static_cast<std::size_t>(p.num_procs)),
        home(0) {}

  const SystemParams params;  ///< by value: outlives the Machine for post-run reads
  const policy::ConsistencyPolicy policy;
  // The lock-record shards below are also named `locks`, so the strategy
  // namespace needs full qualification inside this class.
  const aecdsm::locks::Strategy strategy;  ///< locks.strategy, parsed once

  /// Collect LockMgrStats? Off for the default central/no-stats config so
  /// artifacts stay byte-identical to pre-locks baselines.
  bool collect_lock_stats() const {
    return strategy != aecdsm::locks::Strategy::kCentral ||
           params.locks.collect_stats;
  }

  /// Node protocol instances, for engine-side cross-node handler access.
  std::vector<AecProtocol*> nodes;

  /// Lock records, sharded by manager node (lock % nprocs). Every handler
  /// that touches a lock's record runs as a service on its manager. (The
  /// cross-shard exceptions are the barrier completion's chain reset and
  /// the mcs direct handoff.)
  std::vector<std::map<LockId, LockRecord>> locks;

  /// Strategy counters, sharded like the lock records: manager-side paths
  /// update the manager node's slot, the mcs direct handoff updates the
  /// handler node's slot. run_app sums the shards. Empty of any nonzero
  /// value unless collect_lock_stats().
  std::vector<LockMgrStats> lockstats;

  BarrierEpisode barrier;

  /// Current home node per page (initially page % nprocs); reassigned by
  /// the barrier manager and distributed with the episode directives.
  std::vector<ProcId> home;

  LockRecord& lock(LockId l) {
    return lock(l, static_cast<ProcId>(l % static_cast<LockId>(params.num_procs)));
  }

  /// Record lookup by current manager: after a crash failover the record
  /// lives in the re-elected manager's shard, not the static `l % nprocs`
  /// one. Handlers pass Machine::lock_manager(l).
  LockRecord& lock(LockId l, ProcId mgr) {
    std::map<LockId, LockRecord>& shard = locks[static_cast<std::size_t>(mgr)];
    auto it = shard.find(l);
    if (it == shard.end()) {
      // Disabling the affinity technique is modeled as an unreachable
      // inclusion threshold (the affinity set is then always empty).
      const double threshold =
          policy.lap_affinity ? params.affinity_threshold : 1e30;
      it = shard.emplace(l, LockRecord(params, threshold)).first;
    }
    return it->second;
  }

  /// Find-only variant (election-time reads): nullptr when the record was
  /// never created in `mgr`'s shard.
  LockRecord* find_lock(LockId l, ProcId mgr) {
    auto& shard = locks[static_cast<std::size_t>(mgr)];
    auto it = shard.find(l);
    return it == shard.end() ? nullptr : &it->second;
  }

  /// Crash failover: move lock `l`'s record between manager shards. Custody
  /// (affinity history, diff holders, owner) survives the fail-stop window
  /// because the storage is shared host memory.
  void migrate_lock(LockId l, ProcId from, ProcId to) {
    auto node = locks[static_cast<std::size_t>(from)].extract(l);
    if (!node.empty()) locks[static_cast<std::size_t>(to)].insert(std::move(node));
  }
};

}  // namespace aecdsm::aec
