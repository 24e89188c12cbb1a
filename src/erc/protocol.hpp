// Munin-style eager release consistency (ERC) — the "locally-developed
// release-consistent SW-DSM" of the paper's §5.1 robustness study, and the
// update-everyone baseline its §6 contrasts AEC against ("AEC leads to much
// less communication than in Munin, since updates are only sent to the
// update set of the lock releaser, as opposed to all processors that shared
// the modified data").
//
// Protocol summary:
//  * multiple-writer pages with the usual twin/diff discipline;
//  * a static per-page directory (the page's home, page % nprocs) tracks
//    the copyset; faults fetch the page from the home, which always holds a
//    current copy (it is a member of every update);
//  * at every lock release and barrier arrival the processor flushes its
//    dirty pages: each diff goes to the home, the home applies it and
//    forwards it to the other copyset members, members acknowledge, and the
//    releaser proceeds only after all updates are acknowledged — eager
//    release consistency with its full update traffic and release stalls;
//  * locks use a static manager with a FIFO queue (grants carry no data —
//    the updates already happened); barriers are a gather/release round;
//  * the LAP predictor runs scoring-only at the lock managers, fed by the
//    same events as under AEC, completing the paper's three-protocol
//    accuracy comparison.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/bitset.hpp"
#include "common/stats.hpp"
#include "dsm/context.hpp"
#include "dsm/machine.hpp"
#include "dsm/protocol.hpp"
#include "dsm/system.hpp"
#include "locks/strategy.hpp"
#include "mem/diff.hpp"
#include "policy/engine.hpp"
#include "policy/lap.hpp"
#include "policy/policy.hpp"
#include "sim/processor.hpp"

namespace aecdsm::erc {

class ErcProtocol;

/// Run-wide ERC state: lock manager records, the per-page copysets (stored
/// with the page's home; handlers touching them run as services there), and
/// the scoring-only LAP instances.
struct ErcShared {
  ErcShared(const SystemParams& p, policy::ConsistencyPolicy pol)
      : params(p),
        policy(std::move(pol)),
        strategy(aecdsm::locks::parse_strategy(p.locks.strategy)),
        locks(static_cast<std::size_t>(p.num_procs)),
        lockstats(static_cast<std::size_t>(p.num_procs)),
        lap(static_cast<std::size_t>(p.num_procs)) {}

  const SystemParams params;
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

  std::vector<ErcProtocol*> nodes;

  struct LockRecord {
    bool taken = false;
    ProcId owner = kNoProc;
    ProcId last_releaser = kNoProc;
    /// Acquire counter (++ per grant). Unused by central ERC bookkeeping;
    /// the mcs strategy keys its successor links by the holder's tenure.
    std::uint32_t counter = 0;
    /// hier strategy: consecutive grants that skipped a cross-cohort FIFO
    /// head (locks::pick_waiter's fairness budget).
    int hier_streak = 0;
    // Crash-failover dedup state (see aec::LockRecord): pending request
    // serial per proc, serial echoed at grant, last processed release.
    std::map<ProcId, std::uint64_t> req_serial;
    std::map<ProcId, std::uint64_t> granted_serial;
    std::map<ProcId, std::uint64_t> released_serial;
  };
  /// Lock records and LAP instances, sharded by manager node (lock %
  /// nprocs): ERC's lock handling is fully centralized at the manager.
  std::vector<std::map<LockId, LockRecord>> locks;

  /// Copyset per page (bit p = processor p caches the page). DynBitset: no
  /// 64-node cap, so k x k mesh sweeps reach 256/1024 nodes.
  std::vector<DynBitset> copyset;

  /// Strategy counters, sharded like the lock records: manager-side paths
  /// update the manager node's slot, the mcs direct handoff the handler
  /// node's slot. run_app sums the shards.
  std::vector<LockMgrStats> lockstats;

  struct BarrierGather {
    int arrived = 0;
  } barrier;

  std::vector<std::map<LockId, policy::LockLap>> lap;

  LockRecord& lock(LockId l) {
    return lock(l, static_cast<ProcId>(l % static_cast<LockId>(params.num_procs)));
  }
  policy::LockLap& lap_of(LockId l) {
    return lap_of(l, static_cast<ProcId>(l % static_cast<LockId>(params.num_procs)));
  }

  /// Manager-aware lookups: after a crash failover the record and its LAP
  /// instance live in the re-elected manager's shard (handlers pass
  /// Machine::lock_manager(l)).
  LockRecord& lock(LockId l, ProcId mgr) {
    return locks[static_cast<std::size_t>(mgr)][l];
  }
  policy::LockLap& lap_of(LockId l, ProcId mgr) {
    return policy::scoring_lap(lap[static_cast<std::size_t>(mgr)], params, l);
  }
  LockRecord* find_lock(LockId l, ProcId mgr) {
    auto& shard = locks[static_cast<std::size_t>(mgr)];
    auto it = shard.find(l);
    return it == shard.end() ? nullptr : &it->second;
  }

  /// Crash failover: move the record and LAP instance between manager
  /// shards.
  void migrate_lock(LockId l, ProcId from, ProcId to) {
    auto rec = locks[static_cast<std::size_t>(from)].extract(l);
    if (!rec.empty()) locks[static_cast<std::size_t>(to)].insert(std::move(rec));
    auto lp = lap[static_cast<std::size_t>(from)].extract(l);
    if (!lp.empty()) lap[static_cast<std::size_t>(to)].insert(std::move(lp));
  }
};

class ErcProtocol : public policy::PolicyEngine {
 public:
  ErcProtocol(dsm::Machine& m, ProcId self, std::shared_ptr<ErcShared> shared);
  ~ErcProtocol() override;

  std::string name() const override { return pol_.name; }

  void on_read_fault(PageId page) override;
  void on_write_fault(PageId page) override;
  void acquire(LockId lock) override;
  void release(LockId lock) override;
  void barrier() override;
  void acquire_notice(LockId lock) override;

  const ErcShared& shared() const { return *sh_; }

  /// This node's shard of the lock-strategy counters (summed by run_app).
  LockMgrStats lockmgr_stats() const override {
    return sh_->lockstats[static_cast<std::size_t>(self_)];
  }

 private:
  ErcProtocol& peer(ProcId p) { return *sh_->nodes[static_cast<std::size_t>(p)]; }
  ProcId home_of(PageId pg) const {
    return static_cast<ProcId>(pg % static_cast<PageId>(m_.nprocs()));
  }

  /// Flush all dirty pages: diff, update the copyset through the home, and
  /// wait for every acknowledgement (the eager-RC release stall).
  void flush_updates(sim::Bucket bucket);

  /// Engine-side: the home applies an update and fans it out; the last
  /// member acknowledgement triggers the ack back to the writer.
  void home_handle_update(PageId pg, ProcId writer, const mem::Diff& diff,
                          std::uint64_t update_id);

  /// Engine-side at a member: apply the forwarded update, ack the home.
  void member_apply_update(PageId pg, ProcId home, const mem::Diff& diff,
                           std::uint64_t update_id, ProcId writer);

  /// Engine-side apply helper (frame + twin), with stats.
  void apply_update(PageId pg, const mem::Diff& diff);

  // Lock manager handlers (services on the manager's node). `mgr_at` is the
  // node the message was addressed to: when a crash failover re-elected the
  // manager meanwhile, the handler forwards one hop instead of touching a
  // shard another node owns. `serial` is the crash-failover dedup
  // serial (0 when no crash schedule exists).
  void mgr_handle_request(LockId l, ProcId requester, std::uint64_t serial,
                          ProcId mgr_at);
  void mgr_handle_release(LockId l, ProcId releaser, std::uint64_t serial,
                          ProcId mgr_at);
  void mgr_handle_notice(LockId l, ProcId p, ProcId mgr_at);
  void mgr_grant(LockId l, ProcId to);
  /// Idempotent grant (re)send from the record state (crash dedup path).
  void mgr_send_grant(LockId l, ErcShared::LockRecord& rec, ProcId to);
  void mgr_send_release_ack(LockId l, ProcId releaser, std::uint64_t serial);

  /// Engine-side at the requester: accept the grant iff it answers the
  /// outstanding request (serial echo; always accepted crash-free).
  /// `counter` is the granted tenure's acquire counter (mcs link keying).
  void recv_grant(LockId l, std::uint64_t serial, std::uint32_t counter);

  /// mcs: the manager tells the predecessor (tenure `pred_counter`) who its
  /// queue successor is, so its release can hand the lock over directly.
  void recv_mcs_link(LockId l, std::uint32_t pred_counter, ProcId succ);
  /// mcs: direct lock handoff from the releaser, bypassing the manager.
  /// Performs the manager-record bookkeeping on the successor's node;
  /// self-validates against the shared record and falls back to forwarding
  /// a plain release to the manager on mismatch.
  void recv_direct_handoff(LockId l, ProcId releaser);

  void mgr_handle_barrier_arrival();

  // Crash failover (policy::PolicyEngine hooks).
  std::vector<ProcId> lock_sharers(LockId l, ProcId crashed) override;
  void migrate_lock_state(LockId l, ProcId from, ProcId to) override;

  std::shared_ptr<ErcShared> sh_;

  std::set<PageId> dirty_set_;

  /// Pages whose home fetch is in flight, with updates that fanned out to
  /// this node meanwhile: the full-page reply would overwrite them, so they
  /// are queued and re-applied once the copy lands.
  std::set<PageId> fetching_;
  std::map<PageId, std::vector<mem::Diff>> fetch_pending_;

  bool grant_ready_ = false;
  bool barrier_release_ = false;

  // mcs strategy local state (untouched under central/hier): the acquire
  // counter of this node's current/last tenure per lock, and the successor
  // links received from the manager, keyed by the tenure they chain behind
  // (stale keys are pruned when a newer grant is accepted).
  std::map<LockId, std::uint32_t> grant_counter_;
  std::map<LockId, std::map<std::uint32_t, ProcId>> mcs_links_;

  // Crash-failover state (zero in crash-free runs): a node has at most one
  // outstanding acquire, but may hold several locks, so the tenure serial
  // used by release is per lock.
  std::uint64_t awaiting_serial_ = 0;
  std::uint64_t req_op_id_ = 0;
  std::map<LockId, std::uint64_t> cur_serial_;

  /// Outstanding update acknowledgements during a flush.
  int pending_acks_ = 0;
  std::uint64_t next_update_id_ = 1;

  /// Home-side bookkeeping of in-flight fan-outs: update id -> (writer,
  /// remaining member acks).
  struct FanOut {
    ProcId writer = kNoProc;
    int remaining = 0;
  };
  std::map<std::uint64_t, FanOut> fanouts_;
};

/// Suite factory (mirrors aec::AecSuite / tmk::TmSuite).
class ErcSuite {
 public:
  /// Runs `pol` (family kErc) on the eager-RC engine.
  explicit ErcSuite(policy::ConsistencyPolicy pol = default_policy());

  dsm::ProtocolSuite suite();
  const ErcShared* shared() const { return shared_.get(); }
  std::shared_ptr<const ErcShared> shared_handle() const { return shared_; }

  const policy::ConsistencyPolicy& policy() const { return pol_; }

 private:
  static policy::ConsistencyPolicy default_policy();

  policy::ConsistencyPolicy pol_;
  std::shared_ptr<ErcShared> shared_;
};

}  // namespace aecdsm::erc
