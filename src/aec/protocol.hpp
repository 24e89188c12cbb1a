// The Affinity Entry Consistency protocol (section 3 of the paper).
//
// One AecProtocol instance runs per node. Lock-manager and barrier-manager
// records live in AecShared; every handler that touches a manager record
// executes as a *service on the manager's node*, so management cost lands
// on the right simulated processor even though the storage is shared.
//
// Protocol summary implemented here:
//  * Locks: requests go to the static manager; the grant carries the
//    acquirer's LAP-computed update set, the last releaser, the acquire
//    counter and the cumulative (page -> freshest diff holder) map of the
//    current barrier step. Releasers diff their critical-section pages
//    (exposed, as the paper requires), merge with the chain's inherited
//    diffs and push the result to their update set (unless noLAP).
//  * While waiting for the grant, the acquirer overlaps (a) applying
//    already-received pushes to valid pages and (b) flushing outside
//    modifications into diffs (write-protecting the pages) — hidden work.
//  * Barriers: arrival lists go to the manager on node 0; outside-diff
//    creation overlaps the wait, filtered to pages other processors are
//    interested in and that have seen a request (the paper's rule; skipped
//    pages publish their diff lazily on first request). The manager routes
//    inside-CS diffs from their freshest holders to all valid copies,
//    routes write notices from outside writers, reassigns per-page homes,
//    and releases the barrier after everyone confirms.
//  * Access faults (§3.4): base reconstruction via the page's home when the
//    page was not accessed in the previous step; write-notice diffs are
//    fetched from the writers; critical-section faults fetch the chain's
//    merged diff from the holder recorded at the grant (or apply the
//    pending push). Write faults apply the twin discipline, including the
//    paper's "create the outside diff first" careful path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "aec/shared.hpp"
#include "common/stats.hpp"
#include "dsm/context.hpp"
#include "dsm/machine.hpp"
#include "dsm/protocol.hpp"
#include "mem/diff.hpp"
#include "policy/engine.hpp"
#include "sim/processor.hpp"

namespace aecdsm::aec {

class AecProtocol : public policy::PolicyEngine {
 public:
  AecProtocol(dsm::Machine& m, ProcId self, std::shared_ptr<AecShared> shared);
  ~AecProtocol() override;

  std::string name() const override;

  void on_read_fault(PageId page) override;
  void on_write_fault(PageId page) override;
  void acquire(LockId lock) override;
  void release(LockId lock) override;
  void barrier() override;
  void acquire_notice(LockId lock) override;
  void on_page_access(PageId page) override;

  /// Per-lock LAP scores (Table 3) — identical object across nodes.
  const AecShared& shared() const { return *sh_; }

  /// This node's shard of the lock-strategy counters (summed by run_app).
  LockMgrStats lockmgr_stats() const override {
    return sh_->lockstats[static_cast<std::size_t>(self_)];
  }

 private:
  // --- Per-page node state ---------------------------------------------------

  /// One published generation of a page's outside diff. Two generations are
  /// kept because a fast processor can reach barrier k+1 (republishing) while
  /// a slow one is still resolving notices issued at barrier k.
  struct PublishedGen {
    mem::Diff diff;
    bool lazy = false;           ///< publish deferred: serve from the live twin
    std::uint32_t episode = 0;   ///< barrier episode the generation belongs to (1-based)
  };

  struct PageMeta {
    bool dirty_out = false;        ///< twin present; un-diffed outside mods
    bool reprotected_out = false;  ///< dirty_out page re-protected at acquire (unflushed)
    bool flushed_at_acquire = false;  ///< flushed+protected at acquire; unprotect at release
    mem::Diff out_acc;             ///< outside diffs flushed so far this step
    PublishedGen pub_cur;          ///< outside diff published at the last barrier
    PublishedGen pub_prev;         ///< previous generation (barrier-skew window)
    std::vector<ProcId> notices;   ///< outside writers to fetch from on fault
    std::uint32_t notices_episode = 0;  ///< episode the pending notices belong to
    bool reconstructible = false;  ///< invalid, but frame content is a sound base
    /// The page crossed the last barrier dirty: its twin still anchors the
    /// lazy publication, so the next twin-diff contains *previous-step*
    /// modifications and must flow into the published generations only —
    /// never into out_acc (republishing old values would overwrite other
    /// processors' newer writes).
    bool stale_twin = false;
    std::uint32_t last_access_episode = 0;  ///< 1-based step of last access
    bool dirty_in = false;         ///< modified inside the current critical section
    LockId inside_lock = 0;
    bool request_seen = false;     ///< some remote request ever targeted this page here
  };

  // --- Per-lock node state ---------------------------------------------------
  struct LockLocal {
    /// Cumulative chain diffs I hold (as owner/past owner) this step.
    std::map<PageId, mem::Diff> merged;

    // Freshest pending push (LAP update channel).
    bool push_valid = false;
    std::uint32_t push_counter = 0;
    ProcId push_from = kNoProc;
    std::map<PageId, mem::Diff> push;
    std::uint32_t max_counter_seen = 0;

    /// Pages whose freshest chain diff has been applied to the local frame
    /// (skips redundant fetch/apply work on faults).
    std::set<PageId> chain_applied;

    // Grant reply (valid from grant until release).
    bool grant_ready = false;
    ProcId grant_last_releaser = kNoProc;
    std::uint32_t grant_counter = 0;
    std::uint32_t grant_release_counter = 0;  ///< counter the expected push carries
    std::map<PageId, ProcId> cs_holders;
    std::vector<ProcId> my_update_set;

    /// The grant said this node is in the last releaser's update set but the
    /// push has not landed yet: faults on the releaser's pages wait for it
    /// instead of fetching (the push is guaranteed to arrive).
    bool expect_push = false;
    /// The application thread finished its post-grant processing; a late
    /// push may now fold directly into the merged custody.
    bool grant_processed = false;

    /// Pages this node write-protected during the acquire (flushed or
    /// re-protected); the paper unprotects them again at release when they
    /// were not modified inside the critical section.
    std::vector<PageId> protected_at_acquire;

    // Crash-failover state (all zero in crash-free runs). The acquire mints
    // a per-(node, lock) serial; the grant must echo it to be accepted
    // (duplicate grants from a pre-crash manager and its successor are
    // otherwise indistinguishable), and the release reuses it so the
    // manager can dedup replays.
    std::uint64_t awaiting_serial = 0;  ///< grant we are waiting for
    std::uint64_t cur_serial = 0;       ///< serial of the current tenure
    std::uint64_t req_op_id = 0;        ///< registry id of the pending request op

    /// mcs strategy: successor links keyed by the tenure counter they chain
    /// behind. A LINK(K -> succ) means: the tenure whose grant carries
    /// counter K hands the lock directly to `succ`. Tenure counters are
    /// globally unique per lock, so an entry is only ever consumed by the
    /// node whose grant_counter equals its key; stale keys (< grant_counter)
    /// are pruned when the next grant is processed.
    std::map<std::uint32_t, ProcId> mcs_links;
  };

  // --- Barrier exchange local state -------------------------------------------
  struct DirSend {
    PageId page;
    ProcId target;
    LockId lock = 0;
    bool is_diff = false;  ///< false = write notice
  };
  struct InboundDiff {
    PageId page;
    mem::Diff diff;
  };

  // --- Helpers ----------------------------------------------------------------
  PageMeta& meta(PageId pg) { return pages_[pg]; }
  LockLocal& llocal(LockId l) { return locks_[l]; }
  AecProtocol& peer(ProcId p) { return *sh_->nodes[static_cast<std::size_t>(p)]; }

  /// Best-effort variant of send_from_app, used only for LAP update pushes:
  /// under fault injection the push may be dropped, duplicated or delayed
  /// and the receiver recovers through the lazy-fetch path (§3.4).
  void push_from_app(ProcId to, std::size_t bytes, Cycles svc_cost,
                     std::function<void()> handler, sim::Bucket bucket);

  /// Wait for an announced push, but give up after
  /// faults.push_timeout_cycles (fault injection only — a lossless mesh
  /// guarantees delivery). Returns true when the push landed; on false the
  /// wait cleared expect_push and counted a push timeout, and the caller
  /// falls back to lazy fetching.
  bool wait_for_push_or_timeout(LockLocal& ll, sim::Bucket bucket);

  /// Flush one outside-dirty page: create diff, fold into out_acc, refresh
  /// twin, write-protect.
  void flush_outside_page(PageId pg, bool hidden, sim::Bucket bucket);

  /// Invalidate the local copy, keeping the frame as a reconstructible base.
  void invalidate_page(PageId pg);

  // --- Fault machinery (§3.4) --------------------------------------------------
  void handle_fault(PageId pg, bool is_write);
  void resolve_base(PageId pg);                ///< valid or reconstructible after this
  void apply_notice_diffs(PageId pg, sim::Bucket bucket);  ///< fetch writers' diffs
  void apply_cs_diff_if_needed(PageId pg);     ///< CS chain diff (push or holder fetch)
  void write_twin_discipline(PageId pg);       ///< twin/dirty bookkeeping for writes

  /// Fold an accepted push into the merged-chain custody (engine- or
  /// app-side; pure metadata).
  void fold_push(LockLocal& ll);

  // --- Engine-side receive handlers ---------------------------------------------
  void recv_grant(LockId l, ProcId last_releaser, std::uint32_t counter,
                  std::uint32_t release_counter, std::map<PageId, ProcId> cs_holders,
                  std::vector<ProcId> update_set, bool in_update_set,
                  std::uint64_t serial);
  void recv_push(LockId l, ProcId from, std::uint32_t counter,
                 std::uint32_t episode,
                 std::shared_ptr<const std::map<PageId, mem::Diff>> diffs);
  /// mcs: the manager tells the predecessor (tenure `pred_counter`) who its
  /// queue successor is, so its release can hand the lock over directly.
  void recv_mcs_link(LockId l, std::uint32_t pred_counter, ProcId succ);
  /// mcs: direct lock handoff from the releaser, bypassing the manager.
  /// Performs the manager-record bookkeeping on the successor's node;
  /// self-validates against the shared record and falls back to forwarding
  /// a plain release to the manager on mismatch.
  void recv_direct_handoff(LockId l, ProcId releaser, std::vector<PageId> pages,
                           std::uint32_t episode);
  void recv_barrier_diff(PageId pg, mem::Diff d);
  void recv_barrier_notice(PageId pg, ProcId writer);
  void recv_directive(std::vector<DirSend> sends, int expected,
                      std::vector<std::uint8_t> interest, std::vector<PageId> gained,
                      std::vector<PageId> drops);

  /// Serve this node's published outside diff of barrier `episode`
  /// (engine-side; lazy generations are diffed on demand from the live
  /// twin). Returns the diff; `cost` receives the server cycles.
  mem::Diff serve_published(PageId pg, std::uint32_t episode, Cycles& cost);

  /// Serve the merged chain diff for (lock, page) — engine-side.
  const mem::Diff* serve_merged(LockId l, PageId pg);

  // --- Manager handlers (run engine-side, as services on the manager node) -----
  //
  // Each handler carries `mgr_at`, the node the message was addressed to.
  // After a crash failover the current manager may differ: the handler then
  // forwards one hop instead of touching the record, so a record is only
  // ever mutated at its current manager. `serial` is the crash-failover
  // dedup serial (0 when no crash schedule exists).
  void mgr_handle_request(LockId l, ProcId requester, std::uint64_t serial,
                          ProcId mgr_at);
  void mgr_handle_release(LockId l, ProcId releaser, std::vector<PageId> pages,
                          std::uint32_t episode, std::uint64_t serial,
                          ProcId mgr_at);
  void mgr_handle_notice(LockId l, ProcId p, ProcId mgr_at);
  void mgr_grant(LockId l, ProcId to);  ///< grant a fresh tenure + send the reply
  /// Send (or re-send) the grant reply from the current record state; the
  /// idempotent half of mgr_grant, also used to answer a replayed request
  /// whose original grant came from the crashed manager.
  void mgr_send_grant(LockId l, LockRecord& rec, ProcId to);
  /// Crash-schedule-only release confirmation (clears the releaser's
  /// tracked op; without it a later manager crash would replay the release).
  void mgr_send_release_ack(LockId l, ProcId releaser, std::uint64_t serial);
  void mgr_handle_barrier_arrival(ProcId p, std::vector<ArrivalLockInfo> lock_info,
                                  std::vector<PageId> outside,
                                  std::vector<std::uint8_t> valid_map);
  void mgr_barrier_compute();  ///< all arrived: route diffs/notices, homes
  void mgr_handle_barrier_completion();

  // --- Crash failover (policy::PolicyEngine hooks) -------------------------------
  std::vector<ProcId> lock_sharers(LockId l, ProcId crashed) override;
  void migrate_lock_state(LockId l, ProcId from, ProcId to) override;

  // --- Barrier phases on the application thread ---------------------------------
  void barrier_publish_outside();
  void barrier_perform_sends();
  void barrier_apply_inbound();
  void barrier_home_reconstruct();
  void barrier_step_cleanup();

  std::shared_ptr<AecShared> sh_;

  std::vector<PageMeta> pages_;
  std::map<LockId, LockLocal> locks_;

  // Dirty-page indices (avoid page-table scans on the hot paths).
  std::set<PageId> dirty_out_set_;  ///< pages with un-flushed outside mods
  std::set<PageId> dirty_in_set_;   ///< pages modified in the current CS

  // Step-local state.
  std::uint32_t episode_ = 0;  ///< completed barrier episodes (= step index)
  std::set<LockId> owned_this_step_;
  std::set<PageId> outside_mod_pages_;  ///< pages with outside mods this step
  std::vector<LockId> cs_stack_;        ///< locks held, in acquisition order

  /// Per lock released this step: my last acquire counter and merged pages
  /// (reported in the barrier arrival; drives the manager's diff routing).
  std::map<LockId, ArrivalLockInfo> release_info_;

  // Barrier exchange state (set by manager/receive handlers, engine-side).
  std::vector<std::uint8_t> interest_;  ///< per-page: someone else holds it
  bool directive_ready_ = false;
  bool release_ready_ = false;
  int expected_recv_ = -1;
  int got_recv_ = 0;
  std::vector<DirSend> dir_sends_;
  std::vector<InboundDiff> inbound_diffs_;
  std::vector<std::pair<PageId, ProcId>> inbound_notices_;
  std::vector<PageId> home_gained_;  ///< pages to home-reconstruct this episode
  /// Invalidate-propagation directive entries (hybrid policies): pages whose
  /// local copy must be dropped instead of receiving a routed diff.
  std::vector<PageId> drops_;
};

}  // namespace aecdsm::aec
