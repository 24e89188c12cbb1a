#include "erc/protocol.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/check.hpp"
#include "common/log.hpp"
#include "locks/discipline.hpp"
#include "trace/recorder.hpp"

namespace aecdsm::erc {

// kCtl and trace_page() are inherited from policy::PolicyEngine.

#define AECDSM_TRACE(pg, stream_expr)                    \
  do {                                                   \
    if ((pg) == trace_page()) AECDSM_DEBUG(stream_expr); \
  } while (0)

ErcProtocol::ErcProtocol(dsm::Machine& m, ProcId self, std::shared_ptr<ErcShared> shared)
    : policy::PolicyEngine(m, self, shared->policy), sh_(std::move(shared)) {
  if (sh_->nodes.empty()) {
    sh_->nodes.resize(static_cast<std::size_t>(m.nprocs()), nullptr);
    sh_->copyset.assign(m.num_pages(), DynBitset(m.nprocs()));
    for (PageId pg = 0; pg < m.num_pages(); ++pg) {
      sh_->copyset[pg].set(static_cast<int>(pg % static_cast<PageId>(m.nprocs())));
    }
  }
  sh_->nodes[static_cast<std::size_t>(self)] = this;
  dsm::init_round_robin_validity(m, self);
}

ErcProtocol::~ErcProtocol() = default;

// --------------------------------------------------------------------------
// Faults
// --------------------------------------------------------------------------

void ErcProtocol::on_read_fault(PageId pg) {
  const auto& params = m_.params();
  proc().advance(params.interrupt_cycles, sim::Bucket::kData);
  mem::PageFrame& f = store().frame(pg);
  if (f.valid) return;

  // Fetch the current copy from the page's home (which joins us to the
  // copyset — from now on we receive every update of the page).
  const ProcId h = home_of(pg);
  AECDSM_CHECK_MSG(h != self_, "ERC home fault on own page " << pg);
  ++m_.node(self_).faults.cold_faults;
  // Marked before the request goes out: any update fanned out to this node
  // while the fetch is in flight must be deferred, or the full-page reply
  // would overwrite it.
  fetching_.insert(pg);
  fetch_page_from_home(
      pg, h, sim::Bucket::kData,
      [this, h, pg](std::vector<Word>& buf) {
        AECDSM_TRACE(pg, "p" << self_ << " erc-fetch pg" << pg << " (copyset now "
                             << sh_->copyset[pg].count() + 1 << " members)");
        sh_->copyset[pg].set(self_);
        auto span = peer(h).store().page_span(pg);
        buf.assign(span.begin(), span.end());
      },
      [this, pg] {
        // Updates that raced the reply are newer than the copied frame;
        // fold them back in, in arrival order.
        fetching_.erase(pg);
        auto it = fetch_pending_.find(pg);
        if (it != fetch_pending_.end()) {
          for (const mem::Diff& d : it->second) apply_update(pg, d);
          fetch_pending_.erase(it);
        }
      });
  f.valid = true;
  ctx().invalidate_cache_page(pg);
}

void ErcProtocol::on_write_fault(PageId pg) {
  on_read_fault(pg);  // ensure a current copy (no-op when valid)
  mem::PageFrame& f = store().frame(pg);
  if (f.write_protected) {
    AECDSM_CHECK(!f.has_twin());
    proc().advance(m_.params().twin_create_cycles(), sim::Bucket::kData);
    store().make_twin(pg);
    dirty_set_.insert(pg);
    trace_counter(trace::names::kDiffOutstanding, proc().now(),
                  dirty_set_.size());
    f.write_protected = false;
  }
}

// --------------------------------------------------------------------------
// Update flush (release consistency's eager propagation)
// --------------------------------------------------------------------------

void ErcProtocol::flush_updates(sim::Bucket bucket) {
  const auto& params = m_.params();
  if (dirty_set_.empty()) return;

  const std::vector<PageId> dirty(dirty_set_.begin(), dirty_set_.end());
  for (const PageId pg : dirty) {
    // Eager RC: diff creation sits on the release's critical path (never
    // hidden behind a synchronization wait).
    mem::Diff d = create_diff_charged(pg, /*hidden=*/false, bucket);

    store().drop_twin(pg);
    store().frame(pg).write_protected = true;
    dirty_set_.erase(pg);
    trace_counter(trace::names::kDiffOutstanding, proc().now(),
                  dirty_set_.size());
    if (d.empty()) continue;

    const std::uint64_t id =
        (static_cast<std::uint64_t>(self_) << 48) | next_update_id_++;
    ++pending_acks_;
    const std::size_t bytes = kCtl + d.encoded_bytes();
    send_from_app(home_of(pg), bytes,
                  params.diff_apply_cycles(d.changed_words()),
                  [this, pg, id, diff = std::move(d), w = self_]() mutable {
                    peer(home_of(pg)).home_handle_update(pg, w, diff, id);
                  },
                  bucket);
  }
  // The eager-RC stall: the release cannot complete until every copy is
  // updated and acknowledged.
  proc().wait(bucket, [this] { return pending_acks_ == 0; });
}

void ErcProtocol::home_handle_update(PageId pg, ProcId writer, const mem::Diff& diff,
                                     std::uint64_t update_id) {
  AECDSM_TRACE(pg, "home p" << self_ << " update pg" << pg << " from p" << writer
                            << " words=" << diff.changed_words() << " copyset="
                            << sh_->copyset[pg].count());
  // The home applies first (its copy is the fault-service master).
  if (writer != self_) apply_update(pg, diff);

  DynBitset members = sh_->copyset[pg];
  members.reset(writer);
  members.reset(self_);
  const int count = members.count();
  if (count == 0) {
    // Nobody else caches the page: acknowledge the writer directly.
    m_.post(self_, writer, kCtl, m_.params().list_processing_per_elem,
            [this, writer] {
              ErcProtocol& w = peer(writer);
              --w.pending_acks_;
              w.proc().poke();
            });
    return;
  }
  fanouts_[update_id] = FanOut{writer, count};
  for (int q = 0; q < m_.nprocs(); ++q) {
    if (!members.test(q)) continue;
    m_.post(self_, q, kCtl + diff.encoded_bytes(),
            m_.params().diff_apply_cycles(diff.changed_words()),
            [this, pg, q, update_id, diff, h = self_] {
              peer(q).member_apply_update(pg, h, diff, update_id, kNoProc);
            });
  }
}

void ErcProtocol::member_apply_update(PageId pg, ProcId home, const mem::Diff& diff,
                                      std::uint64_t update_id, ProcId /*writer*/) {
  if (fetching_.count(pg) != 0) {
    // A home fetch for this page is in flight; the full-page reply would
    // overwrite this update, so defer it (the fetch handler re-applies it,
    // and this node cannot read the page before the fetch completes).
    fetch_pending_[pg].push_back(diff);
  } else {
    apply_update(pg, diff);
  }
  m_.post(self_, home, kCtl, m_.params().list_processing_per_elem,
          [this, home, update_id] {
            ErcProtocol& hp = peer(home);
            auto it = hp.fanouts_.find(update_id);
            AECDSM_CHECK(it != hp.fanouts_.end());
            if (--it->second.remaining == 0) {
              const ProcId writer = it->second.writer;
              hp.fanouts_.erase(it);
              m_.post(home, writer, kCtl, m_.params().list_processing_per_elem,
                      [this, writer] {
                        ErcProtocol& w = peer(writer);
                        --w.pending_acks_;
                        w.proc().poke();
                      });
            }
          });
}

void ErcProtocol::apply_update(PageId pg, const mem::Diff& diff) {
  AECDSM_TRACE(pg, "p" << self_ << " erc-apply pg" << pg << " words="
                       << diff.changed_words());
  mem::PageFrame& f = store().frame(pg);
  diff.apply_to(std::span<Word>(f.data));
  if (f.has_twin()) diff.apply_to(std::span<Word>(*f.twin));
  ctx().invalidate_cache_page(pg);
  ++dstats_.diffs_applied;
  const Cycles c = m_.params().diff_apply_cycles(diff.changed_words());
  dstats_.apply_cycles += c;
  // Updates are applied engine-side while servicing the home/member message;
  // the apply cost is part of that service, i.e. on the update's critical
  // path, so the span is svc-flagged (never counted as hidden).
  if (trace::Recorder* tr = m_.recorder()) {
    tr->span(self_, trace::Category::kDiff, trace::names::kDiffApply,
             m_.engine().now(), m_.engine().now() + c, "page", pg, "svc", 1);
  }
}

// --------------------------------------------------------------------------
// Locks
// --------------------------------------------------------------------------

void ErcProtocol::acquire_notice(LockId l) {
  const ProcId mgr = m_.lock_manager(l);
  send_from_app(mgr, kCtl, m_.params().list_processing_per_elem,
                [this, l, p = self_, mgr] { mgr_handle_notice(l, p, mgr); },
                sim::Bucket::kSynch);
}

void ErcProtocol::acquire(LockId l) {
  grant_ready_ = false;
  const ProcId mgr = m_.lock_manager(l);
  std::uint64_t serial = 0;
  if (crash_scheduled()) {
    serial = next_op_serial(l);
    awaiting_serial_ = serial;
    cur_serial_[l] = serial;
    req_op_id_ = track_mgr_op(
        l, mgr, serial, [this, l, serial](ProcId nm) {
          m_.post(self_, nm, kCtl, m_.params().list_processing_per_elem * 2,
                  [this, l, p = self_, serial, nm] {
                    mgr_handle_request(l, p, serial, nm);
                  });
        });
  }
  send_from_app(mgr, kCtl, m_.params().list_processing_per_elem * 2,
                [this, l, p = self_, serial, mgr] {
                  mgr_handle_request(l, p, serial, mgr);
                },
                sim::Bucket::kSynch);
  proc().wait(sim::Bucket::kSynch, [this] { return grant_ready_; });
}

void ErcProtocol::release(LockId l) {
  // Eager release consistency: flush and wait before releasing the lock.
  flush_updates(sim::Bucket::kSynch);
  const ProcId mgr = m_.lock_manager(l);

  // mcs: when the manager linked a successor behind this tenure, hand the
  // lock to it directly — one point-to-point message instead of the
  // release/grant pair through the manager. The successor performs the
  // manager-record bookkeeping on its own node. Disabled under a crash
  // schedule: handoffs then stay on the manager path the failover chain
  // replays.
  if (sh_->strategy == aecdsm::locks::Strategy::kMcs && !crash_scheduled()) {
    auto& links = mcs_links_[l];
    if (auto lit = links.find(grant_counter_[l]); lit != links.end()) {
      const ProcId succ = lit->second;
      links.erase(lit);
      send_from_app(succ, kCtl, m_.params().list_processing_per_elem * 2,
                    [this, l, p = self_, succ] {
                      peer(succ).recv_direct_handoff(l, p);
                    },
                    sim::Bucket::kSynch);
      return;
    }
  }

  const std::uint64_t serial = crash_scheduled() ? cur_serial_[l] : 0;
  if (serial != 0) {
    track_mgr_op(l, mgr, serial, [this, l, serial](ProcId nm) {
      m_.post(self_, nm, kCtl, m_.params().list_processing_per_elem * 2,
              [this, l, p = self_, serial, nm] {
                mgr_handle_release(l, p, serial, nm);
              });
    });
  }
  send_from_app(mgr, kCtl, m_.params().list_processing_per_elem * 2,
                [this, l, p = self_, serial, mgr] {
                  mgr_handle_release(l, p, serial, mgr);
                },
                sim::Bucket::kSynch);
}

void ErcProtocol::recv_grant(LockId l, std::uint64_t serial, std::uint32_t counter) {
  if (crash_scheduled()) {
    if (serial != awaiting_serial_) return;  // duplicate/stale grant
    awaiting_serial_ = 0;
    clear_mgr_op(req_op_id_);
    req_op_id_ = 0;
  }
  grant_counter_[l] = counter;
  if (sh_->strategy == aecdsm::locks::Strategy::kMcs) {
    // Links chained behind past tenures were consumed (or superseded by a
    // manager-path grant that raced the LINK); prune them.
    auto& links = mcs_links_[l];
    links.erase(links.begin(), links.lower_bound(counter));
  }
  grant_ready_ = true;
  proc().poke();
}

void ErcProtocol::recv_mcs_link(LockId l, std::uint32_t pred_counter, ProcId succ) {
  // Store unconditionally: tenure counters are globally unique per lock, so
  // only the tenure whose grant carries `pred_counter` ever consumes this
  // entry; stale keys are pruned when the next grant is accepted.
  mcs_links_[l][pred_counter] = succ;
}

void ErcProtocol::recv_direct_handoff(LockId l, ProcId releaser) {
  const ProcId mgr = m_.lock_manager(l);
  auto& rec = sh_->lock(l, mgr);
  policy::LockLap& lap = sh_->lap_of(l, mgr);
  // The releaser's LINK promised this node is the exact FIFO successor of
  // its tenure — true by construction in crash-free runs (mcs handoffs are
  // disabled under a crash schedule). Validate against the shared record
  // anyway and degrade to a plain manager-path release on any mismatch.
  if (!(rec.taken && rec.owner == releaser && lap.has_waiters() &&
        lap.waiting().front() == self_)) {
    if (sh_->collect_lock_stats()) {
      ++sh_->lockstats[static_cast<std::size_t>(self_)].fallback_rels;
    }
    m_.post(self_, mgr, kCtl, m_.params().list_processing_per_elem * 2,
            [this, l, releaser, mgr] {
              mgr_handle_release(l, releaser, /*serial=*/0, mgr);
            });
    return;
  }
  // The manager's release + grant bookkeeping, performed here on the
  // successor's node.
  rec.last_releaser = releaser;
  const ProcId to = lap.dequeue_waiter();
  AECDSM_CHECK(to == self_);
  rec.owner = self_;  // rec.taken stays true across the handoff
  ++rec.counter;
  policy::lap_score_grant(lap, rec.last_releaser, self_);
  if (trace::Recorder* tr = m_.recorder()) {
    tr->instant(self_, trace::Category::kLock, trace::names::kLockHandoff,
                m_.engine().now(), "lock", l, "from",
                static_cast<std::uint64_t>(releaser));
  }
  if (sh_->collect_lock_stats()) {
    aecdsm::locks::note_grant(sh_->lockstats[static_cast<std::size_t>(self_)],
                              m_.params(), releaser, self_, lap.waiting_count(),
                              /*direct_handoff=*/true, /*skipped_head=*/false);
  }
  trace_counter(trace::names::kLockQueueDepth, m_.engine().now(),
                lap.waiting_count());
  recv_grant(l, /*serial=*/0, rec.counter);
}

void ErcProtocol::mgr_handle_request(LockId l, ProcId requester,
                                     std::uint64_t serial, ProcId mgr_at) {
  const ProcId mgr = m_.lock_manager(l);
  if (mgr != mgr_at) {
    // Re-elected manager: forward one hop (the record's shard belongs to
    // the new manager).
    m_.post(mgr_at, mgr, kCtl, m_.params().list_processing_per_elem,
            [this, l, requester, serial, mgr] {
              mgr_handle_request(l, requester, serial, mgr);
            });
    return;
  }
  auto& rec = sh_->lock(l, mgr);
  policy::LockLap& lap = sh_->lap_of(l, mgr);
  if (serial != 0) {
    auto gt = rec.granted_serial.find(requester);
    if (gt != rec.granted_serial.end() && serial <= gt->second) {
      // Already-granted tenure: rebuild the lost grant while the requester
      // still owns the lock, drop the stale replay otherwise. A fresh serial
      // from the current owner (release in flight behind it) falls through
      // and queues normally.
      if (serial == gt->second && rec.taken && rec.owner == requester) {
        mgr_send_grant(l, rec, requester);
      }
      return;
    }
    if (lap.waiting_contains(requester)) return;
    rec.req_serial[requester] = serial;
  }
  lap.count_acquire_event();
  if (rec.taken) {
    if (sh_->strategy == aecdsm::locks::Strategy::kMcs && !crash_scheduled()) {
      // MCS: link the new waiter behind its queue predecessor (see the AEC
      // manager for the tenure-counter derivation). Disabled under a crash
      // schedule — handoffs then stay on the manager path the failover
      // chain covers.
      const bool queue_empty = !lap.has_waiters();
      const ProcId pred = queue_empty ? rec.owner : lap.waiting().back();
      const std::uint32_t pred_counter =
          rec.counter + static_cast<std::uint32_t>(lap.waiting_count());
      m_.post(mgr, pred, kCtl, m_.params().list_processing_per_elem,
              [this, l, pred, pred_counter, requester] {
                peer(pred).recv_mcs_link(l, pred_counter, requester);
              });
      if (sh_->collect_lock_stats()) {
        ++sh_->lockstats[static_cast<std::size_t>(mgr)].link_messages;
      }
    }
    lap.enqueue_waiter(requester);
  } else {
    mgr_grant(l, requester);
    if (sh_->collect_lock_stats()) {
      aecdsm::locks::note_grant(sh_->lockstats[static_cast<std::size_t>(mgr)],
                                m_.params(), kNoProc, requester,
                                lap.waiting_count(), /*direct_handoff=*/false,
                                /*skipped_head=*/false);
    }
  }
  trace_counter(trace::names::kLockQueueDepth, m_.engine().now(),
                lap.waiting_count());
}

void ErcProtocol::mgr_grant(LockId l, ProcId to) {
  auto& rec = sh_->lock(l, m_.lock_manager(l));
  rec.taken = true;
  rec.owner = to;
  ++rec.counter;
  // Scoring-only under ERC: the update set is computed but never acted on.
  policy::lap_score_grant(sh_->lap_of(l, m_.lock_manager(l)), rec.last_releaser, to);
  if (crash_scheduled()) rec.granted_serial[to] = rec.req_serial[to];
  mgr_send_grant(l, rec, to);
}

void ErcProtocol::mgr_send_grant(LockId l, ErcShared::LockRecord& rec, ProcId to) {
  std::uint64_t serial = 0;
  if (auto it = rec.granted_serial.find(to); it != rec.granted_serial.end()) {
    serial = it->second;
  }
  m_.post(m_.lock_manager(l), to, kCtl, m_.params().list_processing_per_elem,
          [this, l, to, serial, counter = rec.counter] {
            peer(to).recv_grant(l, serial, counter);
          });
}

void ErcProtocol::mgr_handle_release(LockId l, ProcId releaser,
                                     std::uint64_t serial, ProcId mgr_at) {
  const ProcId mgr = m_.lock_manager(l);
  if (mgr != mgr_at) {
    m_.post(mgr_at, mgr, kCtl, m_.params().list_processing_per_elem,
            [this, l, releaser, serial, mgr] {
              mgr_handle_release(l, releaser, serial, mgr);
            });
    return;
  }
  auto& rec = sh_->lock(l, mgr);
  if (serial != 0) {
    auto& last_rel = rec.released_serial[releaser];
    if (serial <= last_rel) {
      mgr_send_release_ack(l, releaser, serial);  // duplicate: re-confirm only
      return;
    }
    last_rel = serial;
  }
  AECDSM_CHECK(rec.taken && rec.owner == releaser);
  rec.last_releaser = releaser;
  rec.taken = false;
  rec.owner = kNoProc;
  policy::LockLap& lap = sh_->lap_of(l, mgr);
  if (lap.has_waiters()) {
    const aecdsm::locks::Pick pick = aecdsm::locks::pick_waiter(
        lap.waiting(), sh_->strategy, releaser, m_.params(), rec.hier_streak);
    const ProcId to = lap.dequeue_waiter_at(pick.index);
    mgr_grant(l, to);
    if (sh_->collect_lock_stats()) {
      aecdsm::locks::note_grant(sh_->lockstats[static_cast<std::size_t>(mgr)],
                                m_.params(), releaser, to, lap.waiting_count(),
                                /*direct_handoff=*/false, pick.skipped_head);
    }
  }
  trace_counter(trace::names::kLockQueueDepth, m_.engine().now(),
                lap.waiting_count());
  if (serial != 0) mgr_send_release_ack(l, releaser, serial);
}

void ErcProtocol::mgr_send_release_ack(LockId l, ProcId releaser,
                                       std::uint64_t serial) {
  m_.post(m_.lock_manager(l), releaser, kCtl,
          m_.params().list_processing_per_elem, [this, l, releaser, serial] {
            peer(releaser).clear_mgr_op_by_serial(l, serial);
          });
}

void ErcProtocol::mgr_handle_notice(LockId l, ProcId p, ProcId mgr_at) {
  const ProcId mgr = m_.lock_manager(l);
  if (mgr != mgr_at) {
    m_.post(mgr_at, mgr, kCtl, m_.params().list_processing_per_elem,
            [this, l, p, mgr] { mgr_handle_notice(l, p, mgr); });
    return;
  }
  sh_->lap_of(l, mgr).add_notice(p);
}

// --------------------------------------------------------------------------
// Crash failover (policy::PolicyEngine hooks)
// --------------------------------------------------------------------------

std::vector<ProcId> ErcProtocol::lock_sharers(LockId l, ProcId crashed) {
  std::vector<ProcId> out;
  const ErcShared::LockRecord* rec = sh_->find_lock(l, crashed);
  if (rec == nullptr) return out;
  if (rec->taken && rec->owner != kNoProc) out.push_back(rec->owner);
  if (rec->last_releaser != kNoProc) out.push_back(rec->last_releaser);
  return out;
}

void ErcProtocol::migrate_lock_state(LockId l, ProcId from, ProcId to) {
  sh_->migrate_lock(l, from, to);
  // The FIFO queue (the LAP instance's waiting queue doubles as ERC's real
  // queue) is rebuilt from the live requesters' replayed ops.
  sh_->lap_of(l, to).reset_queues();
}

// --------------------------------------------------------------------------
// Barriers
// --------------------------------------------------------------------------

void ErcProtocol::barrier() {
  flush_updates(sim::Bucket::kSynch);
  barrier_release_ = false;
  send_from_app(m_.barrier_manager(), kCtl, m_.params().list_processing_per_elem,
                [this] { mgr_handle_barrier_arrival(); }, sim::Bucket::kSynch);
  proc().wait(sim::Bucket::kSynch, [this] { return barrier_release_; });
}

void ErcProtocol::mgr_handle_barrier_arrival() {
  auto& b = sh_->barrier;
  if (++b.arrived < m_.nprocs()) return;
  b.arrived = 0;
  for (int q = 0; q < m_.nprocs(); ++q) {
    m_.post(m_.barrier_manager(), q, kCtl, m_.params().list_processing_per_elem,
            [this, q] {
              ErcProtocol& p = peer(q);
              p.barrier_release_ = true;
              p.proc().poke();
            });
  }
}

// --------------------------------------------------------------------------
// Suite
// --------------------------------------------------------------------------

policy::ConsistencyPolicy ErcSuite::default_policy() {
  const policy::ConsistencyPolicy* p = policy::find_policy("Munin-ERC");
  AECDSM_CHECK(p != nullptr);
  return *p;
}

ErcSuite::ErcSuite(policy::ConsistencyPolicy pol) : pol_(std::move(pol)) {
  policy::validate(pol_);
  AECDSM_CHECK_MSG(pol_.family == policy::Family::kErc,
                   "ErcSuite asked to run non-ERC policy '" << pol_.name << "'");
}

dsm::ProtocolSuite ErcSuite::suite() {
  dsm::ProtocolSuite s;
  s.name = pol_.name;
  s.make = [this](dsm::Machine& m, ProcId p) -> std::unique_ptr<dsm::Protocol> {
    if (p == 0) shared_ = std::make_shared<ErcShared>(m.params(), pol_);
    return std::make_unique<ErcProtocol>(m, p, shared_);
  };
  return s;
}

}  // namespace aecdsm::erc
