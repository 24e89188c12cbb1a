#include "tmk/protocol.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/check.hpp"
#include "common/log.hpp"
#include "dsm/system.hpp"
#include "trace/recorder.hpp"

namespace aecdsm::tmk {

// kCtl, trace_page() and trace_word() are inherited from policy::PolicyEngine.

#define AECDSM_TRACE(pg, stream_expr)                    \
  do {                                                   \
    if ((pg) == trace_page()) AECDSM_DEBUG(stream_expr); \
  } while (0)

TmProtocol::TmProtocol(dsm::Machine& m, ProcId self, std::shared_ptr<TmShared> shared)
    : policy::PolicyEngine(m, self, shared->policy),
      sh_(std::move(shared)),
      vt_(static_cast<std::size_t>(m.nprocs()), 0),
      pages_(m.num_pages()) {
  if (sh_->nodes.empty()) {
    sh_->nodes.resize(static_cast<std::size_t>(m.nprocs()), nullptr);
    sh_->barrier.merged_vt.assign(static_cast<std::size_t>(m.nprocs()), 0);
  }
  sh_->nodes[static_cast<std::size_t>(self)] = this;
  dsm::init_round_robin_validity(m, self);
  for (PageId pg = 0; pg < m.num_pages(); ++pg) {
    if (static_cast<ProcId>(pg % static_cast<PageId>(m.nprocs())) == self) {
      pages_[pg].ever_valid = true;
    }
  }
}

TmProtocol::~TmProtocol() = default;

std::uint64_t TmProtocol::vt_sum(const VectorTime& vt) {
  std::uint64_t s = 0;
  for (const std::uint32_t v : vt) s += v;
  return s;
}

void TmProtocol::end_interval() {
  ++vt_[static_cast<std::size_t>(self_)];
  // The interval's write notices cover both the pages faulted during the
  // interval and the pages still carrying un-diffed modifications (silent
  // re-writes of an unprotected dirty page stay visible this way).
  std::set<PageId> pages = dirty_set_;
  pages.insert(interval_writes_.begin(), interval_writes_.end());
  interval_writes_.clear();
  if (!pages.empty()) {
    NoticeEntry e;
    e.writer = self_;
    e.vt = vt_;
    e.pages.assign(pages.begin(), pages.end());
    seen_intervals_.insert({self_, vt_[static_cast<std::size_t>(self_)]});
    log_.push_back(std::move(e));
  }
}

bool TmProtocol::absorb_entry(const NoticeEntry& e) {
  const auto key = std::make_pair(e.writer, e.vt[static_cast<std::size_t>(e.writer)]);
  if (!seen_intervals_.insert(key).second) return false;
  log_.push_back(e);
  return true;
}

void TmProtocol::apply_entry_invalidations(const NoticeEntry& e) {
  if (e.writer == self_) return;
  for (const PageId pg : e.pages) {
    AECDSM_TRACE(pg, "p" << self_ << " notice pg" << pg << " writer=p" << e.writer
                         << " ivt=" << e.vt[static_cast<std::size_t>(e.writer)]);
    PageState& ps = page(pg);
    ps.pending.insert(e.writer);
    mem::PageFrame& f = store().frame(pg);
    if (f.valid) {
      f.valid = false;
      ctx().invalidate_cache_page(pg);
    }
    invalidations_pending_cost_ += m_.params().list_processing_per_elem;
  }
}

// --------------------------------------------------------------------------
// Faults
// --------------------------------------------------------------------------

void TmProtocol::on_read_fault(PageId pg) { handle_fault(pg, false); }
void TmProtocol::on_write_fault(PageId pg) { handle_fault(pg, true); }

void TmProtocol::handle_fault(PageId pg, bool is_write) {
  proc().advance(m_.params().interrupt_cycles, sim::Bucket::kData);
  resolve_page(pg);
  if (is_write) {
    PageState& ps = page(pg);
    mem::PageFrame& f = store().frame(pg);
    if (f.write_protected) {
      AECDSM_CHECK_MSG(!f.has_twin(), "protected page with a live twin");
      proc().advance(m_.params().twin_create_cycles(), sim::Bucket::kData);
      store().make_twin(pg);
      ps.dirty = true;
      dirty_set_.insert(pg);
      interval_writes_.insert(pg);
      trace_counter(trace::names::kDiffOutstanding, proc().now(),
                    dirty_set_.size());
      f.write_protected = false;
    }
  }
}

void TmProtocol::resolve_page(PageId pg) {
  PageState& ps = page(pg);
  mem::PageFrame& f = store().frame(pg);
  if (f.valid) return;

  if (!ps.ever_valid) {
    // Cold miss: fetch a base copy (plus its holder's pending-writer set)
    // from the page's static home.
    ++m_.node(self_).faults.cold_faults;
    const ProcId h = static_cast<ProcId>(pg % static_cast<PageId>(m_.nprocs()));
    AECDSM_CHECK(h != self_);
    auto hpend = std::make_shared<std::vector<ProcId>>();
    auto hupto = std::make_shared<std::map<ProcId, std::size_t>>();
    fetch_page_from_home(
        pg, h, sim::Bucket::kData,
        [this, h, pg, hpend, hupto](std::vector<Word>& buf) {
          TmProtocol& home = peer(h);
          auto span = home.store().page_span(pg);
          buf.assign(span.begin(), span.end());
          hpend->assign(home.page(pg).pending.begin(), home.page(pg).pending.end());
          // The copied frame reflects every diff the home consumed — and
          // every write the home itself ever made. The requester must
          // resume at the same per-writer indexes (including the home's own
          // full stored history) or it would re-apply older diffs over the
          // newer base.
          *hupto = home.page(pg).fetched_upto;
          (*hupto)[h] = home.page(pg).stored.size();
        },
        /*landed=*/nullptr);
    for (const auto& [w, upto] : *hupto) {
      if (w != self_) ps.fetched_upto[w] = upto;
    }
    for (const ProcId w : *hpend) {
      if (w != self_) ps.pending.insert(w);
    }
    ps.ever_valid = true;
    ctx().invalidate_cache_page(pg);
  }

  fetch_pending_diffs(pg, sim::Bucket::kData);
  f.valid = true;
}

void TmProtocol::fetch_pending_diffs(PageId pg, sim::Bucket bucket) {
  PageState& ps = page(pg);
  if (ps.pending.empty()) return;
  const auto& params = m_.params();

  const std::vector<ProcId> writers(ps.pending.begin(), ps.pending.end());
  struct Fetch {
    std::shared_ptr<std::vector<StoredDiff>> diffs =
        std::make_shared<std::vector<StoredDiff>>();
    std::size_t new_upto = 0;
  };
  std::vector<Fetch> fx(writers.size());
  int pending_rpcs = static_cast<int>(writers.size());

  proc().advance(params.message_overhead * writers.size(), bucket);
  proc().sync();
  for (std::size_t i = 0; i < writers.size(); ++i) {
    const ProcId w = writers[i];
    const std::size_t after = ps.fetched_upto[w];
    Fetch& f = fx[i];
    post_dynamic(
        self_, w, kCtl,
        [this, w, pg, after, &f] {
          Cycles cost = 0;
          *f.diffs = peer(w).serve_diffs(pg, after, cost);
          f.new_upto = after + f.diffs->size();
          return cost;
        },
        [this, w, pg, &f, &pending_rpcs] {
          std::size_t bytes = kCtl;
          for (const StoredDiff& d : *f.diffs) bytes += 16 + d.diff.encoded_bytes();
          post_dynamic(
              w, self_, bytes,
              [this] { return m_.params().list_processing_per_elem * 2; },
              [this, &pending_rpcs] {
                --pending_rpcs;
                proc().poke();
              });
        });
  }
  proc().wait(bucket, [&pending_rpcs] { return pending_rpcs == 0; });
  if (pg == trace_page()) {
    std::ostringstream os;
    for (std::size_t i = 0; i < writers.size(); ++i) {
      os << " w" << writers[i] << ":got" << fx[i].diffs->size() << "->" << fx[i].new_upto;
    }
    AECDSM_DEBUG("p" << self_ << " fetched pg" << pg << os.str());
  }

  // Apply in a linearization of happens-before (vector-clock sums are
  // monotone along every causal chain).
  std::vector<const StoredDiff*> all;
  for (const Fetch& f : fx) {
    for (const StoredDiff& d : *f.diffs) all.push_back(&d);
  }
  if (ps.word_tag.empty()) {
    ps.word_tag.assign(params.words_per_page(), DiffTag{});
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const StoredDiff* a, const StoredDiff* b) { return a->tag < b->tag; });
  for (const StoredDiff* d : all) {
    if (pg == trace_page()) {
      std::ostringstream runs;
      long w16 = -1;
      for (const auto& r : d->diff.runs()) {
        runs << " @" << r.word_offset << "+" << r.words.size();
        if (r.word_offset <= 16 && 16 < r.word_offset + r.words.size())
          w16 = static_cast<long>(r.words[16 - r.word_offset]);
      }
      AECDSM_DEBUG("p" << self_ << " tm-apply pg" << pg << " tag=" << d->tag
                       << " w16=" << w16 << runs.str());
    }
    const Cycles c = params.diff_apply_cycles(d->diff.changed_words());
    const Cycles trace_t0 = proc().now();
    proc().advance(c, bucket);
    if (trace::Recorder* tr = m_.recorder()) {
      tr->span(self_, trace::Category::kDiff, trace::names::kDiffApply,
               trace_t0, proc().now(), "page", pg);
    }
    mem::PageFrame& f = store().frame(pg);
    // Word-wise application: never let an older diff revert a word a newer
    // one already wrote (see PageState::word_tag). The twin mirrors the
    // frame so this node's own diffs never encode merged remote words.
    for (const mem::Diff::Run& run : d->diff.runs()) {
      for (std::size_t k = 0; k < run.words.size(); ++k) {
        const std::size_t w = run.word_offset + k;
        if (ps.word_tag[w] > d->tag) continue;
        ps.word_tag[w] = d->tag;
        f.data[w] = run.words[k];
        if (f.has_twin()) (*f.twin)[w] = run.words[k];
      }
    }
    ++dstats_.diffs_applied;
    dstats_.apply_cycles += c;
  }
  proc().sync();
  for (std::size_t i = 0; i < writers.size(); ++i) {
    ps.fetched_upto[writers[i]] = fx[i].new_upto;
  }
  ps.pending.clear();
  ctx().invalidate_cache_page(pg);
}

std::vector<TmProtocol::StoredDiff> TmProtocol::serve_diffs(PageId pg, std::size_t after,
                                                            Cycles& cost) {
  PageState& ps = page(pg);
  mem::PageFrame& f = store().frame(pg);
  AECDSM_TRACE(pg, "p" << self_ << " serve_diffs pg" << pg << " after=" << after
                       << " stored=" << ps.stored.size() << " dirty=" << ps.dirty
                       << " frame[16]=" << store().frame(pg).data[16]);
  if (ps.dirty) {
    // Lazy diff creation, on the server's critical path (TreadMarks).
    const DiffTag tag{m_.engine().now(), self_, diff_k_++};
    mem::Diff d = service_diff_create(pg, cost);
    if (pg == trace_page()) {
      std::ostringstream os;
      for (const auto& r : d.runs()) {
        os << " @" << r.word_offset << "+" << r.words.size();
        if (r.word_offset <= trace_word() &&
            trace_word() < r.word_offset + r.words.size()) {
          os << "(w" << trace_word() << "=" << r.words[trace_word() - r.word_offset]
             << ")";
        }
      }
      AECDSM_DEBUG("p" << self_ << " created diff pg" << pg << " tag=" << tag
                       << os.str());
    }
    ps.stored.push_back(StoredDiff{tag, std::move(d)});
    store().drop_twin(pg);
    f.write_protected = true;
    ps.dirty = false;
    dirty_set_.erase(pg);
    trace_counter(trace::names::kDiffOutstanding, m_.engine().now(),
                  dirty_set_.size());
  }
  AECDSM_CHECK_MSG(after <= ps.stored.size(), "diff request beyond stored history");
  cost += m_.params().list_processing_per_elem * (ps.stored.size() - after + 1);
  return std::vector<StoredDiff>(ps.stored.begin() + static_cast<std::ptrdiff_t>(after),
                                 ps.stored.end());
}

// --------------------------------------------------------------------------
// Locks
// --------------------------------------------------------------------------

void TmProtocol::acquire_notice(LockId l) {
  // TreadMarks itself ignores notices; they feed the scoring-only LAP
  // instance at the manager (paper §5.1 robustness study).
  send_from_app(m_.lock_manager(l), kCtl, m_.params().list_processing_per_elem,
                [this, l, p = self_] { sh_->lap_of(l).add_notice(p); },
                sim::Bucket::kSynch);
}

void TmProtocol::acquire(LockId l) {
  const auto& params = m_.params();
  LockLocal& ll = locks_[l];
  ll.grant_ready = false;

  end_interval();
  proc().advance(params.list_processing_per_elem * (dirty_set_.size() + 1),
                 sim::Bucket::kSynch);

  const std::size_t vt_bytes = vt_.size() * 4;
  auto req_vt = std::make_shared<VectorTime>(vt_);
  const ProcId mgr = m_.lock_manager(l);
  std::uint64_t serial = 0;
  if (crash_scheduled()) {
    serial = next_op_serial(l);
    ll.awaiting_serial = serial;
    ll.req_op_id = track_mgr_op(
        l, mgr, serial, [this, l, req_vt, serial](ProcId nm) {
          m_.post(self_, nm, kCtl + req_vt->size() * 4,
                  m_.params().list_processing_per_elem * 2,
                  [this, l, p = self_, req_vt, serial, nm] {
                    mgr_route_request(l, p, req_vt, serial, nm);
                  });
        });
  }
  send_from_app(mgr, kCtl + vt_bytes, params.list_processing_per_elem * 2,
                [this, l, p = self_, req_vt, serial, mgr] {
                  mgr_route_request(l, p, req_vt, serial, mgr);
                },
                sim::Bucket::kSynch);

  proc().wait(sim::Bucket::kSynch, [&ll] { return ll.grant_ready; });
  proc().advance(invalidations_pending_cost_, sim::Bucket::kSynch);
  invalidations_pending_cost_ = 0;
}

void TmProtocol::mgr_route_request(LockId l, ProcId requester,
                                   std::shared_ptr<VectorTime> req_vt,
                                   std::uint64_t serial, ProcId mgr_at) {
  // Manager: score the event, then route to the owner hint (or grant the
  // very first request directly). If a crash failover re-elected the
  // manager after this message was sent, forward one hop: the hint shard
  // now belongs to the new manager.
  const ProcId mgr = m_.lock_manager(l);
  if (mgr != mgr_at) {
    m_.post(mgr_at, mgr, kCtl + req_vt->size() * 4,
            m_.params().list_processing_per_elem * 2,
            [this, l, requester, req_vt, serial, mgr] {
              mgr_route_request(l, requester, req_vt, serial, mgr);
            });
    return;
  }
  sh_->lap_of(l).count_acquire_event();
  std::map<LockId, ProcId>& hints = sh_->hint_shard(l, mgr);
  auto it = hints.find(l);
  if (it == hints.end()) {
    hints[l] = requester;
    policy::lap_score_grant(sh_->lap_of(l), kNoProc, requester);
    m_.post(mgr, requester, kCtl, m_.params().list_processing_per_elem,
            [this, l, requester, serial] {
              peer(requester).recv_grant(l, {}, {}, serial);
            });
    return;
  }
  const ProcId hint = it->second;
  m_.post(mgr, hint, kCtl + req_vt->size() * 4,
          m_.params().list_processing_per_elem * 2,
          [this, l, requester, hint, req_vt, serial] {
            peer(hint).lock_request_arrive(l, requester, *req_vt, serial);
          });
}

void TmProtocol::mgr_set_hint(LockId l, ProcId p, ProcId mgr_at) {
  const ProcId mgr = m_.lock_manager(l);
  if (mgr != mgr_at) {
    m_.post(mgr_at, mgr, kCtl, m_.params().list_processing_per_elem,
            [this, l, p, mgr] { mgr_set_hint(l, p, mgr); });
    return;
  }
  sh_->hint_shard(l, mgr)[l] = p;
}

bool TmProtocol::duplicate_waiter(const LockLocal& ll, ProcId requester,
                                  std::uint64_t serial) const {
  if (!crash_scheduled()) return false;
  for (const Waiter& w : ll.waiting) {
    if (w.p == requester && w.serial == serial) return true;
  }
  return false;
}

void TmProtocol::lock_request_arrive(LockId l, ProcId requester, VectorTime req_vt,
                                     std::uint64_t serial) {
  LockLocal& ll = locks_[l];
  if (!ll.owner) {
    // Crash failover replays can deliver the same request twice; if this
    // node already granted to the requester for this serial, the (possibly
    // stale) grant is on its way — drop the duplicate here instead of
    // chasing our own hand-off pointer back to the requester.
    if (crash_scheduled() && ll.handed_to == requester &&
        ll.handed_serial == serial) {
      return;
    }
    if (ll.handed_to == kNoProc) {
      // A grant addressed to this node is still in flight (a forwarded
      // request overtook it); park the request — it is served like any
      // queued waiter once the grant lands and the critical section ends.
      if (duplicate_waiter(ll, requester, serial)) return;
      sh_->lap_of(l).enqueue_waiter(requester);
      ll.waiting.push_back(Waiter{requester, std::move(req_vt), serial});
      trace_counter(trace::names::kLockQueueDepth, m_.engine().now(),
                    ll.waiting.size());
      return;
    }
    const ProcId next = ll.handed_to;
    post_dynamic(self_, next, kCtl + req_vt.size() * 4,
                 [this] { return m_.params().list_processing_per_elem * 2; },
                 [this, l, requester, next, serial,
                  rv = std::move(req_vt)]() mutable {
                   peer(next).lock_request_arrive(l, requester, std::move(rv),
                                                  serial);
                 });
    return;
  }
  if (ll.in_cs) {
    if (duplicate_waiter(ll, requester, serial)) return;
    sh_->lap_of(l).enqueue_waiter(requester);
    ll.waiting.push_back(Waiter{requester, std::move(req_vt), serial});
    trace_counter(trace::names::kLockQueueDepth, m_.engine().now(),
                  ll.waiting.size());
    return;
  }
  serve_grant(l, requester, req_vt, /*engine_side=*/true, serial);
}

void TmProtocol::serve_grant(LockId l, ProcId requester, const VectorTime& req_vt,
                             bool engine_side, std::uint64_t serial) {
  LockLocal& ll = locks_[l];
  AECDSM_CHECK(ll.owner && !ll.in_cs);

  end_interval();
  std::vector<NoticeEntry> entries;
  for (const NoticeEntry& e : log_) {
    if (e.vt[static_cast<std::size_t>(e.writer)] >
        req_vt[static_cast<std::size_t>(e.writer)]) {
      entries.push_back(e);
    }
  }

  // Score LAP against realized transfers (TreadMarks never acts on it).
  policy::lap_score_grant(sh_->lap_of(l), self_, requester);

  ll.owner = false;
  ll.handed_to = requester;
  ll.handed_serial = serial;

  std::size_t bytes = kCtl + vt_.size() * 4;
  std::size_t total_pages = 0;
  for (const NoticeEntry& e : entries) {
    bytes += 8 + e.vt.size() * 4 + e.pages.size() * 8;
    total_pages += e.pages.size();
  }
  const Cycles work = m_.params().list_processing_per_elem *
                      (dirty_set_.size() + entries.size() + total_pages + 2);

  auto deliver = [this, l, requester, serial, entries = std::move(entries),
                  ovt = vt_]() mutable {
    peer(requester).recv_grant(l, std::move(entries), std::move(ovt), serial);
  };
  if (engine_side) {
    const Cycles done = proc().service(work + m_.params().message_overhead);
    m_.engine().schedule(done, [this, requester, bytes, d = std::move(deliver)]() mutable {
      m_.transport().send(self_, requester, bytes,
                        [this, requester, d = std::move(d)]() mutable {
                          const Cycles fin = m_.node(requester).proc->service(
                              m_.params().list_processing_per_elem * 2);
                          m_.engine().schedule(fin, std::move(d));
                        });
    });
  } else {
    proc().advance(work + m_.params().message_overhead, sim::Bucket::kSynch);
    proc().sync();
    m_.post(self_, requester, bytes, m_.params().list_processing_per_elem * 2,
            std::move(deliver));
  }
}

void TmProtocol::recv_grant(LockId l, std::vector<NoticeEntry> entries,
                            VectorTime owner_vt, std::uint64_t serial) {
  LockLocal& ll = locks_[l];
  for (const NoticeEntry& e : entries) {
    if (absorb_entry(e)) apply_entry_invalidations(e);
  }
  if (!owner_vt.empty()) {
    for (std::size_t i = 0; i < vt_.size(); ++i) {
      vt_[i] = std::max(vt_[i], owner_vt[i]);
    }
  }

  const ProcId mgr = m_.lock_manager(l);
  if (crash_scheduled() && serial != ll.awaiting_serial) {
    // Stale grant: a request replayed after a manager failover was also
    // served along the original (recovered) route. Ownership genuinely
    // transferred — the granter gave up custody — so take it idle without
    // entering the critical section (the notices above are always sound to
    // absorb). Any requests parked here while the grant was in flight are
    // served now, release-style: front gets the lock, the rest chase it.
    if (!ll.owner) {
      ll.owner = true;
      ll.in_cs = false;
      ll.handed_to = kNoProc;
      m_.post(self_, mgr, kCtl, m_.params().list_processing_per_elem,
              [this, l, p = self_, mgr] { mgr_set_hint(l, p, mgr); });
      if (!ll.waiting.empty()) {
        Waiter head = std::move(ll.waiting.front());
        ll.waiting.pop_front();
        sh_->lap_of(l).dequeue_waiter();
        std::deque<Waiter> rest;
        rest.swap(ll.waiting);
        trace_counter(trace::names::kLockQueueDepth, m_.engine().now(), 0);
        serve_grant(l, head.p, head.vt, /*engine_side=*/true, head.serial);
        for (Waiter& w : rest) {
          sh_->lap_of(l).dequeue_waiter();
          m_.post(self_, head.p, kCtl + w.vt.size() * 4,
                  m_.params().list_processing_per_elem * 2,
                  [this, l, q = head.p, w = std::move(w)]() mutable {
                    peer(q).requeue_request(l, w.p, std::move(w.vt), w.serial);
                  });
        }
      }
    }
    return;
  }

  ll.owner = true;
  ll.in_cs = true;  // admission: forwarded requests now queue here
  ll.grant_ready = true;
  if (crash_scheduled()) {
    ll.awaiting_serial = 0;
    clear_mgr_op(ll.req_op_id);
    ll.req_op_id = 0;
  }

  // Keep the manager's owner hint fresh (shortens future chases).
  m_.post(self_, mgr, kCtl, m_.params().list_processing_per_elem,
          [this, l, p = self_, mgr] { mgr_set_hint(l, p, mgr); });

  proc().poke();
}

void TmProtocol::release(LockId l) {
  LockLocal& ll = locks_[l];
  AECDSM_CHECK(ll.owner && ll.in_cs);
  ll.in_cs = false;

  end_interval();
  proc().advance(m_.params().list_processing_per_elem * (dirty_set_.size() + 1),
                 sim::Bucket::kSynch);

  if (!ll.waiting.empty()) {
    Waiter head = std::move(ll.waiting.front());
    const ProcId q = head.p;
    ll.waiting.pop_front();
    // The scorer's FIFO mirrors this queue.
    sh_->lap_of(l).dequeue_waiter();
    serve_grant(l, q, head.vt, /*engine_side=*/false, head.serial);
    // Remaining waiters chase the new owner.
    std::deque<Waiter> rest;
    rest.swap(ll.waiting);
    trace_counter(trace::names::kLockQueueDepth, proc().now(), 0);
    for (Waiter& w : rest) {
      sh_->lap_of(l).dequeue_waiter();
      proc().advance(m_.params().message_overhead, sim::Bucket::kSynch);
      proc().sync();
      m_.transport().send(self_, q, kCtl + w.vt.size() * 4,
                        [this, l, q, w = std::move(w)]() mutable {
                          const Cycles done = m_.node(q).proc->service(
                              m_.params().list_processing_per_elem * 2);
                          m_.engine().schedule(done, [this, l, q,
                                                      w = std::move(w)]() mutable {
                            peer(q).requeue_request(l, w.p, std::move(w.vt),
                                                    w.serial);
                          });
                        });
    }
  }
}

void TmProtocol::requeue_request(LockId l, ProcId requester, VectorTime req_vt,
                                 std::uint64_t serial) {
  LockLocal& ll = locks_[l];
  if (!ll.owner) {
    if (crash_scheduled() && ll.handed_to == requester &&
        ll.handed_serial == serial) {
      return;  // duplicate of a request already granted (see lock_request_arrive)
    }
    if (ll.handed_to == kNoProc) {
      // Grant in flight to this node; park the request (see
      // lock_request_arrive).
      if (duplicate_waiter(ll, requester, serial)) return;
      sh_->lap_of(l).enqueue_waiter(requester);
      ll.waiting.push_back(Waiter{requester, std::move(req_vt), serial});
      trace_counter(trace::names::kLockQueueDepth, m_.engine().now(),
                    ll.waiting.size());
      return;
    }
    const ProcId next = ll.handed_to;
    post_dynamic(self_, next, kCtl + req_vt.size() * 4,
                 [this] { return m_.params().list_processing_per_elem * 2; },
                 [this, l, requester, next, serial,
                  rv = std::move(req_vt)]() mutable {
                   peer(next).requeue_request(l, requester, std::move(rv),
                                              serial);
                 });
    return;
  }
  if (ll.in_cs) {
    if (duplicate_waiter(ll, requester, serial)) return;
    sh_->lap_of(l).enqueue_waiter(requester);
    ll.waiting.push_back(Waiter{requester, std::move(req_vt), serial});
    trace_counter(trace::names::kLockQueueDepth, m_.engine().now(),
                  ll.waiting.size());
    return;
  }
  serve_grant(l, requester, req_vt, /*engine_side=*/true, serial);
}

std::vector<ProcId> TmProtocol::lock_sharers(LockId l, ProcId crashed) {
  // TreadMarks' manager state is just the owner hint; the last known owner
  // is the only node with lock-specific custody.
  std::vector<ProcId> out;
  auto& hints = sh_->hint_shard(l, crashed);
  auto it = hints.find(l);
  if (it != hints.end()) out.push_back(it->second);
  return out;
}

void TmProtocol::migrate_lock_state(LockId l, ProcId from, ProcId to) {
  // Only the owner hint lives at the manager; distributed waiting queues
  // stay with the surviving owners and need no reconstruction.
  sh_->migrate_hint(l, from, to);
}

// --------------------------------------------------------------------------
// Barriers
// --------------------------------------------------------------------------

void TmProtocol::barrier() {
  const auto& params = m_.params();
  end_interval();
  proc().advance(params.list_processing_per_elem * (dirty_set_.size() + 1),
                 sim::Bucket::kSynch);
  barrier_release_ = false;

  // Own notice entries created since the previous barrier (older ones are
  // already global knowledge).
  auto entries = std::make_shared<std::vector<NoticeEntry>>();
  std::size_t entry_pages = 0;
  for (const NoticeEntry& e : log_) {
    if (e.writer == self_ && e.vt[static_cast<std::size_t>(self_)] > last_barrier_own_) {
      entries->push_back(e);
      entry_pages += e.pages.size();
    }
  }
  auto vt_copy = std::make_shared<VectorTime>(vt_);
  const std::size_t bytes =
      kCtl + vt_.size() * 4 + entries->size() * (8 + vt_.size() * 4) + entry_pages * 8;
  send_from_app(m_.barrier_manager(), bytes,
                params.list_processing_per_elem * (entries->size() + entry_pages + 2),
                [this, p = self_, vt_copy, entries] {
                  mgr_barrier_arrive(p, *vt_copy, *entries);
                },
                sim::Bucket::kSynch);

  proc().wait(sim::Bucket::kSynch, [this] { return barrier_release_; });
  proc().advance(invalidations_pending_cost_, sim::Bucket::kSynch);
  invalidations_pending_cost_ = 0;
  last_barrier_own_ = vt_[static_cast<std::size_t>(self_)];
}

void TmProtocol::mgr_barrier_arrive(ProcId p, VectorTime vt,
                                    std::vector<NoticeEntry> entries) {
  auto& b = sh_->barrier;
  if (b.arrival_vt.empty()) {
    b.arrival_vt.assign(static_cast<std::size_t>(m_.nprocs()), VectorTime());
  }
  for (std::size_t i = 0; i < b.merged_vt.size(); ++i) {
    b.merged_vt[i] = std::max(b.merged_vt[i], vt[i]);
  }
  b.arrival_vt[static_cast<std::size_t>(p)] = std::move(vt);
  for (NoticeEntry& e : entries) b.entries.push_back(std::move(e));
  if (++b.arrived < m_.nprocs()) return;

  std::size_t total_pages = 0;
  for (const NoticeEntry& e : b.entries) total_pages += e.pages.size();
  const Cycles cost = m_.params().list_processing_per_elem *
                      (b.entries.size() * static_cast<std::size_t>(m_.nprocs()) +
                       total_pages + static_cast<std::size_t>(m_.nprocs()));
  const Cycles done = m_.node(m_.barrier_manager()).proc->service(cost);

  auto merged = std::make_shared<VectorTime>(b.merged_vt);
  for (int q = 0; q < m_.nprocs(); ++q) {
    // Entries this processor's clock has not covered.
    auto need = std::make_shared<std::vector<NoticeEntry>>();
    std::size_t need_pages = 0;
    const VectorTime& qvt = b.arrival_vt[static_cast<std::size_t>(q)];
    for (const NoticeEntry& e : b.entries) {
      if (e.vt[static_cast<std::size_t>(e.writer)] >
          qvt[static_cast<std::size_t>(e.writer)]) {
        need->push_back(e);
        need_pages += e.pages.size();
      }
    }
    const std::size_t bytes = kCtl + merged->size() * 4 +
                              need->size() * (8 + merged->size() * 4) + need_pages * 8;
    m_.engine().schedule(done, [this, q, bytes, merged, need] {
      m_.post(m_.barrier_manager(), q, bytes, m_.params().list_processing_per_elem * 2,
              [this, q, merged, need] {
                peer(q).recv_barrier_release(*merged, *need);
              });
    });
  }
  b.arrived = 0;
  b.entries.clear();
  for (auto& v : b.arrival_vt) v.clear();
  // merged_vt keeps growing monotonically; no reset needed.
}

void TmProtocol::recv_barrier_release(VectorTime merged,
                                      std::vector<NoticeEntry> entries) {
  for (std::size_t i = 0; i < vt_.size(); ++i) vt_[i] = std::max(vt_[i], merged[i]);
  for (const NoticeEntry& e : entries) {
    if (absorb_entry(e)) apply_entry_invalidations(e);
  }
  barrier_release_ = true;
  proc().poke();
}

// --------------------------------------------------------------------------
// Suite
// --------------------------------------------------------------------------

policy::ConsistencyPolicy TmSuite::default_policy() {
  const policy::ConsistencyPolicy* p = policy::find_policy("TreadMarks");
  AECDSM_CHECK(p != nullptr);
  return *p;
}

TmSuite::TmSuite(policy::ConsistencyPolicy pol) : pol_(std::move(pol)) {
  policy::validate(pol_);
  AECDSM_CHECK_MSG(pol_.family == policy::Family::kTmk,
                   "TmSuite asked to run non-TreadMarks policy '" << pol_.name << "'");
}

dsm::ProtocolSuite TmSuite::suite() {
  dsm::ProtocolSuite s;
  s.name = pol_.name;
  s.make = [this](dsm::Machine& m, ProcId p) -> std::unique_ptr<dsm::Protocol> {
    if (p == 0) shared_ = std::make_shared<TmShared>(m.params(), pol_);
    return std::make_unique<TmProtocol>(m, p, shared_);
  };
  return s;
}

}  // namespace aecdsm::tmk
