#include "aec/protocol.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <memory>

#include "common/bitset.hpp"
#include "common/check.hpp"
#include "common/log.hpp"
#include "dsm/system.hpp"
#include "locks/discipline.hpp"
#include "trace/recorder.hpp"

namespace aecdsm::aec {

// kCtl, trace_page() and trace_word() are inherited from the policy engine
// (policy/engine.hpp), which hoisted them out of the three protocols.

#define AECDSM_TRACE(pg, stream_expr)                       \
  do {                                                      \
    if ((pg) == trace_page()) AECDSM_DEBUG(stream_expr);    \
  } while (0)

AecProtocol::AecProtocol(dsm::Machine& m, ProcId self, std::shared_ptr<AecShared> shared)
    : policy::PolicyEngine(m, self, shared->policy),
      sh_(std::move(shared)),
      pages_(m.num_pages()) {
  interest_.assign((m.num_pages() + 7) / 8, 0);
  if (sh_->home.empty()) {
    sh_->home.resize(m.num_pages());
    for (PageId pg = 0; pg < m.num_pages(); ++pg) {
      sh_->home[pg] = static_cast<ProcId>(pg % static_cast<PageId>(m.nprocs()));
    }
    sh_->barrier.arrival.resize(static_cast<std::size_t>(m.nprocs()));
    sh_->nodes.resize(static_cast<std::size_t>(m.nprocs()), nullptr);
  }
  sh_->nodes[static_cast<std::size_t>(self)] = this;
  dsm::init_round_robin_validity(m, self);
}

AecProtocol::~AecProtocol() = default;

std::string AecProtocol::name() const { return pol_.name; }

// --------------------------------------------------------------------------
// Low-level helpers
// --------------------------------------------------------------------------

void AecProtocol::push_from_app(ProcId to, std::size_t bytes, Cycles svc_cost,
                                std::function<void()> handler, sim::Bucket bucket) {
  proc().advance(m_.params().message_overhead, bucket);
  proc().sync();
  if (trace::Recorder* tr = m_.recorder()) {
    tr->instant(self_, trace::Category::kLap, trace::names::kLapPush,
                proc().now(), "dst", static_cast<std::uint64_t>(to), "bytes",
                bytes);
  }
  m_.post_best_effort(self_, to, bytes, svc_cost, std::move(handler));
}

bool AecProtocol::wait_for_push_or_timeout(LockLocal& ll, sim::Bucket bucket) {
  // The deadline flag is shared-owned: the timer may fire long after this
  // frame returned (there is no event cancellation).
  auto deadline_hit = std::make_shared<bool>(false);
  m_.engine().schedule(m_.engine().now() + m_.params().faults.push_timeout_cycles,
                       [this, deadline_hit] {
                         *deadline_hit = true;
                         proc().poke();
                       });
  proc().wait(bucket,
              [&ll, deadline_hit] { return !ll.expect_push || *deadline_hit; });
  if (!ll.expect_push) return true;
  // The push was lost (or is extremely late): stop waiting and degrade to
  // the noLAP lazy-fetch path. The abandoned push now counts as seen, so a
  // late copy landing after we fetched the diffs ourselves — and possibly
  // wrote over them in the critical section — is discarded as stale instead
  // of resurrecting the old chain state.
  ll.expect_push = false;
  ll.max_counter_seen = std::max(ll.max_counter_seen, ll.grant_release_counter);
  ++m_.transport().stats_for(self_).push_timeouts;
  return false;
}

void AecProtocol::flush_outside_page(PageId pg, bool hidden, sim::Bucket bucket) {
  PageMeta& pm = meta(pg);
  AECDSM_CHECK(pm.dirty_out);
  mem::Diff d = create_diff_charged(pg, hidden, bucket);
  // A still-lazy published generation shares this twin; materialize it
  // before the twin is refreshed (d covers its window too — conservative,
  // and sound for data-race-free programs).
  if (pm.pub_cur.lazy) {
    pm.pub_cur.diff = pm.pub_cur.diff.empty() ? d : mem::Diff::merge(pm.pub_cur.diff, d);
    pm.pub_cur.lazy = false;
  }
  if (pm.pub_prev.lazy) {
    pm.pub_prev.diff = pm.pub_prev.diff.empty() ? d : mem::Diff::merge(pm.pub_prev.diff, d);
    pm.pub_prev.lazy = false;
  }
  if (pm.stale_twin) {
    // d holds previous-step modifications that belong to the published
    // generations materialized above; they must not re-enter this step's
    // accumulator (republishing old values would overwrite newer writes).
    pm.stale_twin = false;
  } else {
    pm.out_acc = pm.out_acc.empty() ? std::move(d) : mem::Diff::merge(pm.out_acc, d);
  }
  // Twin refresh (reutilization) costs another page copy.
  proc().advance(m_.params().twin_create_cycles(), bucket);
  store().refresh_twin(pg);
  store().frame(pg).write_protected = true;
  pm.dirty_out = false;
  pm.reprotected_out = false;
  dirty_out_set_.erase(pg);
  trace_counter(trace::names::kDiffOutstanding, proc().now(),
                dirty_out_set_.size() + dirty_in_set_.size());
}

void AecProtocol::invalidate_page(PageId pg) {
  mem::PageFrame& f = store().frame(pg);
  AECDSM_TRACE(pg, "p" << self_ << " invalidate pg" << pg);
  AECDSM_CHECK(f.valid);
  f.valid = false;
  meta(pg).reconstructible = true;
  ctx().invalidate_cache_page(pg);
}

// --------------------------------------------------------------------------
// Access faults (§3.4)
// --------------------------------------------------------------------------

void AecProtocol::on_read_fault(PageId pg) { handle_fault(pg, /*is_write=*/false); }

void AecProtocol::on_write_fault(PageId pg) { handle_fault(pg, /*is_write=*/true); }

void AecProtocol::handle_fault(PageId pg, bool is_write) {
  // The fault trap itself.
  proc().advance(m_.params().interrupt_cycles, sim::Bucket::kData);
  resolve_base(pg);
  if (ctx().in_critical_section()) apply_cs_diff_if_needed(pg);
  if (is_write) write_twin_discipline(pg);
}

void AecProtocol::resolve_base(PageId pg) {
  PageMeta& pm = meta(pg);
  mem::PageFrame& f = store().frame(pg);
  if (f.valid) return;
  AECDSM_TRACE(pg, "p" << self_ << " resolve_base pg" << pg << " recon="
                       << pm.reconstructible << " notices=" << pm.notices.size()
                       << " nep=" << pm.notices_episode << " ep=" << episode_
                       << " home=p" << sh_->home[pg]);

  if (!pm.reconstructible) {
    // Cold or stale copy: fetch the page from its home (§3.4 "ask home").
    AECDSM_CHECK_MSG(pm.notices.empty() || pm.notices_episode != episode_,
                     "fresh notices on a non-reconstructible page");
    pm.notices.clear();
    ++m_.node(self_).faults.cold_faults;
    const ProcId h = sh_->home[pg];
    AECDSM_CHECK_MSG(h != self_, "home fetch from self for page " << pg);

    fetch_page_from_home(
        pg, h, sim::Bucket::kData,
        [this, h, pg](std::vector<Word>& buf) {
          AecProtocol& home = peer(h);
          home.meta(pg).request_seen = true;
          buf.assign(home.store().page_span(pg).begin(),
                     home.store().page_span(pg).end());
        },
        [this, pg] {
          AECDSM_TRACE(pg, "p" << self_ << " home-fetch pg" << pg << " frame[w"
                               << trace_word() << "]="
                               << store().frame(pg).data[trace_word()]);
          // The home's copy already includes this node's published
          // modifications; restart the twin from the fetched state so
          // future diffs cover only genuinely new local writes.
          mem::PageFrame& f = store().frame(pg);
          if (f.has_twin()) *f.twin = f.data;
        });
    pm.reconstructible = true;
    ctx().invalidate_cache_page(pg);
  }

  apply_notice_diffs(pg, sim::Bucket::kData);
  f.valid = true;
  pm.reconstructible = false;
}

void AecProtocol::apply_notice_diffs(PageId pg, sim::Bucket bucket) {
  PageMeta& pm = meta(pg);
  if (pm.notices.empty()) return;
  AECDSM_CHECK_MSG(pm.notices_episode == episode_,
                   "stale write notices survived cleanup for page " << pg);
  const auto& params = m_.params();
  const std::uint32_t want_episode = episode_;  // diffs published at our last barrier

  struct Fetch {
    std::shared_ptr<mem::Diff> diff = std::make_shared<mem::Diff>();
    bool done = false;
  };
  std::vector<Fetch> fetches(pm.notices.size());
  int pending = static_cast<int>(pm.notices.size());

  proc().advance(params.message_overhead * pm.notices.size(), bucket);
  proc().sync();
  for (std::size_t i = 0; i < pm.notices.size(); ++i) {
    const ProcId w = pm.notices[i];
    Fetch& fx = fetches[i];
    post_dynamic(
        self_, w, kCtl,
        [this, w, pg, want_episode, &fx] {
          Cycles cost = 0;
          *fx.diff = peer(w).serve_published(pg, want_episode, cost);
          return cost;
        },
        [this, w, pg, &fx, &pending] {
          post_dynamic(
              w, self_, kCtl + fx.diff->encoded_bytes(),
              [this] { return m_.params().list_processing_per_elem * 2; },
              [this, &fx, &pending] {
                fx.done = true;
                --pending;
                proc().poke();
              });
        });
  }
  proc().wait(bucket, [&pending] { return pending == 0; });
  for (Fetch& fx : fetches) {
    apply_diff_charged(pg, *fx.diff, /*hidden=*/false, bucket);
  }
  pm.notices.clear();
}

mem::Diff AecProtocol::serve_published(PageId pg, std::uint32_t episode, Cycles& cost) {
  PageMeta& pm = meta(pg);
  AECDSM_TRACE(pg, "p" << self_ << " serve_published pg" << pg << " ep=" << episode
                       << " cur.ep=" << pm.pub_cur.episode << " lazy=" << pm.pub_cur.lazy
                       << " prev.ep=" << pm.pub_prev.episode << " frame[0,6,7]="
                       << store().frame(pg).data[0] << "," << store().frame(pg).data[6] << "," << store().frame(pg).data[7]
                       << " twin[6]="
                       << (store().frame(pg).has_twin() ? (*store().frame(pg).twin)[6] : 0));
  pm.request_seen = true;
  PublishedGen* g = nullptr;
  if (pm.pub_cur.episode == episode) g = &pm.pub_cur;
  else if (pm.pub_prev.episode == episode) g = &pm.pub_prev;
  AECDSM_CHECK_MSG(g != nullptr, "no published diff for page " << pg << " episode "
                                                               << episode);
  if (!g->lazy) {
    cost = m_.params().list_processing_per_elem * 2;
    return g->diff;
  }
  // Deferred publication: diff on demand against the live twin (server pays).
  mem::Diff live = service_diff_create(pg, cost);
  return g->diff.empty() ? live : mem::Diff::merge(g->diff, live);
}

const mem::Diff* AecProtocol::serve_merged(LockId l, PageId pg) {
  if (pg == trace_page()) {
    auto it = locks_.find(l);
    long tw = -2;
    if (it != locks_.end()) {
      auto jt = it->second.merged.find(pg);
      if (jt != it->second.merged.end()) {
        tw = -1;
        for (const auto& r : jt->second.runs()) {
          if (r.word_offset <= trace_word() &&
              trace_word() < r.word_offset + r.words.size()) {
            tw = static_cast<long>(r.words[trace_word() - r.word_offset]);
          }
        }
      }
    }
    AECDSM_DEBUG("p" << self_ << " serve_merged l" << l << " pg" << pg << " diff[w"
                     << trace_word() << "]=" << tw);
  }
  meta(pg).request_seen = true;
  auto it = locks_.find(l);
  if (it == locks_.end()) return nullptr;
  auto jt = it->second.merged.find(pg);
  return jt == it->second.merged.end() ? nullptr : &jt->second;
}

void AecProtocol::apply_cs_diff_if_needed(PageId pg) {
  const auto& params = m_.params();
  for (auto it = cs_stack_.rbegin(); it != cs_stack_.rend(); ++it) {
    const LockId l = *it;
    LockLocal& ll = llocal(l);
    if (!ll.grant_ready) continue;
    auto ht = ll.cs_holders.find(pg);
    if (ht == ll.cs_holders.end()) continue;
    const ProcId holder = ht->second;
    if (ll.chain_applied.count(pg) != 0) return;
    if (ll.expect_push && holder == ll.grant_last_releaser &&
        ll.merged.count(pg) == 0) {
      // The grant announced a push covering the releaser's pages; it is in
      // flight, and waiting for it is cheaper than re-fetching the diffs.
      if (!m_.transport().enabled()) {
        proc().wait(sim::Bucket::kData, [&ll] { return !ll.expect_push; });
      } else if (!wait_for_push_or_timeout(ll, sim::Bucket::kData)) {
        // Best-effort push lost: degrade to the noLAP lazy holder fetch.
        ++m_.transport().stats_for(self_).push_fallbacks;
      }
    }
    if (auto mt = ll.merged.find(pg); mt != ll.merged.end()) {
      // The chain diff is already in local custody (push fold, fetch, or an
      // earlier ownership); it may not have reached the frame yet — even
      // when this node is the recorded holder.
      apply_diff_charged(pg, mt->second, /*hidden=*/false, sim::Bucket::kData);
      ll.chain_applied.insert(pg);
      return;
    }
    AECDSM_CHECK_MSG(holder != self_,
                     "recorded holder p" << self_ << " lacks custody of page " << pg);
    // Fetch the merged chain diff from its holder.
    proc().advance(params.message_overhead, sim::Bucket::kData);
    proc().sync();
    bool done = false;
    auto buf = std::make_shared<mem::Diff>();
    post_dynamic(
        self_, holder, kCtl,
        [this, holder, l, pg, buf] {
          const mem::Diff* d = peer(holder).serve_merged(l, pg);
          AECDSM_CHECK_MSG(d != nullptr, "chain diff missing at holder " << holder
                                                                         << " page " << pg);
          *buf = *d;
          return m_.params().list_processing_per_elem * 2;
        },
        [this, holder, buf, &done] {
          post_dynamic(
              holder, self_, kCtl + buf->encoded_bytes(),
              [this] { return m_.params().list_processing_per_elem * 2; },
              [this, &done] {
                done = true;
                proc().poke();
              });
        });
    proc().wait(sim::Bucket::kData, [&done] { return done; });
    apply_diff_charged(pg, *buf, /*hidden=*/false, sim::Bucket::kData);
    ll.merged[pg] = std::move(*buf);
    ll.chain_applied.insert(pg);
    return;
  }
}

void AecProtocol::write_twin_discipline(PageId pg) {
  PageMeta& pm = meta(pg);
  mem::PageFrame& f = store().frame(pg);
  const bool in_cs = ctx().in_critical_section();
  if (!f.write_protected && f.valid) return;  // resolved by an earlier path

  if (pm.dirty_out) {
    // §3.4 careful path: the page carries un-diffed outside modifications
    // (it was re-protected at acquire without flushing, or this is the
    // first write inside the CS to a page with outside mods). Create the
    // outside diff first so inside and outside modifications stay separate.
    AECDSM_CHECK(f.has_twin());
    mem::Diff d = create_diff_charged(pg, /*hidden=*/false, sim::Bucket::kData);
    if (pm.pub_cur.lazy) {
      pm.pub_cur.diff = pm.pub_cur.diff.empty() ? d : mem::Diff::merge(pm.pub_cur.diff, d);
      pm.pub_cur.lazy = false;
    }
    if (pm.pub_prev.lazy) {
      pm.pub_prev.diff =
          pm.pub_prev.diff.empty() ? d : mem::Diff::merge(pm.pub_prev.diff, d);
      pm.pub_prev.lazy = false;
    }
    if (pm.stale_twin) {
      // Previous-step modifications: generations only (see flush path).
      pm.stale_twin = false;
    } else {
      pm.out_acc = pm.out_acc.empty() ? std::move(d) : mem::Diff::merge(pm.out_acc, d);
    }
    proc().advance(m_.params().twin_create_cycles(), sim::Bucket::kData);
    store().refresh_twin(pg);
    pm.dirty_out = false;
    pm.reprotected_out = false;
    dirty_out_set_.erase(pg);
  }
  if (!f.has_twin()) {
    make_twin_charged(pg, sim::Bucket::kData);
  }
  if (in_cs) {
    AECDSM_CHECK(!cs_stack_.empty());
    pm.dirty_in = true;
    pm.inside_lock = cs_stack_.back();
    dirty_in_set_.insert(pg);
  } else {
    pm.dirty_out = true;
    dirty_out_set_.insert(pg);
    outside_mod_pages_.insert(pg);
  }
  trace_counter(trace::names::kDiffOutstanding, proc().now(),
                dirty_out_set_.size() + dirty_in_set_.size());
  f.write_protected = false;
}

// --------------------------------------------------------------------------
// Locks
// --------------------------------------------------------------------------

void AecProtocol::acquire_notice(LockId l) {
  const ProcId mgr = m_.lock_manager(l);
  send_from_app(mgr, kCtl, m_.params().list_processing_per_elem * 2,
                [this, l, p = self_, mgr] { mgr_handle_notice(l, p, mgr); },
                sim::Bucket::kSynch);
}

void AecProtocol::acquire(LockId l) {
  const auto& params = m_.params();
  LockLocal& ll = llocal(l);
  ll.grant_ready = false;
  ll.grant_processed = false;
  ll.cs_holders.clear();
  ll.my_update_set.clear();

  const ProcId mgr = m_.lock_manager(l);
  std::uint64_t serial = 0;
  if (crash_scheduled()) {
    serial = next_op_serial(l);
    ll.awaiting_serial = serial;
    ll.cur_serial = serial;
    // The replay rides the engine (a NIC-autonomous re-send to the
    // re-elected manager); the app thread is blocked inside this very
    // acquire and must not be charged again.
    ll.req_op_id = track_mgr_op(
        l, mgr, serial, [this, l, serial](ProcId nm) {
          m_.post(self_, nm, kCtl, m_.params().list_processing_per_elem * 4,
                  [this, l, p = self_, serial, nm] {
                    mgr_handle_request(l, p, serial, nm);
                  });
        });
  }
  send_from_app(mgr, kCtl, params.list_processing_per_elem * 4,
                [this, l, p = self_, serial, mgr] {
                  mgr_handle_request(l, p, serial, mgr);
                },
                sim::Bucket::kSynch);

  // Overlap the wait for the grant: first apply already-received pushes to
  // valid pages, then flush outside modifications into diffs (§3.2).
  auto next_push_page = [&]() -> PageId {
    if (!ll.push_valid) return kNoPage;
    for (const auto& [pg, d] : ll.push) {
      if (ll.chain_applied.count(pg) == 0 && store().frame(pg).valid) return pg;
    }
    return kNoPage;
  };
  for (;;) {
    proc().sync();
    if (ll.grant_ready) break;
    if (const PageId pg = next_push_page(); pg != kNoPage) {
      // Copy the diff: a fresher push may replace ll.push while the apply
      // cost is being charged (the sync lets engine events run).
      const std::uint32_t counter_before = ll.push_counter;
      const mem::Diff d = ll.push.at(pg);
      apply_diff_charged(pg, d, /*hidden=*/true, sim::Bucket::kSynch);
      if (ll.push_valid && ll.push_counter == counter_before) {
        ll.chain_applied.insert(pg);
      }
      continue;
    }
    if (!dirty_out_set_.empty()) {
      const PageId pg = *dirty_out_set_.begin();
      flush_outside_page(pg, /*hidden=*/true, sim::Bucket::kSynch);
      meta(pg).flushed_at_acquire = true;
      ll.protected_at_acquire.push_back(pg);
      continue;
    }
    proc().wait(sim::Bucket::kSynch, [&] {
      return ll.grant_ready || next_push_page() != kNoPage;
    });
  }

  // Re-protect outside-dirty pages that the overlap did not get to; their
  // first write inside the CS takes the §3.4 careful path.
  for (const PageId pg : std::vector<PageId>(dirty_out_set_.begin(), dirty_out_set_.end())) {
    store().frame(pg).write_protected = true;
    meta(pg).reprotected_out = true;
    ll.protected_at_acquire.push_back(pg);
    proc().advance(params.list_processing_per_elem, sim::Bucket::kSynch);
  }

  const ProcId last = ll.grant_last_releaser;
  AECDSM_DEBUG("p" << self_ << " granted l" << l << " counter=" << ll.grant_counter
                   << " last=" << last << " push_valid=" << llocal(l).push_valid
                   << " push_from=" << llocal(l).push_from
                   << " holders=" << ll.cs_holders.size());
  if (last != self_ && last != kNoProc) {
    const bool confirmed = pol_.lap_pushes() && ll.push_valid &&
                           ll.push_from == last &&
                           ll.push_counter == ll.grant_release_counter;
    if (confirmed) ll.expect_push = false;  // the push arrived before processing
    if (!confirmed && !ll.expect_push) {
      // Speculatively applied pushes were chain prefixes (harmless); the
      // cs_holders sweep below invalidates anything possibly stale.
      ll.push_valid = false;
      ll.push.clear();
      ll.chain_applied.clear();
    }
    // Rebuild the merged-chain custody: confirmed push pages, plus pages
    // whose freshest holder is this node.
    std::map<PageId, mem::Diff> fresh;
    std::map<PageId, mem::Diff> push_copy;
    if (confirmed) {
      push_copy = ll.push;
      for (const auto& [pg, d] : ll.push) fresh[pg] = d;
      proc().advance(params.list_processing_per_elem * ll.push.size(),
                     sim::Bucket::kSynch);
    }
    for (const auto& [pg, holder] : ll.cs_holders) {
      if (holder != self_) continue;
      auto it = ll.merged.find(pg);
      AECDSM_CHECK_MSG(it != ll.merged.end(),
                       "manager thinks p" << self_ << " holds diff of page " << pg);
      fresh[pg] = std::move(it->second);
    }
    ll.merged = std::move(fresh);

    for (const auto& [pg, holder] : ll.cs_holders) {
      if (holder == self_) continue;  // chain_applied already tracks our frame
      const bool covered = confirmed && push_copy.count(pg) != 0;
      if (covered) {
        if (ll.chain_applied.count(pg) == 0 && store().frame(pg).valid) {
          apply_diff_charged(pg, push_copy.at(pg), /*hidden=*/false,
                             sim::Bucket::kSynch);
          ll.chain_applied.insert(pg);
        }
        // Invalid pages keep the diff pending in ll.merged for fault time.
      } else {
        if (store().frame(pg).valid) {
          invalidate_page(pg);
          proc().advance(params.list_processing_per_elem, sim::Bucket::kSynch);
        }
        // An unconfirmed (late or lost) push may have been applied
        // speculatively before this grant; its chain_applied entry is stale
        // now that the page left local custody, and keeping it would make
        // the in-CS fault path skip the lazy holder fetch and read pre-chain
        // data. No-op on a lossless mesh: the announced push always lands
        // before the grant there, so unconfirmed grants arrive with an empty
        // chain_applied set.
        ll.chain_applied.erase(pg);
      }
    }
    ll.push_valid = false;
    ll.push.clear();
  } else {
    // Reacquisition by the last releaser (or a fresh post-barrier lock):
    // local state is already current.
    ll.push_valid = false;
    ll.push.clear();
    ll.expect_push = false;
  }

  if (sh_->strategy == aecdsm::locks::Strategy::kMcs) {
    // Links chained behind past tenures were consumed (or superseded by a
    // manager-path grant that raced the LINK); only the current tenure's
    // link — possibly not arrived yet — can still matter.
    ll.mcs_links.erase(ll.mcs_links.begin(),
                       ll.mcs_links.lower_bound(ll.grant_counter));
  }
  ll.grant_processed = true;
  owned_this_step_.insert(l);
  cs_stack_.push_back(l);
}

void AecProtocol::release(LockId l) {
  const auto& params = m_.params();
  LockLocal& ll = llocal(l);

  // An announced push that has not landed yet carries chain diffs this
  // release must merge and hand on; it is already in flight, so the wait is
  // short and bounded. Under fault injection the push may never arrive: give
  // up after the push timeout and release without the predecessor's diffs —
  // the manager still records the predecessor as their holder, so later
  // acquirers fetch them lazily.
  if (ll.expect_push) {
    if (!m_.transport().enabled()) {
      proc().wait(sim::Bucket::kSynch, [&ll] { return !ll.expect_push; });
    } else {
      wait_for_push_or_timeout(ll, sim::Bucket::kSynch);
    }
  }

  // 1. Diffs of pages modified inside the critical section. The paper notes
  //    this work cannot be overlapped (the next acquirer must not see stale
  //    data), so it is exposed on the releaser.
  std::vector<PageId> inside;
  for (const PageId pg : dirty_in_set_) {
    if (meta(pg).inside_lock == l) inside.push_back(pg);
  }
  for (const PageId pg : inside) {
    mem::Diff d = create_diff_charged(pg, /*hidden=*/false, sim::Bucket::kSynch);
    auto it = ll.merged.find(pg);
    if (it == ll.merged.end()) {
      ll.merged.emplace(pg, std::move(d));
    } else {
      it->second = mem::Diff::merge(it->second, d);
      ++dstats_.merged_diffs;  // this release's diff merged with the chain's
      ++dstats_.merged_result_count;
      dstats_.merged_result_bytes += it->second.encoded_bytes();
      proc().advance(params.list_processing_per_elem, sim::Bucket::kSynch);
      if (trace::Recorder* tr = m_.recorder()) {
        tr->instant(self_, trace::Category::kDiff, trace::names::kDiffMerge,
                    proc().now(), "page", pg, "lock", l);
      }
    }
    PageMeta& pm = meta(pg);
    pm.dirty_in = false;
    dirty_in_set_.erase(pg);
    store().frame(pg).write_protected = true;
    store().drop_twin(pg);
    ll.chain_applied.insert(pg);
  }

  // 2. Unprotect pages protected at acquire but not modified inside the CS;
  //    their diffs are discarded and twins reutilized (§3.2).
  for (const PageId pg : ll.protected_at_acquire) {
    PageMeta& pm = meta(pg);
    const bool was_inside =
        std::find(inside.begin(), inside.end(), pg) != inside.end();
    if (was_inside || pm.dirty_in) continue;
    store().frame(pg).write_protected = false;
    if (pm.flushed_at_acquire) {
      pm.dirty_out = true;
      dirty_out_set_.insert(pg);
      pm.flushed_at_acquire = false;
    }
    pm.reprotected_out = false;
    proc().advance(params.list_processing_per_elem, sim::Bucket::kSynch);
  }
  ll.protected_at_acquire.clear();

  // 3. Push the merged diffs to the update set (LAP channel). The push is
  //    sent even when empty: a grant may have announced it, and the member
  //    blocks faults until it arrives (bounded by the push timeout under
  //    fault injection — pushes ride the best-effort channel and may be
  //    lost, in which case the member degrades to lazy fetching).
  if (pol_.lap_pushes() && !ll.my_update_set.empty()) {
    auto payload = std::make_shared<std::map<PageId, mem::Diff>>(ll.merged);
    std::size_t bytes = kCtl;
    for (const auto& [pg, d] : *payload) bytes += 8 + d.encoded_bytes();
    for (const ProcId q : ll.my_update_set) {
      if (q == self_) continue;
      const std::uint32_t counter = ll.grant_counter;
      push_from_app(q, bytes, params.list_processing_per_elem * payload->size(),
                    [this, q, l, counter, ep = episode_, payload] {
                      peer(q).recv_push(l, self_, counter, ep, payload);
                    },
                    sim::Bucket::kSynch);
    }
  }

  // 4. Hand the lock back to the manager with the merged page list, and
  //    remember the same list for the barrier arrival report (the barrier
  //    manager routes diffs from arrival reports so that releases still in
  //    flight cannot skew the routing).
  std::vector<PageId> pages;
  pages.reserve(ll.merged.size());
  for (const auto& [pg, d] : ll.merged) pages.push_back(pg);
  release_info_[l] = ArrivalLockInfo{l, ll.grant_counter, pages};
  const ProcId mgr = m_.lock_manager(l);

  // mcs: when the manager linked a successor behind this tenure, hand the
  // lock to it directly — one point-to-point message carrying the release
  // page list plus the grant payload (the successor reads the holder map
  // from the shared record; the bytes model the grant delta it would have
  // received from the manager). The successor performs the manager-record
  // bookkeeping on its own node. Disabled under a crash schedule: handoffs
  // then stay on the manager path the failover chain replays.
  if (sh_->strategy == aecdsm::locks::Strategy::kMcs && !crash_scheduled()) {
    if (auto lit = ll.mcs_links.find(ll.grant_counter); lit != ll.mcs_links.end()) {
      const ProcId succ = lit->second;
      ll.mcs_links.erase(lit);
      send_from_app(succ, kCtl + 8 * pages.size() + 32 + 12 * pages.size(),
                    params.list_processing_per_elem * (pages.size() + 4),
                    [this, l, p = self_, pages, ep = episode_, succ] {
                      peer(succ).recv_direct_handoff(l, p, pages, ep);
                    },
                    sim::Bucket::kSynch);
      auto sit = std::find(cs_stack_.rbegin(), cs_stack_.rend(), l);
      AECDSM_CHECK(sit != cs_stack_.rend());
      cs_stack_.erase(std::next(sit).base());
      return;
    }
  }

  const std::uint64_t serial = crash_scheduled() ? ll.cur_serial : 0;
  if (serial != 0) {
    // The release op stays tracked until the manager's crash-gated
    // confirmation lands; a manager crash replays it to the successor so
    // the FIFO hand-off is not lost with the crashed node.
    track_mgr_op(l, mgr, serial,
                 [this, l, pages, ep = episode_, serial](ProcId nm) {
                   m_.post(self_, nm, kCtl + 8 * pages.size(),
                           m_.params().list_processing_per_elem * (pages.size() + 2),
                           [this, l, p = self_, pages, ep, serial, nm] {
                             mgr_handle_release(l, p, pages, ep, serial, nm);
                           });
                 });
  }
  send_from_app(mgr, kCtl + 8 * pages.size(),
                params.list_processing_per_elem * (pages.size() + 2),
                [this, l, p = self_, pages, ep = episode_, serial, mgr] {
                  mgr_handle_release(l, p, pages, ep, serial, mgr);
                },
                sim::Bucket::kSynch);

  auto it = std::find(cs_stack_.rbegin(), cs_stack_.rend(), l);
  AECDSM_CHECK(it != cs_stack_.rend());
  cs_stack_.erase(std::next(it).base());
}

void AecProtocol::recv_grant(LockId l, ProcId last_releaser, std::uint32_t counter,
                             std::uint32_t release_counter,
                             std::map<PageId, ProcId> cs_holders,
                             std::vector<ProcId> update_set, bool in_update_set,
                             std::uint64_t serial) {
  LockLocal& ll = llocal(l);
  if (crash_scheduled()) {
    // Only the grant answering the outstanding request counts: duplicates
    // (the pre-crash manager's original racing the successor's rebuild, or
    // a resend triggered by a bounced stale request) are dropped.
    if (serial != ll.awaiting_serial) {
      AECDSM_DEBUG("p" << self_ << " drops grant l" << l << " serial=" << serial
                       << " awaiting=" << ll.awaiting_serial);
      return;
    }
    ll.awaiting_serial = 0;
    clear_mgr_op(ll.req_op_id);
    ll.req_op_id = 0;
  }
  ll.grant_last_releaser = last_releaser;
  ll.grant_counter = counter;
  ll.grant_release_counter = release_counter;
  ll.cs_holders = std::move(cs_holders);
  ll.my_update_set = std::move(update_set);
  // A push is announced; if it already arrived the grant path confirms it,
  // otherwise faults on the releaser's pages wait for it.
  ll.expect_push =
      in_update_set && !(ll.push_valid && ll.push_from == last_releaser &&
                         ll.push_counter == release_counter);
  ll.grant_ready = true;
  proc().poke();
}

void AecProtocol::fold_push(LockLocal& ll) {
  for (const auto& [pg, d] : ll.push) {
    ll.merged[pg] = d;  // cumulative chain diff: the push supersedes ours
  }
  ll.push_valid = false;
  ll.push.clear();
  ll.expect_push = false;
}

void AecProtocol::recv_push(LockId l, ProcId from, std::uint32_t counter,
                            std::uint32_t episode,
                            std::shared_ptr<const std::map<PageId, mem::Diff>> diffs) {
  LockLocal& ll = llocal(l);
  AECDSM_DEBUG("p" << self_ << " recv push l" << l << " from p" << from
                   << " counter=" << counter << " max_seen=" << ll.max_counter_seen);
  // Fault injection can hold a best-effort copy across a barrier; its diffs
  // are then stale against post-barrier frames and must not be applied. A
  // lossless mesh never does this, so the guard stays off to keep fault-free
  // runs bit-identical.
  if (m_.transport().enabled() && episode != episode_) return;
  if (counter <= ll.max_counter_seen) return;  // stale prediction, discard
  if (trace_page() != kNoPage) {
    auto it = diffs->find(trace_page());
    if (it != diffs->end()) {
      std::ostringstream os;
      for (const auto& r : it->second.runs()) {
        for (std::size_t k = 0; k < r.words.size(); ++k) {
          if (r.word_offset + k == trace_word()) {
            os << " w" << r.word_offset + k << "=" << r.words[k];
          }
        }
      }
      AECDSM_DEBUG("p" << self_ << " push-content l" << l << " c" << counter << os.str());
    }
  }
  ll.max_counter_seen = counter;
  ll.push_valid = true;
  ll.push_counter = counter;
  ll.push_from = from;
  ll.push = *diffs;
  ll.chain_applied.clear();
  // An announced push landing mid-critical-section joins the chain custody
  // immediately; waiting faults resume. Before the grant is processed the
  // normal confirmation path consumes the push instead.
  if (ll.grant_ready && ll.grant_processed && ll.expect_push &&
      from == ll.grant_last_releaser && counter == ll.grant_release_counter) {
    fold_push(ll);
  }
  proc().poke();
}

void AecProtocol::recv_mcs_link(LockId l, std::uint32_t pred_counter, ProcId succ) {
  // Store unconditionally: tenure counters are globally unique per lock, so
  // only the tenure whose grant carries `pred_counter` ever consumes this
  // entry. A link landing after its tenure already released the manager way
  // (the REL raced the LINK) goes stale and is pruned at the next grant.
  AECDSM_DEBUG("p" << self_ << " mcs link l" << l << " pred_counter="
                   << pred_counter << " succ=p" << succ);
  llocal(l).mcs_links[pred_counter] = succ;
}

void AecProtocol::recv_direct_handoff(LockId l, ProcId releaser,
                                      std::vector<PageId> pages,
                                      std::uint32_t episode) {
  const ProcId mgr = m_.lock_manager(l);
  LockRecord& rec = sh_->lock(l, mgr);
  AECDSM_DEBUG("p" << self_ << " direct handoff l" << l << " from p" << releaser
                   << " counter=" << rec.counter);
  // The releaser's LINK promised this node is the exact FIFO successor of
  // its tenure — true by construction in crash-free runs (mcs handoffs are
  // disabled under a crash schedule). Validate against the shared record
  // anyway and degrade to a plain manager-path release on any mismatch.
  if (!(rec.taken && rec.owner == releaser && rec.lap.has_waiters() &&
        rec.lap.waiting().front() == self_)) {
    if (sh_->collect_lock_stats()) {
      ++sh_->lockstats[static_cast<std::size_t>(self_)].fallback_rels;
    }
    m_.post(self_, mgr, kCtl + 8 * pages.size(),
            m_.params().list_processing_per_elem * (pages.size() + 2),
            [this, l, releaser, pages, episode, mgr] {
              mgr_handle_release(l, releaser, pages, episode, /*serial=*/0, mgr);
            });
    return;
  }

  // The manager-release half of mgr_handle_release, performed here on the
  // successor's node.
  if (episode >= rec.epoch) {
    rec.last_releaser = releaser;
    rec.last_release_counter = rec.counter;
    for (const PageId pg : pages) rec.diff_holder[pg] = releaser;
  }
  const ProcId to = rec.lap.dequeue_waiter();
  AECDSM_CHECK(to == self_);

  // The mgr_grant half, minus the reply message: this node IS the grantee.
  rec.owner = self_;  // rec.taken stays true across the handoff
  ++rec.counter;
  std::vector<ProcId> u =
      policy::lap_score_grant(rec.lap, rec.last_releaser, self_);
  rec.update_set[static_cast<std::size_t>(self_)] = u;
  if (trace::Recorder* tr = m_.recorder()) {
    tr->instant(self_, trace::Category::kLap, trace::names::kLapPredict,
                m_.engine().now(), "lock", l, "update_set", u.size());
    tr->instant(self_, trace::Category::kLock, trace::names::kLockHandoff,
                m_.engine().now(), "lock", l, "from",
                static_cast<std::uint64_t>(releaser));
  }
  bool in_update_set = false;
  if (pol_.lap_pushes() && rec.last_releaser != kNoProc &&
      rec.last_releaser != self_) {
    const auto& lu =
        rec.update_set[static_cast<std::size_t>(rec.last_releaser)];
    in_update_set = std::find(lu.begin(), lu.end(), self_) != lu.end();
  }
  if (sh_->collect_lock_stats()) {
    aecdsm::locks::note_grant(sh_->lockstats[static_cast<std::size_t>(self_)],
                              m_.params(), releaser, self_,
                              rec.lap.waiting_count(), /*direct_handoff=*/true,
                              /*skipped_head=*/false);
  }
  trace_counter(trace::names::kLockQueueDepth, m_.engine().now(),
                rec.lap.waiting_count());
  recv_grant(l, rec.last_releaser, rec.counter, rec.last_release_counter,
             rec.diff_holder, std::move(u), in_update_set, /*serial=*/0);
}

// --------------------------------------------------------------------------
// Lock manager (runs as services on the lock's manager node)
// --------------------------------------------------------------------------

void AecProtocol::mgr_handle_request(LockId l, ProcId requester,
                                     std::uint64_t serial, ProcId mgr_at) {
  const ProcId mgr = m_.lock_manager(l);
  if (mgr != mgr_at) {
    // A failover re-elected the manager after this message left: forward
    // one hop. The record now lives in the new manager's shard.
    m_.post(mgr_at, mgr, kCtl, m_.params().list_processing_per_elem,
            [this, l, requester, serial, mgr] {
              mgr_handle_request(l, requester, serial, mgr);
            });
    return;
  }
  LockRecord& rec = sh_->lock(l, mgr);
  AECDSM_DEBUG("mgr req l" << l << " from p" << requester << " serial=" << serial
                           << " taken=" << rec.taken << " owner=" << rec.owner);
  if (serial != 0) {
    // Crash-failover dedup (serials are only minted under a crash schedule).
    auto gt = rec.granted_serial.find(requester);
    if (gt != rec.granted_serial.end() && serial <= gt->second) {
      // The tenure this request started was already granted. If the
      // requester still owns the lock its grant was lost with the crashed
      // manager (or raced it): rebuild the reply idempotently. Otherwise
      // the tenure completed and this is a stale replay — drop it. A fresh
      // serial from the current owner (its release still in flight behind
      // this request) falls through and queues like any other waiter.
      if (serial == gt->second && rec.taken && rec.owner == requester) {
        AECDSM_DEBUG("mgr req l" << l << " rebuild lost grant p" << requester);
        mgr_send_grant(l, rec, requester);
      } else {
        AECDSM_DEBUG("mgr req l" << l << " drop stale p" << requester
                                 << " serial=" << serial);
      }
      return;
    }
    if (rec.lap.waiting_contains(requester)) {
      AECDSM_DEBUG("mgr req l" << l << " p" << requester << " already queued");
      return;
    }
    rec.req_serial[requester] = serial;
  }
  rec.lap.count_acquire_event();
  if (rec.taken) {
    if (sh_->strategy == aecdsm::locks::Strategy::kMcs && !crash_scheduled()) {
      // MCS: link the new waiter behind its queue predecessor so the
      // predecessor's release can hand the lock over point-to-point. Grants
      // are strict FIFO under mcs, so the predecessor's tenure counter is
      // known here: the current owner holds rec.counter and the i-th queued
      // waiter (1-based) will hold rec.counter + i. Disabled under a crash
      // schedule — handoffs then stay on the manager path the PR 9 failover
      // chain covers.
      const bool queue_empty = !rec.lap.has_waiters();
      const ProcId pred = queue_empty ? rec.owner : rec.lap.waiting().back();
      const std::uint32_t pred_counter =
          rec.counter + static_cast<std::uint32_t>(rec.lap.waiting_count());
      m_.post(mgr, pred, kCtl, m_.params().list_processing_per_elem,
              [this, l, pred, pred_counter, requester] {
                peer(pred).recv_mcs_link(l, pred_counter, requester);
              });
      if (sh_->collect_lock_stats()) {
        ++sh_->lockstats[static_cast<std::size_t>(mgr)].link_messages;
      }
    }
    rec.lap.enqueue_waiter(requester);
  } else {
    mgr_grant(l, requester);
    if (sh_->collect_lock_stats()) {
      aecdsm::locks::note_grant(sh_->lockstats[static_cast<std::size_t>(mgr)],
                                m_.params(), kNoProc, requester,
                                rec.lap.waiting_count(), /*direct_handoff=*/false,
                                /*skipped_head=*/false);
    }
  }
  trace_counter(trace::names::kLockQueueDepth, m_.engine().now(),
                rec.lap.waiting_count());
}

void AecProtocol::mgr_grant(LockId l, ProcId to) {
  LockRecord& rec = sh_->lock(l, m_.lock_manager(l));
  AECDSM_DEBUG("mgr grant l" << l << " -> p" << to);
  rec.taken = true;
  rec.owner = to;
  ++rec.counter;
  std::vector<ProcId> u = policy::lap_score_grant(rec.lap, rec.last_releaser, to);
  rec.update_set[static_cast<std::size_t>(to)] = std::move(u);
  if (trace::Recorder* tr = m_.recorder()) {
    tr->instant(m_.lock_manager(l), trace::Category::kLap,
                trace::names::kLapPredict, m_.engine().now(), "lock", l,
                "update_set", rec.update_set[static_cast<std::size_t>(to)].size());
  }
  if (crash_scheduled()) rec.granted_serial[to] = rec.req_serial[to];
  mgr_send_grant(l, rec, to);
}

void AecProtocol::mgr_send_grant(LockId l, LockRecord& rec, ProcId to) {
  // Is the acquirer in the last releaser's update set (i.e., is a push of
  // the merged diffs on its way)?
  bool in_update_set = false;
  if (pol_.lap_pushes() && rec.last_releaser != kNoProc &&
      rec.last_releaser != to) {
    const auto& lu = rec.update_set[static_cast<std::size_t>(rec.last_releaser)];
    in_update_set = std::find(lu.begin(), lu.end(), to) != lu.end();
  }

  std::uint64_t serial = 0;
  if (auto it = rec.granted_serial.find(to); it != rec.granted_serial.end()) {
    serial = it->second;
  }
  const ProcId mgr = m_.lock_manager(l);
  const std::size_t bytes = kCtl + 32 + rec.diff_holder.size() * 12;
  const Cycles svc = m_.params().list_processing_per_elem * (rec.diff_holder.size() + 2);
  m_.post(mgr, to, bytes, svc,
          [this, l, to, last = rec.last_releaser, counter = rec.counter,
           rel_counter = rec.last_release_counter, holders = rec.diff_holder,
           u = rec.update_set[static_cast<std::size_t>(to)], in_update_set,
           serial]() mutable {
            peer(to).recv_grant(l, last, counter, rel_counter, std::move(holders),
                                std::move(u), in_update_set, serial);
          });
}

void AecProtocol::mgr_handle_release(LockId l, ProcId releaser,
                                     std::vector<PageId> pages,
                                     std::uint32_t episode, std::uint64_t serial,
                                     ProcId mgr_at) {
  const ProcId mgr = m_.lock_manager(l);
  if (mgr != mgr_at) {
    m_.post(mgr_at, mgr, kCtl + 8 * pages.size(),
            m_.params().list_processing_per_elem,
            [this, l, releaser, pages, episode, serial, mgr] {
              mgr_handle_release(l, releaser, pages, episode, serial, mgr);
            });
    return;
  }
  LockRecord& rec = sh_->lock(l, mgr);
  if (serial != 0) {
    auto& last_rel = rec.released_serial[releaser];
    if (serial <= last_rel) {
      // Replayed or bounced duplicate of a processed release; re-confirm so
      // the releaser's pending op clears even when the first ack raced a
      // crash window.
      mgr_send_release_ack(l, releaser, serial);
      return;
    }
    last_rel = serial;
  }
  AECDSM_CHECK_MSG(rec.taken && rec.owner == releaser,
                   "release of lock " << l << " by non-owner p" << releaser);
  AECDSM_DEBUG("mgr release l" << l << " by p" << releaser << " pages=" << pages.size()
                               << " counter=" << rec.counter << " ep=" << episode);
  if (episode >= rec.epoch) {
    // Releases from before the last barrier reset carry stale chain data.
    rec.last_releaser = releaser;
    rec.last_release_counter = rec.counter;
    for (const PageId pg : pages) rec.diff_holder[pg] = releaser;
  }
  rec.taken = false;
  rec.owner = kNoProc;
  if (rec.lap.has_waiters()) {
    const aecdsm::locks::Pick pick =
        aecdsm::locks::pick_waiter(rec.lap.waiting(), sh_->strategy, releaser,
                                   m_.params(), rec.hier_streak);
    const ProcId to = rec.lap.dequeue_waiter_at(pick.index);
    mgr_grant(l, to);
    if (sh_->collect_lock_stats()) {
      aecdsm::locks::note_grant(sh_->lockstats[static_cast<std::size_t>(mgr)],
                                m_.params(), releaser, to,
                                rec.lap.waiting_count(), /*direct_handoff=*/false,
                                pick.skipped_head);
    }
  }
  trace_counter(trace::names::kLockQueueDepth, m_.engine().now(),
                rec.lap.waiting_count());
  if (serial != 0) mgr_send_release_ack(l, releaser, serial);
}

void AecProtocol::mgr_send_release_ack(LockId l, ProcId releaser,
                                       std::uint64_t serial) {
  // Crash-schedule-only confirmation: clears the releaser's tracked op so a
  // later manager crash does not replay an already-processed release.
  m_.post(m_.lock_manager(l), releaser, kCtl,
          m_.params().list_processing_per_elem, [this, l, releaser, serial] {
            peer(releaser).clear_mgr_op_by_serial(l, serial);
          });
}

void AecProtocol::mgr_handle_notice(LockId l, ProcId p, ProcId mgr_at) {
  if (!pol_.lap_virtual_queue) return;
  const ProcId mgr = m_.lock_manager(l);
  if (mgr != mgr_at) {
    m_.post(mgr_at, mgr, kCtl, m_.params().list_processing_per_elem,
            [this, l, p, mgr] { mgr_handle_notice(l, p, mgr); });
    return;
  }
  sh_->lock(l, mgr).lap.add_notice(p);
}

// --------------------------------------------------------------------------
// Crash failover (policy::PolicyEngine hooks)
// --------------------------------------------------------------------------

std::vector<ProcId> AecProtocol::lock_sharers(LockId l, ProcId crashed) {
  std::vector<ProcId> out;
  const LockRecord* rec = sh_->find_lock(l, crashed);
  if (rec == nullptr) return out;
  if (rec->taken && rec->owner != kNoProc) out.push_back(rec->owner);
  if (rec->last_releaser != kNoProc) out.push_back(rec->last_releaser);
  for (const auto& [pg, h] : rec->diff_holder) out.push_back(h);
  return out;
}

void AecProtocol::migrate_lock_state(LockId l, ProcId from, ProcId to) {
  sh_->migrate_lock(l, from, to);
  if (LockRecord* rec = sh_->find_lock(l, to)) {
    // The waiting/virtual queues die with the crashed manager's custody and
    // are rebuilt from the live requesters' replayed ops; affinity history,
    // chain custody and the grant/release serials are shared state that
    // survives the fail-stop window.
    rec->lap.reset_queues();
  }
}

// --------------------------------------------------------------------------
// Barriers
// --------------------------------------------------------------------------

void AecProtocol::on_page_access(PageId pg) {
  meta(pg).last_access_episode = episode_ + 1;
}

void AecProtocol::barrier() {
  const auto& params = m_.params();
  AECDSM_CHECK(cs_stack_.empty());

  // Arrival lists: per-lock chain reports (lock, acquire counter, merged
  // pages), pages written outside critical sections, and the validity
  // bitmap the manager routes by.
  std::vector<ArrivalLockInfo> lock_info;
  std::size_t lock_info_elems = 0;
  for (const auto& [l, info] : release_info_) {
    lock_info.push_back(info);
    lock_info_elems += 2 + info.pages.size();
  }
  std::vector<PageId> outside(outside_mod_pages_.begin(), outside_mod_pages_.end());
  std::vector<std::uint8_t> vmap((m_.num_pages() + 7) / 8, 0);
  for (PageId pg = 0; pg < m_.num_pages(); ++pg) {
    const auto& frames = static_cast<const mem::PageStore&>(store());
    if (frames.frame(pg).valid) vmap[pg / 8] |= static_cast<std::uint8_t>(1u << (pg % 8));
  }
  proc().advance(params.list_processing_per_elem *
                     (lock_info_elems + outside.size() + m_.num_pages() / 64 + 1),
                 sim::Bucket::kSynch);

  directive_ready_ = false;
  release_ready_ = false;
  expected_recv_ = -1;
  got_recv_ = 0;
  inbound_diffs_.clear();
  inbound_notices_.clear();
  dir_sends_.clear();
  home_gained_.clear();
  drops_.clear();

  const std::size_t arrival_bytes =
      kCtl + 8 * (lock_info_elems + outside.size()) + vmap.size();
  const Cycles arrival_svc =
      params.list_processing_per_elem * (lock_info_elems + outside.size() + 2);
  // The last arrival's handler runs the barrier computation, which resets
  // lock records owned by every manager node.
  send_from_app(m_.barrier_manager(), arrival_bytes, arrival_svc,
                [this, p = self_, lock_info, outside, vmap] {
                  mgr_handle_barrier_arrival(p, lock_info, outside, vmap);
                },
                sim::Bucket::kSynch);

  // Overlap the wait with eager outside-diff creation, filtered to pages
  // other processors hold and that have seen at least one request (§3.3).
  auto next_flush = [&]() -> PageId {
    for (const PageId pg : dirty_out_set_) {
      const bool interesting = (interest_[pg / 8] >> (pg % 8)) & 1u;
      if (interesting && meta(pg).request_seen) return pg;
    }
    return kNoPage;
  };
  for (;;) {
    proc().sync();
    if (directive_ready_) break;
    if (const PageId pg = next_flush(); pg != kNoPage) {
      flush_outside_page(pg, /*hidden=*/true, sim::Bucket::kSynch);
      continue;
    }
    proc().wait(sim::Bucket::kSynch, [&] { return directive_ready_; });
  }

  barrier_publish_outside();
  barrier_perform_sends();
  proc().wait(sim::Bucket::kSynch,
              [&] { return got_recv_ >= expected_recv_; });
  barrier_apply_inbound();
  barrier_home_reconstruct();

  send_from_app(m_.barrier_manager(), kCtl, params.list_processing_per_elem,
                [this] { mgr_handle_barrier_completion(); }, sim::Bucket::kSynch);
  proc().wait(sim::Bucket::kSynch, [&] { return release_ready_; });

  barrier_step_cleanup();
}

void AecProtocol::barrier_publish_outside() {
  const std::uint32_t this_episode = episode_ + 1;
  for (const PageId pg : outside_mod_pages_) {
    PageMeta& pm = meta(pg);
    pm.pub_prev = std::move(pm.pub_cur);
    pm.pub_cur = PublishedGen{};
    pm.pub_cur.episode = this_episode;
    AECDSM_TRACE(pg, "p" << self_ << " publish pg" << pg << " ep=" << (episode_ + 1)
                         << " lazy=" << pm.dirty_out << " acc_words="
                         << pm.out_acc.changed_words());
    if (pm.dirty_out) {
      // Skipped by the eager-creation filter: publish lazily (the diff is
      // produced on the first request, against the retained twin).
      pm.pub_cur.diff = std::move(pm.out_acc);
      pm.pub_cur.lazy = true;
    } else {
      pm.pub_cur.diff = std::move(pm.out_acc);
      pm.pub_cur.lazy = false;
    }
    pm.out_acc = mem::Diff{};
  }
}

void AecProtocol::barrier_perform_sends() {
  const auto& params = m_.params();
  // Chain diffs folded from pushes may never have been applied locally (the
  // holder did not touch the page inside its critical section). The barrier
  // routing assumes holders' frames are current, so settle the debt now.
  for (auto& [l, ll] : locks_) {
    for (const auto& [pg, d] : ll.merged) {
      if (ll.chain_applied.count(pg) != 0) continue;
      apply_diff_charged(pg, d, /*hidden=*/false, sim::Bucket::kSynch);
      ll.chain_applied.insert(pg);
      if (!store().frame(pg).valid && sh_->home[pg] == self_) {
        meta(pg).reconstructible = true;
      }
    }
  }
  for (const DirSend& s : dir_sends_) {
    if (s.is_diff) {
      auto lt = locks_.find(s.lock);
      AECDSM_CHECK(lt != locks_.end());
      auto dt = lt->second.merged.find(s.page);
      AECDSM_CHECK_MSG(dt != lt->second.merged.end(),
                       "barrier diff send without local merged diff");
      const mem::Diff* d = &dt->second;
      send_from_app(s.target, kCtl + d->encoded_bytes(),
                    params.list_processing_per_elem * 2,
                    [this, t = s.target, pg = s.page, diff = *d]() mutable {
                      peer(t).recv_barrier_diff(pg, std::move(diff));
                    },
                    sim::Bucket::kSynch);
    } else {
      send_from_app(s.target, kCtl, params.list_processing_per_elem,
                    [this, t = s.target, pg = s.page, w = self_] {
                      peer(t).recv_barrier_notice(pg, w);
                    },
                    sim::Bucket::kSynch);
    }
  }
}

void AecProtocol::recv_barrier_diff(PageId pg, mem::Diff d) {
  AECDSM_DEBUG("p" << self_ << " recv barrier diff pg" << pg << " words="
                   << d.changed_words());
  inbound_diffs_.push_back(InboundDiff{pg, std::move(d)});
  ++got_recv_;
  proc().poke();
}

void AecProtocol::recv_barrier_notice(PageId pg, ProcId writer) {
  inbound_notices_.emplace_back(pg, writer);
  ++got_recv_;
  proc().poke();
}

void AecProtocol::recv_directive(std::vector<DirSend> sends, int expected,
                                 std::vector<std::uint8_t> interest,
                                 std::vector<PageId> gained,
                                 std::vector<PageId> drops) {
  dir_sends_ = std::move(sends);
  expected_recv_ = expected;
  interest_ = std::move(interest);
  home_gained_ = std::move(gained);
  drops_ = std::move(drops);
  directive_ready_ = true;
  proc().poke();
}

void AecProtocol::barrier_apply_inbound() {
  const std::uint32_t this_episode = episode_ + 1;
  // Diffs first is not required for correctness (inside/outside word sets of
  // a race-free program are disjoint) but keeps the common path cheap.
  for (const InboundDiff& in : inbound_diffs_) {
    AECDSM_TRACE(in.page, "p" << self_ << " barrier diff apply pg" << in.page
                              << " words=" << in.diff.changed_words());
    apply_diff_charged(in.page, in.diff, /*hidden=*/false, sim::Bucket::kSynch);
    // An invalid receiver is the page's home (diffs are only routed to
    // valid holders and the home): its frame is now a sound base again.
    if (!store().frame(in.page).valid) meta(in.page).reconstructible = true;
  }
  for (const auto& [pg, writer] : inbound_notices_) {
    AECDSM_TRACE(pg, "p" << self_ << " barrier notice pg" << pg << " writer=p" << writer);
    PageMeta& pm = meta(pg);
    if (pm.notices_episode != this_episode) {
      pm.notices.clear();
      pm.notices_episode = this_episode;
    }
    pm.notices.push_back(writer);
    if (store().frame(pg).valid) invalidate_page(pg);
    proc().advance(m_.params().list_processing_per_elem, sim::Bucket::kSynch);
  }
  // Drop entries last (invalidate propagation, hybrid policies): the local
  // copy leaves the sharing set entirely — no notices, no reconstructible
  // base — and the next access refetches from the page's (new) home, which
  // the diff routing kept current.
  for (const PageId pg : drops_) {
    AECDSM_TRACE(pg, "p" << self_ << " barrier drop pg" << pg);
    PageMeta& pm = meta(pg);
    // A still-lazy published generation is anchored by this page's twin,
    // and the home refetch that follows a drop restarts the twin from the
    // fetched frame; materialize the generations first or later
    // serve_published() calls would diff against the wrong base.
    if (pm.dirty_out) {
      flush_outside_page(pg, /*hidden=*/false, sim::Bucket::kSynch);
    }
    if (store().frame(pg).valid) invalidate_page(pg);
    pm.reconstructible = false;
    pm.notices.clear();
    proc().advance(m_.params().list_processing_per_elem, sim::Bucket::kSynch);
  }
  drops_.clear();
  inbound_diffs_.clear();
  inbound_notices_.clear();
}

void AecProtocol::barrier_home_reconstruct() {
  const std::uint32_t this_episode = episode_ + 1;
  // Temporarily step the episode forward so apply_notice_diffs() requests
  // the generation just published.
  ++episode_;
  for (const PageId pg : home_gained_) {
    PageMeta& pm = meta(pg);
    mem::PageFrame& f = store().frame(pg);
    if (pm.notices.empty() || pm.notices_episode != this_episode) {
      AECDSM_CHECK_MSG(f.valid, "home of page " << pg << " lacks a valid copy");
      continue;
    }
    apply_notice_diffs(pg, sim::Bucket::kSynch);
    f.valid = true;
    pm.reconstructible = false;
    AECDSM_TRACE(pg, "p" << self_ << " home-reconstructed pg" << pg << " frame[0,6]="
                         << f.data[0] << "," << f.data[6]);
  }
  --episode_;
}

void AecProtocol::barrier_step_cleanup() {
  const std::uint32_t this_episode = episode_ + 1;
  for (auto& [l, ll] : locks_) {
    ll.merged.clear();
    ll.push_valid = false;
    ll.push.clear();
    ll.chain_applied.clear();
    ll.grant_ready = false;
    ll.cs_holders.clear();
    ll.my_update_set.clear();
    AECDSM_CHECK(ll.protected_at_acquire.empty());
  }
  owned_this_step_.clear();
  outside_mod_pages_.clear();
  release_info_.clear();
  AECDSM_CHECK(dirty_in_set_.empty());

  // Pages that stayed dirty across the barrier (their publication is lazy)
  // must trap their next write: modifications of the new step belong to a
  // new publication generation, and the twin still anchors the old one.
  for (const PageId pg : dirty_out_set_) {
    store().frame(pg).write_protected = true;
    pages_[pg].stale_twin = true;
  }

  const auto& frames = static_cast<const mem::PageStore&>(store());
  for (PageId pg = 0; pg < m_.num_pages(); ++pg) {
    PageMeta& pm = pages_[pg];
    pm.flushed_at_acquire = false;
    pm.reprotected_out = false;
    if (!frames.frame(pg).valid && pm.notices_episode != this_episode) {
      // Notices from an older episode are useless now (their generations
      // age out); the page must be refetched from its (current) home. The
      // home itself keeps its base: the barrier routes every chain diff to
      // it, so its frame stays current across episodes.
      pm.notices.clear();
      if (sh_->home[pg] != self_) pm.reconstructible = false;
    }
  }
  ++episode_;
}

// --------------------------------------------------------------------------
// Barrier manager (runs as services on node 0)
// --------------------------------------------------------------------------

void AecProtocol::mgr_handle_barrier_arrival(ProcId p,
                                             std::vector<ArrivalLockInfo> lock_info,
                                             std::vector<PageId> outside,
                                             std::vector<std::uint8_t> valid_map) {
  BarrierEpisode& b = sh_->barrier;
  auto& a = b.arrival[static_cast<std::size_t>(p)];
  AECDSM_CHECK(!a.here);
  a.here = true;
  a.lock_info = std::move(lock_info);
  a.outside_pages = std::move(outside);
  a.valid_map = std::move(valid_map);
  if (++b.arrived == m_.nprocs()) mgr_barrier_compute();
}

void AecProtocol::mgr_barrier_compute() {
  BarrierEpisode& b = sh_->barrier;
  const int n = m_.nprocs();
  const std::size_t npages = m_.num_pages();

  // Valid-copy masks per page (DynBitset: no 64-node cap, bit q = proc q).
  std::vector<DynBitset> holders(npages, DynBitset(n));
  for (int p = 0; p < n; ++p) {
    const auto& vm = b.arrival[static_cast<std::size_t>(p)].valid_map;
    for (PageId pg = 0; pg < npages; ++pg) {
      if ((vm[pg / 8] >> (pg % 8)) & 1u) holders[pg].set(p);
    }
  }

  std::vector<std::vector<DirSend>> sends(static_cast<std::size_t>(n));
  std::vector<int> recv_count(static_cast<std::size_t>(n), 0);
  /// Invalidate-propagation entries per processor (hybrid policies): pages
  /// to drop instead of receiving a routed diff. They ride the directive,
  /// so they never count toward expected_recv_.
  std::vector<std::vector<PageId>> drops(static_cast<std::size_t>(n));
  std::size_t elements = npages / 16;

  // Pass 1: collect the routing inputs — the freshest (lock, page) holder
  // per the arrival reports, this step's outside writers, and the home each
  // touched page will move to. All of it is needed up front because the
  // invalidate axis routes diffs by *new* home while update routing reads
  // the old one; sh_->home is only written after routing.
  std::map<std::pair<LockId, PageId>, std::pair<std::uint32_t, ProcId>> freshest;
  for (int p = 0; p < n; ++p) {
    for (const ArrivalLockInfo& info : b.arrival[static_cast<std::size_t>(p)].lock_info) {
      for (const PageId pg : info.pages) {
        // Acquire counters start at 1, so a default slot (0) always loses.
        auto& slot = freshest[{info.lock, pg}];
        if (slot.first < info.counter) slot = {info.counter, p};
        ++elements;
      }
    }
  }
  std::vector<ProcId> cs_modifier(npages, kNoProc);
  for (const auto& [key, val] : freshest) cs_modifier[key.second] = val.second;

  std::vector<ProcId> first_writer(npages, kNoProc);
  std::vector<DynBitset> outside_writers(npages, DynBitset(n));
  for (int p = 0; p < n; ++p) {
    for (const PageId pg : b.arrival[static_cast<std::size_t>(p)].outside_pages) {
      if (first_writer[pg] == kNoProc) first_writer[pg] = p;
      outside_writers[pg].set(p);
    }
  }

  // The new home must hold a valid copy at arrival (a stale-invalid holder
  // would serve a bad base), so fall back along: first outside writer ->
  // freshest CS holder if valid -> any valid holder -> keep the current
  // home (kNoProc here = keep).
  std::vector<ProcId> new_home(npages, kNoProc);
  for (PageId pg = 0; pg < npages; ++pg) {
    if (first_writer[pg] == kNoProc && cs_modifier[pg] == kNoProc) continue;
    ProcId h = kNoProc;
    if (first_writer[pg] != kNoProc) {
      h = first_writer[pg];
    } else if (holders[pg].test(cs_modifier[pg])) {
      h = cs_modifier[pg];
    } else if (holders[pg].any()) {
      for (int q = 0; q < n; ++q) {
        if (holders[pg].test(q)) {
          h = q;
          break;
        }
      }
    }
    new_home[pg] = h;
  }

  // Pass 2 — inside-CS diffs: the freshest holder per (lock, page) —
  // highest acquire counter among the arrival reports — propagates to the
  // other sharers. Routing from arrival reports (not lock-manager records)
  // keeps the barrier correct even when release messages are still in
  // flight. The propagation axis decides who gets the diff:
  //   * update (AEC): every other valid copy, plus the home — even with an
  //     invalid copy — so its frame stays an authoritative base across
  //     episodes where no processor holds the page valid;
  //   * invalidate (hybrid): only the copies that must stay current — old
  //     home, new home, and valid outside writers (their twins anchor the
  //     published generations) — while every other valid copy is dropped
  //     and refetches from the home on demand, TreadMarks-style.
  for (const auto& [key, val] : freshest) {
    const auto [l, pg] = key;
    const ProcId holder = val.second;
    AECDSM_DEBUG("barrier compute: l" << l << " pg" << pg << " holder=p" << holder
                                      << " counter=" << val.first
                                      << " holders=" << holders[pg].count());
    const ProcId old_home = sh_->home[pg];
    DynBitset diff_mask(n);
    DynBitset drop_mask(n);
    if (sh_->policy.propagation_for(pg) == policy::Propagation::kUpdate) {
      diff_mask = holders[pg];
      diff_mask.set(old_home);
      diff_mask.reset(holder);
    } else {
      const ProcId nh = new_home[pg] == kNoProc ? old_home : new_home[pg];
      DynBitset valid_writers = outside_writers[pg];
      valid_writers &= holders[pg];
      diff_mask = valid_writers;
      diff_mask.set(old_home);
      diff_mask.set(nh);
      diff_mask.reset(holder);
      drop_mask = holders[pg];
      drop_mask.andnot(diff_mask);
      drop_mask.reset(holder);
    }
    for (int q = 0; q < n; ++q) {
      if (diff_mask.test(q)) {
        sends[static_cast<std::size_t>(holder)].push_back(
            DirSend{pg, q, l, /*is_diff=*/true});
        ++recv_count[static_cast<std::size_t>(q)];
        ++elements;
      }
      if (drop_mask.test(q)) {
        drops[static_cast<std::size_t>(q)].push_back(pg);
        ++elements;
      }
    }
  }

  // Outside writes: write notices to every other valid copy; the first
  // writer becomes the page's home.
  for (int p = 0; p < n; ++p) {
    for (const PageId pg : b.arrival[static_cast<std::size_t>(p)].outside_pages) {
      DynBitset mask = holders[pg];
      mask.reset(p);
      for (int q = 0; q < n; ++q) {
        if (mask.test(q)) {
          sends[static_cast<std::size_t>(p)].push_back(
              DirSend{pg, q, 0, /*is_diff=*/false});
          ++recv_count[static_cast<std::size_t>(q)];
          ++elements;
        }
      }
    }
  }

  // Home reassignment for every touched page (computed in pass 1).
  std::vector<std::vector<PageId>> gained(static_cast<std::size_t>(n));
  for (PageId pg = 0; pg < npages; ++pg) {
    const ProcId h = new_home[pg];
    if (h == kNoProc) continue;  // untouched, or nobody valid: old home stays
    sh_->home[pg] = h;
    gained[static_cast<std::size_t>(h)].push_back(pg);
    ++elements;
  }

  // Interest bitmaps (feeds next step's eager-diff filter).
  std::vector<std::vector<std::uint8_t>> interest(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    interest[static_cast<std::size_t>(p)].assign((npages + 7) / 8, 0);
    for (PageId pg = 0; pg < npages; ++pg) {
      if (holders[pg].any_except(p)) {
        interest[static_cast<std::size_t>(p)][pg / 8] |=
            static_cast<std::uint8_t>(1u << (pg % 8));
      }
    }
  }

  // Chain reset: barrier-consistent memory starts every lock afresh. The
  // epoch stamp lets the lock manager ignore chain data in release messages
  // that were still in flight when this barrier completed. This writes every
  // manager's shard.
  for (auto& shard : sh_->locks) {
    for (auto& [l, rec] : shard) {
      rec.diff_holder.clear();
      rec.last_releaser = kNoProc;
      rec.epoch = b.episode + 1;
    }
  }

  for (int p = 0; p < n; ++p) b.arrival[static_cast<std::size_t>(p)] = {};
  b.arrived = 0;
  b.completed = 0;
  ++b.episode;

  // The whole routing computation occupies the manager node.
  const Cycles cost = m_.params().list_processing_per_elem * elements;
  const Cycles done = m_.node(m_.barrier_manager()).proc->service(cost);
  for (int p = 0; p < n; ++p) {
    const std::size_t bytes = kCtl + 12 * sends[static_cast<std::size_t>(p)].size() +
                              interest[static_cast<std::size_t>(p)].size() +
                              8 * gained[static_cast<std::size_t>(p)].size() +
                              8 * drops[static_cast<std::size_t>(p)].size();
    m_.engine().schedule(done, [this, p, bytes,
                                s = std::move(sends[static_cast<std::size_t>(p)]),
                                e = recv_count[static_cast<std::size_t>(p)],
                                i = std::move(interest[static_cast<std::size_t>(p)]),
                                g = std::move(gained[static_cast<std::size_t>(p)]),
                                d = std::move(drops[static_cast<std::size_t>(p)])]() mutable {
      m_.post(m_.barrier_manager(), p, bytes, m_.params().list_processing_per_elem * 2,
              [this, p, s = std::move(s), e, i = std::move(i), g = std::move(g),
               d = std::move(d)]() mutable {
                peer(p).recv_directive(std::move(s), e, std::move(i), std::move(g),
                                       std::move(d));
              });
    });
  }
}

void AecProtocol::mgr_handle_barrier_completion() {
  BarrierEpisode& b = sh_->barrier;
  if (++b.completed < m_.nprocs()) return;
  for (int p = 0; p < m_.nprocs(); ++p) {
    m_.post(m_.barrier_manager(), p, kCtl, m_.params().list_processing_per_elem,
            [this, p] {
              AecProtocol& node = peer(p);
              node.release_ready_ = true;
              node.proc().poke();
            });
  }
}

}  // namespace aecdsm::aec
