#include "policy/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <span>
#include <sstream>

#include "common/check.hpp"
#include "common/log.hpp"
#include "trace/recorder.hpp"

namespace aecdsm::policy {

std::vector<ProcId> lap_score_grant(LockLap& lap, ProcId from, ProcId to) {
  if (from != kNoProc) lap.record_transfer(from, to);
  lap.consume_notice(to);
  return lap.compute_update_set(to);
}

LockLap& scoring_lap(std::map<LockId, LockLap>& laps, const SystemParams& p,
                     LockId l) {
  auto it = laps.find(l);
  if (it == laps.end()) {
    it = laps.emplace(l, LockLap(p.num_procs, p.update_set_size,
                                 p.affinity_threshold))
             .first;
  }
  return it->second;
}

PolicyEngine::PolicyEngine(dsm::Machine& m, ProcId self, ConsistencyPolicy pol)
    : pol_(std::move(pol)), m_(m), self_(self) {}

PageId PolicyEngine::trace_page() {
  static const PageId pg = [] {
    const char* v = std::getenv("AECDSM_TRACE_PAGE");
    return v == nullptr ? kNoPage : static_cast<PageId>(std::atoi(v));
  }();
  return pg;
}

std::size_t PolicyEngine::trace_word() {
  static const std::size_t w = [] {
    const char* v = std::getenv("AECDSM_TRACE_WORD");
    return v == nullptr ? std::size_t{0} : static_cast<std::size_t>(std::atoi(v));
  }();
  return w;
}

void PolicyEngine::send_from_app(ProcId to, std::size_t bytes, Cycles svc_cost,
                                 std::function<void()> handler,
                                 sim::Bucket bucket) {
  proc().advance(m_.params().message_overhead, bucket);
  proc().sync();
  m_.post(self_, to, bytes, svc_cost, std::move(handler));
}

void PolicyEngine::post_dynamic(ProcId from, ProcId to, std::size_t bytes,
                                std::function<Cycles()> cost,
                                std::function<void()> handler) {
  m_.transport().send(from, to, bytes,
                    [this, to, c = std::move(cost), h = std::move(handler)]() mutable {
                      const Cycles done = m_.node(to).proc->service(c());
                      m_.engine().schedule(done, std::move(h));
                    });
}

mem::Diff PolicyEngine::create_diff_charged(PageId pg, bool hidden,
                                            sim::Bucket bucket) {
  const Cycles c = m_.params().diff_create_cycles();
  const Cycles trace_t0 = proc().now();
  proc().advance(c, bucket);
  proc().sync();
  if (trace::Recorder* tr = m_.recorder()) {
    tr->span(self_, trace::Category::kDiff, trace::names::kDiffCreate, trace_t0,
             proc().now(), "page", pg, "hidden", hidden ? 1 : 0);
  }
  mem::Diff d = store().diff_against_twin(pg);
  if (pg == trace_page()) {
    std::ostringstream os;
    for (const auto& r : d.runs()) {
      if (r.word_offset <= 10 && 8 < r.word_offset + r.words.size()) {
        for (std::size_t k = 0; k < r.words.size(); ++k) {
          if (r.word_offset + k == trace_word()) {
            os << " w" << r.word_offset + k << "=" << r.words[k];
          }
        }
      }
    }
    AECDSM_DEBUG("p" << self_ << " create_diff pg" << pg << " twin[8..10]="
                     << (*store().frame(pg).twin)[8] << ","
                     << (*store().frame(pg).twin)[9] << ","
                     << (*store().frame(pg).twin)[10] << " frame[8..10]="
                     << store().frame(pg).data[8] << "," << store().frame(pg).data[9]
                     << "," << store().frame(pg).data[10] << " diff:" << os.str());
  }
  ++dstats_.diffs_created;
  dstats_.diff_bytes += d.encoded_bytes();
  dstats_.create_cycles += c;
  if (hidden) dstats_.create_hidden_cycles += c;
  return d;
}

void PolicyEngine::apply_diff_charged(PageId pg, const mem::Diff& d, bool hidden,
                                      sim::Bucket bucket) {
  if (pg == trace_page()) {
    std::ostringstream runs;
    long tw = -1;
    for (const auto& r : d.runs()) {
      runs << " @" << r.word_offset << "+" << r.words.size();
      if (r.word_offset <= trace_word() &&
          trace_word() < r.word_offset + r.words.size()) {
        tw = static_cast<long>(r.words[trace_word() - r.word_offset]);
      }
    }
    AECDSM_DEBUG("p" << self_ << " apply pg" << pg << " diff[w" << trace_word()
                     << "]=" << tw << " frame_before="
                     << store().frame(pg).data[trace_word()] << runs.str());
  }
  const Cycles c = m_.params().diff_apply_cycles(d.changed_words());
  const Cycles trace_t0 = proc().now();
  proc().advance(c, bucket);
  proc().sync();
  if (trace::Recorder* tr = m_.recorder()) {
    tr->span(self_, trace::Category::kDiff, trace::names::kDiffApply, trace_t0,
             proc().now(), "page", pg, "hidden", hidden ? 1 : 0);
  }
  mem::PageFrame& f = store().frame(pg);
  d.apply_to(std::span<Word>(f.data));
  // A live twin must see remote modifications too, or later twin-diffs of
  // this page would encode the remote words as if they were local writes.
  if (f.has_twin()) d.apply_to(std::span<Word>(*f.twin));
  ctx().invalidate_cache_page(pg);
  ++dstats_.diffs_applied;
  dstats_.apply_cycles += c;
  if (hidden) dstats_.apply_hidden_cycles += c;
}

void PolicyEngine::make_twin_charged(PageId pg, sim::Bucket bucket) {
  proc().advance(m_.params().twin_create_cycles(), bucket);
  store().make_twin(pg);
}

mem::Diff PolicyEngine::service_diff_create(PageId pg, Cycles& cost) {
  const Cycles c = m_.params().diff_create_cycles();
  cost += c;
  if (trace::Recorder* tr = m_.recorder()) {
    tr->span(self_, trace::Category::kDiff, trace::names::kDiffCreate,
             m_.engine().now(), m_.engine().now() + c, "page", pg, "svc", 1);
  }
  ++dstats_.diffs_created;
  dstats_.create_cycles += c;
  mem::Diff d = store().diff_against_twin(pg);
  dstats_.diff_bytes += d.encoded_bytes();
  return d;
}

void PolicyEngine::trace_counter(const char* name, Cycles t,
                                 std::uint64_t value) {
  if (trace::Recorder* tr = m_.recorder()) {
    tr->counter(self_, name, t, value);
  }
}

std::uint64_t PolicyEngine::track_mgr_op(LockId l, ProcId mgr,
                                         std::uint64_t serial,
                                         std::function<void(ProcId)> replay) {
  if (!crash_scheduled()) return 0;
  MgrOp op;
  op.lock = l;
  op.mgr = mgr;
  op.serial = serial;
  op.replay = std::move(replay);
  const std::uint64_t id = ++next_op_id_;
  mgr_ops_.emplace(id, std::move(op));
  return id;
}

void PolicyEngine::clear_mgr_op(std::uint64_t id) {
  if (id != 0) mgr_ops_.erase(id);
}

void PolicyEngine::clear_mgr_op_by_serial(LockId l, std::uint64_t serial) {
  for (auto it = mgr_ops_.begin(); it != mgr_ops_.end(); ++it) {
    if (it->second.lock == l && it->second.serial == serial) {
      mgr_ops_.erase(it);
      return;
    }
  }
}

void PolicyEngine::on_peer_suspect(ProcId peer) {
  // Timer context at this node. The election itself runs in a self-event.
  AECDSM_DEBUG("p" << self_ << " suspects p" << peer << " (" << mgr_ops_.size()
                   << " pending ops)");
  std::vector<LockId> locks;
  for (const auto& [id, op] : mgr_ops_) {
    if (op.mgr != peer) continue;
    if (m_.lock_manager(op.lock) != peer) continue;  // already failed over
    if (std::find(locks.begin(), locks.end(), op.lock) != locks.end()) continue;
    locks.push_back(op.lock);
  }
  for (const LockId l : locks) {
    m_.post(self_, self_, kCtl, m_.params().list_processing_per_elem * 4,
            [this, l, peer] { begin_failover(l, peer); });
  }
}

void PolicyEngine::on_recover() {
  // Engine-side at the recovered node. Re-reads the shared override table so
  // ops aimed at this node's own pre-crash managership chase the re-elected
  // manager; the one-hop bounce in the manager handlers covers elections
  // that land after this replay.
  for (auto& [id, op] : mgr_ops_) {
    const ProcId mgr = m_.lock_manager(op.lock);
    op.mgr = mgr;
    ++m_.transport().recovery_for(self_).requeued_requests;
    AECDSM_DEBUG("p" << self_ << " recovers, replays op serial=" << op.serial
                     << " l" << op.lock << " to mgr p" << mgr);
    op.replay(mgr);
  }
}

void PolicyEngine::begin_failover(LockId l, ProcId crashed) {
  if (m_.lock_manager(l) != crashed) return;  // a peer already failed it over
  const Cycles now = m_.engine().now();
  net::FaultPlane& plane = m_.transport().plane();
  if (!plane.crashed(crashed, now)) return;  // recovered: keep the manager
  std::vector<ProcId> cand = lock_sharers(l, crashed);
  cand.push_back(self_);
  ProcId successor = kNoProc;
  for (const ProcId p : cand) {
    if (p == kNoProc || p == crashed || plane.crashed(p, now)) continue;
    if (successor == kNoProc || p < successor) successor = p;
  }
  if (successor == kNoProc) return;  // nobody live: stall until recovery
  AECDSM_DEBUG("p" << self_ << " failover l" << l << ": crashed mgr p"
                   << crashed << " -> successor p" << successor);
  ++m_.transport().recovery_for(self_).failovers;
  if (trace::Recorder* tr = m_.recorder()) {
    tr->instant(self_, trace::Category::kLock, trace::names::kLockFailover, now,
                "lock", static_cast<std::uint64_t>(l), "crashed",
                static_cast<std::uint64_t>(crashed));
  }
  m_.post(self_, successor, kCtl, m_.params().list_processing_per_elem * 4,
          [this, l, crashed, successor] {
            peer_engine(successor).handle_failover_request(l, crashed);
          });
}

void PolicyEngine::handle_failover_request(LockId l, ProcId crashed) {
  // Runs at the elected successor.
  if (m_.lock_manager(l) != crashed) return;  // duplicate election
  const Cycles now = m_.engine().now();
  net::FaultPlane& plane = m_.transport().plane();
  if (!plane.crashed(crashed, now)) return;  // recovered while electing
  AECDSM_DEBUG("p" << self_ << " re-elected as manager of l" << l
                   << " (was p" << crashed << ")");
  m_.set_lock_manager_override(l, self_);
  migrate_lock_state(l, crashed, self_);
  RecoveryStats& rs = m_.transport().recovery_for(self_);
  ++rs.reelections;
  rs.recovery_cycles += now - plane.crash_start(crashed, now);
  if (trace::Recorder* tr = m_.recorder()) {
    tr->instant(self_, trace::Category::kLock, trace::names::kLockReelect, now,
                "lock", static_cast<std::uint64_t>(l), "mgr",
                static_cast<std::uint64_t>(self_));
  }
  // Every live node re-aims its pending ops; the crashed node needs no
  // notification — it reads the shared override table once it recovers.
  for (int p = 0; p < m_.nprocs(); ++p) {
    if (p == self_) {
      on_manager_change(l, self_);
      continue;
    }
    if (plane.crashed(p, now)) continue;
    m_.post(self_, p, kCtl, m_.params().list_processing_per_elem * 2,
            [this, l, p, mgr = self_] {
              peer_engine(p).on_manager_change(l, mgr);
            });
  }
}

void PolicyEngine::on_manager_change(LockId l, ProcId new_mgr) {
  for (auto& [id, op] : mgr_ops_) {
    if (op.lock != l || op.mgr == new_mgr) continue;
    op.mgr = new_mgr;
    ++m_.transport().recovery_for(self_).requeued_requests;
    AECDSM_DEBUG("p" << self_ << " replays op serial=" << op.serial << " l"
                     << l << " to new mgr p" << new_mgr);
    op.replay(new_mgr);
  }
}

void PolicyEngine::fetch_page_from_home(
    PageId pg, ProcId h, sim::Bucket bucket,
    std::function<void(std::vector<Word>& buf)> at_home,
    std::function<void()> landed) {
  const auto& params = m_.params();
  proc().advance(params.message_overhead, bucket);
  proc().sync();
  bool done = false;
  auto buf = std::make_shared<std::vector<Word>>();
  const std::size_t page_words = params.words_per_page();
  post_dynamic(
      self_, h, kCtl,
      [this, buf, page_words, at_home = std::move(at_home)] {
        at_home(*buf);
        return m_.params().memory_access_cycles(page_words);
      },
      [this, h, pg, buf, page_words, &done, landed = std::move(landed)]() mutable {
        // Reply carries the page contents back.
        post_dynamic(
            h, self_, m_.params().page_bytes + kCtl,
            [this, page_words] { return m_.params().memory_access_cycles(page_words); },
            [this, pg, buf, &done, landed = std::move(landed)] {
              auto span = store().page_span(pg);
              std::copy(buf->begin(), buf->end(), span.begin());
              if (landed) landed();
              done = true;
              proc().poke();
            });
      });
  proc().wait(bucket, [&done] { return done; });
}

}  // namespace aecdsm::policy
