#include "harness/json_out.hpp"

#include "common/check.hpp"
#include "harness/lap_report.hpp"

namespace aecdsm::harness {

using json::Value;

Value to_json(const TimeBreakdown& t) {
  Value v = Value::object();
  v["busy"] = Value(t.busy);
  v["data"] = Value(t.data);
  v["synch"] = Value(t.synch);
  v["ipc"] = Value(t.ipc);
  v["others_cache"] = Value(t.others_cache);
  v["others_tlb"] = Value(t.others_tlb);
  v["others_wb"] = Value(t.others_wb);
  v["others_misc"] = Value(t.others_misc);
  v["others"] = Value(t.others());
  v["total"] = Value(t.total());
  return v;
}

Value to_json(const DiffStats& d) {
  Value v = Value::object();
  v["diffs_created"] = Value(d.diffs_created);
  v["diff_bytes"] = Value(d.diff_bytes);
  v["merged_diffs"] = Value(d.merged_diffs);
  v["merged_result_count"] = Value(d.merged_result_count);
  v["merged_result_bytes"] = Value(d.merged_result_bytes);
  v["create_cycles"] = Value(d.create_cycles);
  v["create_hidden_cycles"] = Value(d.create_hidden_cycles);
  v["apply_cycles"] = Value(d.apply_cycles);
  v["apply_hidden_cycles"] = Value(d.apply_hidden_cycles);
  v["diffs_applied"] = Value(d.diffs_applied);
  return v;
}

Value to_json(const FaultStats& f) {
  Value v = Value::object();
  v["read_faults"] = Value(f.read_faults);
  v["write_faults"] = Value(f.write_faults);
  v["cold_faults"] = Value(f.cold_faults);
  v["faults_inside_cs"] = Value(f.faults_inside_cs);
  v["fault_cycles"] = Value(f.fault_cycles);
  return v;
}

Value to_json(const MsgStats& m) {
  Value v = Value::object();
  v["messages"] = Value(m.messages);
  v["bytes"] = Value(m.bytes);
  return v;
}

Value to_json(const SyncStats& s) {
  Value v = Value::object();
  v["lock_acquires"] = Value(s.lock_acquires);
  v["barrier_events"] = Value(s.barrier_events);
  v["distinct_locks"] = Value(s.distinct_locks);
  return v;
}

Value to_json(const TransportStats& t) {
  Value v = Value::object();
  v["data_sends"] = Value(t.data_sends);
  v["retransmits"] = Value(t.retransmits);
  v["timeouts"] = Value(t.timeouts);
  v["acks"] = Value(t.acks);
  v["dup_dropped"] = Value(t.dup_dropped);
  v["held_ooo"] = Value(t.held_ooo);
  v["drops_injected"] = Value(t.drops_injected);
  v["dups_injected"] = Value(t.dups_injected);
  v["delays_injected"] = Value(t.delays_injected);
  v["reorders_injected"] = Value(t.reorders_injected);
  v["paused_deliveries"] = Value(t.paused_deliveries);
  v["push_sends"] = Value(t.push_sends);
  v["push_drops"] = Value(t.push_drops);
  v["push_timeouts"] = Value(t.push_timeouts);
  v["push_fallbacks"] = Value(t.push_fallbacks);
  return v;
}

Value to_json(const OverlapStats& o) {
  Value v = Value::object();
  v["episodes"] = Value(o.episodes);
  v["diff_cycles"] = Value(o.diff_cycles);
  v["overlap_lock_wait"] = Value(o.overlap_lock_wait);
  v["overlap_barrier_wait"] = Value(o.overlap_barrier_wait);
  v["overlap_service"] = Value(o.overlap_service);
  v["overlap_any"] = Value(o.overlap_any);
  v["lock_wait_cycles"] = Value(o.lock_wait_cycles);
  v["barrier_wait_cycles"] = Value(o.barrier_wait_cycles);
  v["service_cycles"] = Value(o.service_cycles);
  v["overlap_ratio"] = Value(o.ratio());
  return v;
}

Value to_json(const RunStats& r) {
  Value v = Value::object();
  v["protocol"] = Value(r.protocol);
  v["app"] = Value(r.app);
  v["num_procs"] = Value(r.num_procs);
  v["finish_time"] = Value(r.finish_time);
  v["result_valid"] = Value(r.result_valid);
  v["aggregate"] = to_json(r.aggregate());
  Value per = Value::array();
  for (const TimeBreakdown& t : r.per_proc) per.append(to_json(t));
  v["per_proc"] = std::move(per);
  v["diffs"] = to_json(r.diffs);
  v["faults"] = to_json(r.faults);
  v["msgs"] = to_json(r.msgs);
  v["sync"] = to_json(r.sync);
  // Emitted only when fault injection actually ran, so fault-free documents
  // stay byte-identical to pre-fault-plane baselines.
  if (r.transport.any()) v["transport"] = to_json(r.transport);
  // Emitted only for traced + analyzed runs; untraced documents (and every
  // committed baseline) therefore never carry an "overlap" member.
  if (r.overlap.any()) v["overlap"] = to_json(r.overlap);
  // Emitted only when a crash schedule actually fired: crash-free documents
  // (all committed baselines) never carry a "recovery" member.
  if (r.recovery.any()) v["recovery"] = to_json(r.recovery);
  // Emitted only when a lock strategy collected counters (non-central
  // strategy or locks.collect_stats): default documents never carry it.
  if (r.lockmgr.any()) v["lockmgr"] = to_json(r.lockmgr);
  return v;
}

Value to_json(const LockMgrStats& l) {
  Value v = Value::object();
  v["grants"] = Value(l.grants);
  v["handoffs"] = Value(l.handoffs);
  v["direct_handoffs"] = Value(l.direct_handoffs);
  v["link_messages"] = Value(l.link_messages);
  v["fallback_rels"] = Value(l.fallback_rels);
  v["handoff_hops"] = Value(l.handoff_hops);
  v["cross_cohort"] = Value(l.cross_cohort);
  v["hier_skips"] = Value(l.hier_skips);
  v["queue_depth_sum"] = Value(l.queue_depth_sum);
  v["queue_depth_max"] = Value(l.queue_depth_max);
  return v;
}

Value to_json(const RecoveryStats& r) {
  Value v = Value::object();
  v["crash_drops"] = Value(r.crash_drops);
  v["suspects"] = Value(r.suspects);
  v["failovers"] = Value(r.failovers);
  v["reelections"] = Value(r.reelections);
  v["requeued_requests"] = Value(r.requeued_requests);
  v["recovery_cycles"] = Value(r.recovery_cycles);
  return v;
}

Value to_json(const SystemParams& p) {
  Value v = Value::object();
  v["num_procs"] = Value(p.num_procs);
  v["mesh_width"] = Value(p.mesh_width);
  v["page_bytes"] = Value(static_cast<std::uint64_t>(p.page_bytes));
  v["tlb_entries"] = Value(p.tlb_entries);
  v["tlb_fill_cycles"] = Value(p.tlb_fill_cycles);
  v["interrupt_cycles"] = Value(p.interrupt_cycles);
  v["message_overhead"] = Value(p.message_overhead);
  v["list_processing_per_elem"] = Value(p.list_processing_per_elem);
  v["cache_bytes"] = Value(static_cast<std::uint64_t>(p.cache_bytes));
  v["cache_line_bytes"] = Value(static_cast<std::uint64_t>(p.cache_line_bytes));
  v["write_buffer_entries"] = Value(p.write_buffer_entries);
  v["mem_setup_cycles"] = Value(p.mem_setup_cycles);
  v["mem_quarter_cycles_per_word"] = Value(p.mem_quarter_cycles_per_word);
  v["io_setup_cycles"] = Value(p.io_setup_cycles);
  v["io_cycles_per_word"] = Value(p.io_cycles_per_word);
  v["network_width_bits"] = Value(p.network_width_bits);
  v["switch_cycles"] = Value(p.switch_cycles);
  v["wire_cycles"] = Value(p.wire_cycles);
  v["twin_cycles_per_word"] = Value(p.twin_cycles_per_word);
  v["diff_cycles_per_word"] = Value(p.diff_cycles_per_word);
  v["update_set_size"] = Value(p.update_set_size);
  v["affinity_threshold"] = Value(p.affinity_threshold);
  v["quantum_cycles"] = Value(p.quantum_cycles);
  // The faults block appears only when fault injection is on. Default
  // (fault-free) params therefore serialize exactly as before the fault
  // plane existed: cellcache keys and committed baselines are unaffected,
  // while any active fault knob perturbs the content hash.
  if (p.faults.any()) {
    Value f = Value::object();
    f["drop_rate"] = Value(p.faults.drop_rate);
    f["dup_rate"] = Value(p.faults.dup_rate);
    f["delay_rate"] = Value(p.faults.delay_rate);
    f["delay_jitter_cycles"] = Value(p.faults.delay_jitter_cycles);
    f["reorder_rate"] = Value(p.faults.reorder_rate);
    f["reorder_window_cycles"] = Value(p.faults.reorder_window_cycles);
    auto windows = [](const std::vector<FaultWindow>& ws) {
      Value arr = Value::array();
      for (const FaultWindow& w : ws) {
        Value e = Value::object();
        e["node"] = Value(w.node);
        e["at_cycle"] = Value(w.at_cycle);
        e["cycles"] = Value(w.cycles);
        arr.append(std::move(e));
      }
      return arr;
    };
    f["pauses"] = windows(p.faults.pauses);
    f["crashes"] = windows(p.faults.crashes);
    f["suspect_after"] = Value(p.faults.suspect_after);
    f["seed"] = Value(p.faults.seed);
    f["retransmit_timeout_cycles"] = Value(p.faults.retransmit_timeout_cycles);
    f["retransmit_backoff_cap"] = Value(p.faults.retransmit_backoff_cap);
    f["push_timeout_cycles"] = Value(p.faults.push_timeout_cycles);
    v["faults"] = std::move(f);
  }
  // Same omit-when-default rule for the lock-manager strategy: the central
  // default serializes exactly as before src/locks existed, while choosing
  // mcs/hier (or any locks knob) perturbs the cellcache content hash.
  if (p.locks.any()) {
    Value lk = Value::object();
    lk["strategy"] = Value(p.locks.strategy);
    lk["hier_fairness"] = Value(p.locks.hier_fairness);
    lk["collect_stats"] = Value(p.locks.collect_stats);
    v["locks"] = std::move(lk);
  }
  return v;
}

namespace {

Value score_json(const policy::PredictorScore& s) {
  Value v = Value::object();
  v["predictions"] = Value(s.predictions);
  v["hits"] = Value(s.hits);
  v["rate"] = Value(s.rate());
  return v;
}

}  // namespace

Value lap_json(const ExperimentResult& r) {
  const auto scores = lap_scores_of(r);
  if (scores.empty()) return Value();
  Value v = Value::object();
  policy::LapScores total;
  Value locks = Value::array();
  for (const auto& [lock, s] : scores) {
    Value row = Value::object();
    row["lock"] = Value(static_cast<std::uint64_t>(lock));
    row["acquires"] = Value(s.acquire_events);
    row["lap"] = score_json(s.lap);
    row["waitq"] = score_json(s.waitq);
    row["waitq_affinity"] = score_json(s.waitq_affinity);
    row["waitq_virtualq"] = score_json(s.waitq_virtualq);
    locks.append(std::move(row));
    total.acquire_events += s.acquire_events;
    auto add = [](policy::PredictorScore& into, const policy::PredictorScore& from) {
      into.predictions += from.predictions;
      into.hits += from.hits;
    };
    add(total.lap, s.lap);
    add(total.waitq, s.waitq);
    add(total.waitq_affinity, s.waitq_affinity);
    add(total.waitq_virtualq, s.waitq_virtualq);
  }
  v["acquires"] = Value(total.acquire_events);
  v["lap"] = score_json(total.lap);
  v["waitq"] = score_json(total.waitq);
  v["waitq_affinity"] = score_json(total.waitq_affinity);
  v["waitq_virtualq"] = score_json(total.waitq_virtualq);
  v["locks"] = std::move(locks);
  return v;
}

namespace {

TimeBreakdown breakdown_from_json(const Value& v) {
  TimeBreakdown t;
  t.busy = v.at("busy").as_uint();
  t.data = v.at("data").as_uint();
  t.synch = v.at("synch").as_uint();
  t.ipc = v.at("ipc").as_uint();
  t.others_cache = v.at("others_cache").as_uint();
  t.others_tlb = v.at("others_tlb").as_uint();
  t.others_wb = v.at("others_wb").as_uint();
  t.others_misc = v.at("others_misc").as_uint();
  return t;
}

policy::PredictorScore score_from_json(const Value& v) {
  policy::PredictorScore s;
  s.predictions = v.at("predictions").as_uint();
  s.hits = v.at("hits").as_uint();
  return s;
}

}  // namespace

RunStats run_stats_from_json(const Value& v) {
  RunStats r;
  r.protocol = v.at("protocol").as_string();
  r.app = v.at("app").as_string();
  r.num_procs = static_cast<int>(v.at("num_procs").as_int());
  r.finish_time = v.at("finish_time").as_uint();
  r.result_valid = v.at("result_valid").as_bool();
  for (const Value& t : v.at("per_proc").items()) {
    r.per_proc.push_back(breakdown_from_json(t));
  }
  const Value& d = v.at("diffs");
  r.diffs.diffs_created = d.at("diffs_created").as_uint();
  r.diffs.diff_bytes = d.at("diff_bytes").as_uint();
  r.diffs.merged_diffs = d.at("merged_diffs").as_uint();
  r.diffs.merged_result_count = d.at("merged_result_count").as_uint();
  r.diffs.merged_result_bytes = d.at("merged_result_bytes").as_uint();
  r.diffs.create_cycles = d.at("create_cycles").as_uint();
  r.diffs.create_hidden_cycles = d.at("create_hidden_cycles").as_uint();
  r.diffs.apply_cycles = d.at("apply_cycles").as_uint();
  r.diffs.apply_hidden_cycles = d.at("apply_hidden_cycles").as_uint();
  r.diffs.diffs_applied = d.at("diffs_applied").as_uint();
  const Value& f = v.at("faults");
  r.faults.read_faults = f.at("read_faults").as_uint();
  r.faults.write_faults = f.at("write_faults").as_uint();
  r.faults.cold_faults = f.at("cold_faults").as_uint();
  r.faults.faults_inside_cs = f.at("faults_inside_cs").as_uint();
  r.faults.fault_cycles = f.at("fault_cycles").as_uint();
  const Value& m = v.at("msgs");
  r.msgs.messages = m.at("messages").as_uint();
  r.msgs.bytes = m.at("bytes").as_uint();
  const Value& s = v.at("sync");
  r.sync.lock_acquires = s.at("lock_acquires").as_uint();
  r.sync.barrier_events = s.at("barrier_events").as_uint();
  r.sync.distinct_locks = s.at("distinct_locks").as_uint();
  // Optional: present only for runs that executed under fault injection.
  if (const Value* t = v.find("transport"); t != nullptr) {
    r.transport.data_sends = t->at("data_sends").as_uint();
    r.transport.retransmits = t->at("retransmits").as_uint();
    r.transport.timeouts = t->at("timeouts").as_uint();
    r.transport.acks = t->at("acks").as_uint();
    r.transport.dup_dropped = t->at("dup_dropped").as_uint();
    r.transport.held_ooo = t->at("held_ooo").as_uint();
    r.transport.drops_injected = t->at("drops_injected").as_uint();
    r.transport.dups_injected = t->at("dups_injected").as_uint();
    r.transport.delays_injected = t->at("delays_injected").as_uint();
    r.transport.reorders_injected = t->at("reorders_injected").as_uint();
    r.transport.paused_deliveries = t->at("paused_deliveries").as_uint();
    r.transport.push_sends = t->at("push_sends").as_uint();
    r.transport.push_drops = t->at("push_drops").as_uint();
    r.transport.push_timeouts = t->at("push_timeouts").as_uint();
    r.transport.push_fallbacks = t->at("push_fallbacks").as_uint();
  }
  // Optional: present only for runs whose crash schedule fired.
  if (const Value* rc = v.find("recovery"); rc != nullptr) {
    r.recovery.crash_drops = rc->at("crash_drops").as_uint();
    r.recovery.suspects = rc->at("suspects").as_uint();
    r.recovery.failovers = rc->at("failovers").as_uint();
    r.recovery.reelections = rc->at("reelections").as_uint();
    r.recovery.requeued_requests = rc->at("requeued_requests").as_uint();
    r.recovery.recovery_cycles = rc->at("recovery_cycles").as_uint();
  }
  // Optional: present only for traced runs ("overlap_ratio" is derived and
  // recomputed on the next serialization).
  if (const Value* o = v.find("overlap"); o != nullptr) {
    r.overlap.episodes = o->at("episodes").as_uint();
    r.overlap.diff_cycles = o->at("diff_cycles").as_uint();
    r.overlap.overlap_lock_wait = o->at("overlap_lock_wait").as_uint();
    r.overlap.overlap_barrier_wait = o->at("overlap_barrier_wait").as_uint();
    r.overlap.overlap_service = o->at("overlap_service").as_uint();
    r.overlap.overlap_any = o->at("overlap_any").as_uint();
    r.overlap.lock_wait_cycles = o->at("lock_wait_cycles").as_uint();
    r.overlap.barrier_wait_cycles = o->at("barrier_wait_cycles").as_uint();
    r.overlap.service_cycles = o->at("service_cycles").as_uint();
  }
  // Optional: present only when a lock strategy collected counters.
  if (const Value* lk = v.find("lockmgr"); lk != nullptr) {
    r.lockmgr.grants = lk->at("grants").as_uint();
    r.lockmgr.handoffs = lk->at("handoffs").as_uint();
    r.lockmgr.direct_handoffs = lk->at("direct_handoffs").as_uint();
    r.lockmgr.link_messages = lk->at("link_messages").as_uint();
    r.lockmgr.fallback_rels = lk->at("fallback_rels").as_uint();
    r.lockmgr.handoff_hops = lk->at("handoff_hops").as_uint();
    r.lockmgr.cross_cohort = lk->at("cross_cohort").as_uint();
    r.lockmgr.hier_skips = lk->at("hier_skips").as_uint();
    r.lockmgr.queue_depth_sum = lk->at("queue_depth_sum").as_uint();
    r.lockmgr.queue_depth_max = lk->at("queue_depth_max").as_uint();
  }
  return r;
}

std::map<LockId, policy::LapScores> lap_scores_from_json(const Value& v) {
  std::map<LockId, policy::LapScores> out;
  if (v.kind() == Value::Kind::kNull) return out;
  for (const Value& row : v.at("locks").items()) {
    policy::LapScores s;
    s.acquire_events = row.at("acquires").as_uint();
    s.lap = score_from_json(row.at("lap"));
    s.waitq = score_from_json(row.at("waitq"));
    s.waitq_affinity = score_from_json(row.at("waitq_affinity"));
    s.waitq_virtualq = score_from_json(row.at("waitq_virtualq"));
    out[static_cast<LockId>(row.at("lock").as_uint())] = s;
  }
  return out;
}

}  // namespace aecdsm::harness
