// Execution-time accounting, mirroring the breakdown reported by the paper
// (figures 4, 5 and 6): busy / data / synch / ipc / others.
//
// Every simulated cycle of a processor's wall-clock time is attributed to
// exactly one bucket, so per-processor breakdowns always sum to the
// processor's finish time (tests assert this invariant).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace aecdsm {

/// Per-processor attribution of simulated time.
struct TimeBreakdown {
  Cycles busy = 0;        ///< useful application work (compute + hit-path accesses)
  Cycles data = 0;        ///< memory access fault overhead (page fetch, diff fetch/apply on faults)
  Cycles synch = 0;       ///< waiting at locks and barriers (incl. manager processing)
  Cycles ipc = 0;         ///< servicing requests from remote processors
  Cycles others_cache = 0;  ///< cache miss latency (dominant "others" per the paper)
  Cycles others_tlb = 0;    ///< TLB fill latency
  Cycles others_wb = 0;     ///< write buffer stall time
  Cycles others_misc = 0;   ///< remaining overheads (e.g. local interrupts)

  Cycles others() const { return others_cache + others_tlb + others_wb + others_misc; }
  Cycles total() const { return busy + data + synch + ipc + others(); }

  TimeBreakdown& operator+=(const TimeBreakdown& o) {
    busy += o.busy;
    data += o.data;
    synch += o.synch;
    ipc += o.ipc;
    others_cache += o.others_cache;
    others_tlb += o.others_tlb;
    others_wb += o.others_wb;
    others_misc += o.others_misc;
    return *this;
  }
};

/// Diff machinery statistics (paper Table 4).
struct DiffStats {
  std::uint64_t diffs_created = 0;
  std::uint64_t diff_bytes = 0;          ///< sum of encoded diff sizes
  std::uint64_t merged_diffs = 0;        ///< diffs that participated in a merge at release
  std::uint64_t merged_result_count = 0; ///< number of merge results produced
  std::uint64_t merged_result_bytes = 0; ///< sum of merged-diff sizes
  Cycles create_cycles = 0;              ///< total diff creation cost
  Cycles create_hidden_cycles = 0;       ///< part of create_cycles overlapped with waiting
  Cycles apply_cycles = 0;               ///< total diff application cost
  Cycles apply_hidden_cycles = 0;        ///< part of apply_cycles overlapped with waiting
  std::uint64_t diffs_applied = 0;

  DiffStats& operator+=(const DiffStats& o) {
    diffs_created += o.diffs_created;
    diff_bytes += o.diff_bytes;
    merged_diffs += o.merged_diffs;
    merged_result_count += o.merged_result_count;
    merged_result_bytes += o.merged_result_bytes;
    create_cycles += o.create_cycles;
    create_hidden_cycles += o.create_hidden_cycles;
    apply_cycles += o.apply_cycles;
    apply_hidden_cycles += o.apply_hidden_cycles;
    diffs_applied += o.diffs_applied;
    return *this;
  }
};

/// Access-fault statistics (paper figure 3 input).
struct FaultStats {
  std::uint64_t read_faults = 0;
  std::uint64_t write_faults = 0;
  std::uint64_t cold_faults = 0;       ///< first-touch faults needing a remote page copy
  std::uint64_t faults_inside_cs = 0;  ///< faults taken while holding at least one lock
  Cycles fault_cycles = 0;             ///< total stall attributed to access faults

  FaultStats& operator+=(const FaultStats& o) {
    read_faults += o.read_faults;
    write_faults += o.write_faults;
    cold_faults += o.cold_faults;
    faults_inside_cs += o.faults_inside_cs;
    fault_cycles += o.fault_cycles;
    return *this;
  }
};

/// Interconnect traffic statistics.
struct MsgStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;

  MsgStats& operator+=(const MsgStats& o) {
    messages += o.messages;
    bytes += o.bytes;
    return *this;
  }
};

/// Reliable-transport and fault-injection counters (net::Transport over
/// net::FaultPlane). All zero — and omitted from the JSON artifacts — when
/// fault injection is disabled, which keeps fault-free documents
/// byte-identical to pre-fault-plane baselines.
struct TransportStats {
  std::uint64_t data_sends = 0;    ///< reliable payload sends entering the transport
  std::uint64_t retransmits = 0;   ///< payload copies re-sent after an RTO expiry
  std::uint64_t timeouts = 0;      ///< retransmit timer expiries
  std::uint64_t acks = 0;          ///< acknowledgement copies injected
  std::uint64_t dup_dropped = 0;   ///< receiver-side dedup discards
  std::uint64_t held_ooo = 0;      ///< arrivals held for in-order release

  std::uint64_t drops_injected = 0;    ///< copies lost by the fault plane
  std::uint64_t dups_injected = 0;     ///< copies duplicated by the fault plane
  std::uint64_t delays_injected = 0;   ///< copies delay-jittered
  std::uint64_t reorders_injected = 0; ///< copies held past later traffic
  std::uint64_t paused_deliveries = 0; ///< deliveries stalled by a node pause

  std::uint64_t push_sends = 0;     ///< best-effort sends (AEC LAP pushes)
  std::uint64_t push_drops = 0;     ///< best-effort copies lost (no retransmit)
  std::uint64_t push_timeouts = 0;  ///< AEC waits that gave up on a promised push
  std::uint64_t push_fallbacks = 0; ///< noLAP lazy fetches taken after a timeout

  bool any() const {
    return data_sends != 0 || retransmits != 0 || timeouts != 0 || acks != 0 ||
           dup_dropped != 0 || held_ooo != 0 || drops_injected != 0 ||
           dups_injected != 0 || delays_injected != 0 || reorders_injected != 0 ||
           paused_deliveries != 0 || push_sends != 0 || push_drops != 0 ||
           push_timeouts != 0 || push_fallbacks != 0;
  }

  TransportStats& operator+=(const TransportStats& o) {
    data_sends += o.data_sends;
    retransmits += o.retransmits;
    timeouts += o.timeouts;
    acks += o.acks;
    dup_dropped += o.dup_dropped;
    held_ooo += o.held_ooo;
    drops_injected += o.drops_injected;
    dups_injected += o.dups_injected;
    delays_injected += o.delays_injected;
    reorders_injected += o.reorders_injected;
    paused_deliveries += o.paused_deliveries;
    push_sends += o.push_sends;
    push_drops += o.push_drops;
    push_timeouts += o.push_timeouts;
    push_fallbacks += o.push_fallbacks;
    return *this;
  }

  friend bool operator==(const TransportStats&, const TransportStats&) = default;
};

/// Crash/recovery counters for the fail-stop fault plane (crash schedules in
/// FaultParams::crashes plus the lock-manager failover protocol in
/// policy::PolicyEngine). All zero — and omitted from the JSON artifacts —
/// when no crash is scheduled, which keeps crash-free documents
/// byte-identical to pre-crash-plane baselines.
struct RecoveryStats {
  std::uint64_t crash_drops = 0;        ///< message copies refused by a crashed NIC
  std::uint64_t suspects = 0;           ///< suspect verdicts raised by the transport
  std::uint64_t failovers = 0;          ///< lock failovers initiated by a suspecter
  std::uint64_t reelections = 0;        ///< manager re-elections installed
  std::uint64_t requeued_requests = 0;  ///< pending ops replayed to a new manager
  Cycles recovery_cycles = 0;           ///< sum over installs of (install time - crash start)

  bool any() const {
    return crash_drops != 0 || suspects != 0 || failovers != 0 ||
           reelections != 0 || requeued_requests != 0 || recovery_cycles != 0;
  }

  RecoveryStats& operator+=(const RecoveryStats& o) {
    crash_drops += o.crash_drops;
    suspects += o.suspects;
    failovers += o.failovers;
    reelections += o.reelections;
    requeued_requests += o.requeued_requests;
    recovery_cycles += o.recovery_cycles;
    return *this;
  }

  friend bool operator==(const RecoveryStats&, const RecoveryStats&) = default;
};

/// Lock-manager strategy counters (src/locks; DESIGN.md §13). Collected only
/// when a non-central strategy is selected or SystemParams::locks.collect_stats
/// is set; all zero — and omitted from the JSON artifacts — otherwise, which
/// keeps default documents byte-identical to pre-locks-subsystem baselines.
struct LockMgrStats {
  std::uint64_t grants = 0;            ///< lock grants issued (all paths)
  std::uint64_t handoffs = 0;          ///< grants to a waiter (owner -> waiter transfers)
  std::uint64_t direct_handoffs = 0;   ///< mcs: releaser->successor grants bypassing the manager
  std::uint64_t link_messages = 0;     ///< mcs: predecessor-link installs sent by managers
  std::uint64_t fallback_rels = 0;     ///< mcs: direct handoffs that bounced back to the manager
  std::uint64_t handoff_hops = 0;      ///< sum of mesh hops releaser -> next owner
  std::uint64_t cross_cohort = 0;      ///< handoffs leaving the releaser's mesh quadrant
  std::uint64_t hier_skips = 0;        ///< hier: grants that bypassed a cross-cohort FIFO head
  std::uint64_t queue_depth_sum = 0;   ///< sum of manager queue depth sampled at each grant
  std::uint64_t queue_depth_max = 0;   ///< deepest manager queue observed

  bool any() const {
    return grants != 0 || handoffs != 0 || direct_handoffs != 0 ||
           link_messages != 0 || fallback_rels != 0 || handoff_hops != 0 ||
           cross_cohort != 0 || hier_skips != 0 || queue_depth_sum != 0 ||
           queue_depth_max != 0;
  }

  LockMgrStats& operator+=(const LockMgrStats& o) {
    grants += o.grants;
    handoffs += o.handoffs;
    direct_handoffs += o.direct_handoffs;
    link_messages += o.link_messages;
    fallback_rels += o.fallback_rels;
    handoff_hops += o.handoff_hops;
    cross_cohort += o.cross_cohort;
    hier_skips += o.hier_skips;
    queue_depth_sum += o.queue_depth_sum;
    queue_depth_max = queue_depth_max > o.queue_depth_max ? queue_depth_max
                                                          : o.queue_depth_max;
    return *this;
  }

  friend bool operator==(const LockMgrStats&, const LockMgrStats&) = default;
};

/// Diff-work / synchronization-delay overlap summary, produced by the
/// trace::OverlapAnalyzer from a recorded timeline (trace/overlap.hpp).
/// All zero — and omitted from the JSON artifacts — when the run was not
/// traced, which keeps untraced documents byte-identical to pre-trace
/// baselines.
struct OverlapStats {
  std::uint64_t episodes = 0;          ///< lock.wait + barrier.wait spans seen
  Cycles diff_cycles = 0;              ///< total diff.create + diff.apply span cycles
  Cycles overlap_lock_wait = 0;        ///< diff cycles hidden under lock waiting
  Cycles overlap_barrier_wait = 0;     ///< diff cycles hidden under barrier imbalance
  Cycles overlap_service = 0;          ///< diff cycles hidden under message service
  Cycles overlap_any = 0;              ///< diff cycles hidden under the union of the three
  Cycles lock_wait_cycles = 0;         ///< total lock.wait cycles (merged per node)
  Cycles barrier_wait_cycles = 0;      ///< total barrier.wait cycles (merged per node)
  Cycles service_cycles = 0;           ///< total svc cycles (merged per node)

  /// Fraction of diff work overlapped with some synchronization delay.
  double ratio() const {
    return diff_cycles > 0
               ? static_cast<double>(overlap_any) / static_cast<double>(diff_cycles)
               : 0.0;
  }

  bool any() const {
    return episodes != 0 || diff_cycles != 0 || overlap_any != 0 ||
           lock_wait_cycles != 0 || barrier_wait_cycles != 0 ||
           service_cycles != 0;
  }

  friend bool operator==(const OverlapStats&, const OverlapStats&) = default;
};

/// Synchronization-event counts (paper Table 2).
struct SyncStats {
  std::uint64_t lock_acquires = 0;
  std::uint64_t barrier_events = 0;    ///< global barrier episodes (counted once each)
  std::uint64_t distinct_locks = 0;

  SyncStats& operator+=(const SyncStats& o) {
    lock_acquires += o.lock_acquires;
    barrier_events += o.barrier_events;
    // distinct_locks is a property of the run, not additive; keep the max.
    if (o.distinct_locks > distinct_locks) distinct_locks = o.distinct_locks;
    return *this;
  }
};

/// Everything measured by one simulated run.
struct RunStats {
  std::string protocol;   ///< "AEC", "AEC-noLAP", "TreadMarks"
  std::string app;
  int num_procs = 0;
  Cycles finish_time = 0;  ///< simulated time when the last processor finished

  std::vector<TimeBreakdown> per_proc;  ///< indexed by ProcId
  DiffStats diffs;
  FaultStats faults;
  MsgStats msgs;
  SyncStats sync;
  TransportStats transport;  ///< all-zero when fault injection is disabled
  RecoveryStats recovery;    ///< all-zero unless a crash was scheduled
  OverlapStats overlap;      ///< all-zero unless the run was traced + analyzed
  LockMgrStats lockmgr;      ///< all-zero unless a lock strategy collects stats

  /// Total engine events of the run. Deliberately NOT part of the
  /// artifact JSON — committed bench baselines and cached blobs predate it —
  /// so it is zero for cache-served results; events-per-second telemetry
  /// (BatchRunInfo) uses it for fresh runs only.
  std::uint64_t engine_events = 0;

  bool result_valid = false;  ///< did the app's output match its sequential oracle?

  TimeBreakdown aggregate() const {
    TimeBreakdown t;
    for (const auto& b : per_proc) t += b;
    return t;
  }
};

}  // namespace aecdsm
