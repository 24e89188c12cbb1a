#include "harness/lap_report.hpp"

namespace aecdsm::harness {

std::map<LockId, policy::LapScores> lap_scores_of(const ExperimentResult& r) {
  std::map<LockId, policy::LapScores> out;
  if (r.aec != nullptr) {
    // Manager shards partition the lock id space; `out` re-sorts globally.
    for (const auto& shard : r.aec->locks) {
      for (const auto& [l, rec] : shard) out[l] = rec.lap.scores();
    }
  } else if (r.tm != nullptr) {
    for (const auto& [l, lap] : r.tm->lap) out[l] = lap.scores();
  } else if (r.erc != nullptr) {
    for (const auto& shard : r.erc->lap) {
      for (const auto& [l, lap] : shard) out[l] = lap.scores();
    }
  } else {
    // No live protocol handle: the result came from the cell cache, which
    // materialized the scores when the cell was first simulated.
    out = r.lap_scores;
  }
  return out;
}

std::vector<LapRow> lap_rows(const std::map<LockId, policy::LapScores>& scores,
                             const std::vector<apps::LockGroup>& groups) {
  std::uint64_t total_events = 0;
  for (const auto& [l, s] : scores) total_events += s.acquire_events;

  std::vector<LapRow> rows;
  for (const apps::LockGroup& g : groups) {
    LapRow row;
    row.variable = g.label;
    for (const auto& [l, s] : scores) {
      if (l < g.lo || l > g.hi) continue;
      row.lock_events += s.acquire_events;
      auto add = [](policy::PredictorScore& into, const policy::PredictorScore& from) {
        into.predictions += from.predictions;
        into.hits += from.hits;
      };
      add(row.scores.lap, s.lap);
      add(row.scores.waitq, s.waitq);
      add(row.scores.waitq_affinity, s.waitq_affinity);
      add(row.scores.waitq_virtualq, s.waitq_virtualq);
    }
    row.scores.acquire_events = row.lock_events;
    row.pct_of_total =
        total_events == 0 ? 0.0
                          : static_cast<double>(row.lock_events) /
                                static_cast<double>(total_events);
    rows.push_back(std::move(row));
  }
  return rows;
}

policy::PredictorScore total_lap_score(const ExperimentResult& r) {
  policy::PredictorScore total;
  for (const auto& [l, s] : lap_scores_of(r)) {
    total.predictions += s.lap.predictions;
    total.hits += s.lap.hits;
  }
  return total;
}

}  // namespace aecdsm::harness
