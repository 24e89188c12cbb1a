#include "harness/format.hpp"

#include <iomanip>
#include <sstream>

namespace aecdsm::harness {

std::string pct(double fraction, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << fraction * 100.0 << "%";
  return os.str();
}

void print_header(std::ostream& os, const std::string& title) {
  os << "\n=== " << title << " ===\n";
}

void print_breakdown_figure(std::ostream& os, const std::string& title,
                            const std::vector<BreakdownBar>& bars) {
  print_header(os, title);
  if (bars.empty()) return;
  const double base = static_cast<double>(bars.front().finish);
  os << std::left << std::setw(14) << "config" << std::right << std::setw(8) << "total"
     << std::setw(8) << "busy" << std::setw(8) << "data" << std::setw(8) << "synch"
     << std::setw(8) << "ipc" << std::setw(8) << "others" << "\n";
  for (const BreakdownBar& bar : bars) {
    // Normalize each component by the aggregate attributed time, scaled to
    // the bar's wall-clock finish relative to the first bar (the paper's
    // normalized stacked-bar layout).
    const double total = static_cast<double>(bar.acct.total());
    const double height = static_cast<double>(bar.finish) / base * 100.0;
    auto part = [&](Cycles c) {
      return total == 0.0 ? 0.0 : static_cast<double>(c) / total * height;
    };
    os << std::left << std::setw(14) << bar.label << std::right << std::fixed
       << std::setprecision(1) << std::setw(7) << height << " " << std::setw(7)
       << part(bar.acct.busy) << " " << std::setw(7) << part(bar.acct.data) << " "
       << std::setw(7) << part(bar.acct.synch) << " " << std::setw(7)
       << part(bar.acct.ipc) << " " << std::setw(7) << part(bar.acct.others()) << "\n";
  }
}

void print_lap_table(std::ostream& os, const std::string& app,
                     const std::vector<LapRow>& rows) {
  os << std::left << std::setw(10) << app;
  os << std::left << std::setw(30) << "variable" << std::right << std::setw(9)
     << "events" << std::setw(9) << "% total" << std::setw(8) << "LAP" << std::setw(8)
     << "waitQ" << std::setw(10) << "wQ+aff" << std::setw(10) << "wQ+virtQ" << "\n";
  auto rate = [](const policy::PredictorScore& s) {
    std::ostringstream o;
    if (s.predictions == 0) {
      o << "-";
    } else {
      o << std::fixed << std::setprecision(1) << s.rate() * 100.0;
    }
    return o.str();
  };
  for (const LapRow& row : rows) {
    os << std::left << std::setw(10) << "" << std::setw(30) << row.variable
       << std::right << std::setw(9) << row.lock_events << std::setw(8) << std::fixed
       << std::setprecision(1) << row.pct_of_total * 100.0 << "%" << std::setw(8)
       << rate(row.scores.lap) << std::setw(8) << rate(row.scores.waitq)
       << std::setw(10) << rate(row.scores.waitq_affinity) << std::setw(10)
       << rate(row.scores.waitq_virtualq) << "\n";
  }
}

void print_diff_table(std::ostream& os, const std::vector<DiffRow>& rows) {
  os << std::left << std::setw(10) << "Appl" << std::right << std::setw(8) << "Size"
     << std::setw(12) << "MergedSize" << std::setw(9) << "Merged" << std::setw(12)
     << "Create" << std::setw(9) << "Hidden" << "\n";
  for (const DiffRow& row : rows) {
    const DiffStats& d = row.stats;
    const double avg_size =
        d.diffs_created == 0 ? 0.0
                             : static_cast<double>(d.diff_bytes) /
                                   static_cast<double>(d.diffs_created);
    const double avg_merged =
        d.merged_result_count == 0 ? 0.0
                                   : static_cast<double>(d.merged_result_bytes) /
                                         static_cast<double>(d.merged_result_count);
    const double merged_frac =
        d.diffs_created == 0 ? 0.0
                             : static_cast<double>(d.merged_diffs) /
                                   static_cast<double>(d.diffs_created);
    const double hidden_frac =
        d.create_cycles == 0 ? 0.0
                             : static_cast<double>(d.create_hidden_cycles) /
                                   static_cast<double>(d.create_cycles);
    os << std::left << std::setw(10) << row.app << std::right << std::fixed
       << std::setprecision(0) << std::setw(8) << avg_size << std::setw(12)
       << avg_merged << std::setw(8) << std::setprecision(1) << merged_frac * 100.0
       << "%" << std::setw(11) << std::setprecision(2)
       << static_cast<double>(d.create_cycles) / 1e6 << "M" << std::setw(8)
       << std::setprecision(1) << hidden_frac * 100.0 << "%\n";
  }
}

}  // namespace aecdsm::harness
