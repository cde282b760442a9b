/// \file large_design.cpp
/// Scale demonstration beyond the paper's r5 (3101 sinks): synthetic
/// designs up to 12k sinks routed end-to-end with the clustered
/// constructor. Shows the full gated flow (activity analysis, clustered
/// Eq. 3 topology, auto-tuned reduction, zero-skew embedding, exact
/// evaluation) stays interactive at sizes where the flat O(N^2) greedy
/// would dominate runtime, and that the paper's qualitative result
/// (gated+reduced < buffered) persists at scale.

#include <chrono>
#include <iostream>

#include "benchdata/rbench.h"
#include "benchdata/workload.h"
#include "common.h"
#include "core/router.h"
#include "eval/table.h"

using namespace gcr;

namespace {

core::Design make_design(int n, double die_side) {
  benchdata::RBenchSpec spec{"big", n, die_side, 0.005, 0.10,
                             0xabcdef12345ull + static_cast<unsigned>(n)};
  benchdata::RBench rb = benchdata::generate_rbench(spec);
  benchdata::WorkloadSpec w;
  w.num_instructions = 32;
  w.num_clusters = std::max(16, n / 32);
  w.target_activity = 0.4;
  w.locality = 0.85;
  w.stream_length = 20000;
  benchdata::Workload wl = benchdata::generate_workload(w, rb.sinks, rb.die);
  return core::Design{rb.die, rb.sinks, std::move(wl.rtl),
                      std::move(wl.stream), {}};
}

void print_report() {
  std::cout << "=== Large designs: clustered gated flow beyond r5 ===\n";
  eval::Table t({"sinks", "style", "W total pF", "vs buffered", "gates",
                 "skew", "flow seconds"});
  for (const auto& [n, die] : {std::pair{6000, 90000.0}, {12000, 128000.0}}) {
    const core::GatedClockRouter router(make_design(n, die));
    double buffered_w = 0.0;
    for (const auto& [style, label] :
         {std::pair{core::TreeStyle::Buffered, "buffered"},
          std::pair{core::TreeStyle::GatedReduced, "gated+red"}}) {
      core::RouterOptions opts;
      opts.style = style;
      opts.clustered = true;
      opts.auto_tune_reduction = style == core::TreeStyle::GatedReduced;
      const auto t0 = std::chrono::steady_clock::now();
      const auto r = router.route(opts);
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      verify::make_self_check(router)(r, opts);  // outside the timed flow
      if (style == core::TreeStyle::Buffered) buffered_w = r.swcap.total_swcap();
      t.add_row({std::to_string(n), label,
                 eval::Table::num(r.swcap.total_swcap(), 1),
                 eval::Table::num(r.swcap.total_swcap() / buffered_w, 3),
                 std::to_string(r.swcap.num_cells),
                 eval::Table::num(r.delays.skew(), 6),
                 eval::Table::num(secs, 2)});
    }
  }
  t.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main() { print_report(); }
