/// \file workload_robustness.cpp
/// Generalization study (beyond the paper, enabled by the cycle-accurate
/// simulator): a gated tree is optimized against one training trace, but
/// the chip runs other programs. For trees trained on each kernel (and on
/// the multiprogram mix), replay every kernel's trace and report the
/// switched capacitance per cycle -- the off-diagonal entries measure how
/// much a mis-trained gate placement costs, and the mix-trained row shows
/// why training on representative workloads matters.

#include <iostream>

#include "benchdata/rbench.h"
#include "common.h"
#include "core/router.h"
#include "cpu/bridge.h"
#include "cts/greedy.h"
#include "eval/simulate.h"
#include "eval/table.h"

using namespace gcr;

namespace {

void print_matrix() {
  std::cout << "=== Workload robustness: train trace (rows) vs replay trace "
               "(columns), W pF/cycle, r1 ===\n";
  benchdata::RBench rb = benchdata::generate_rbench("r1");
  const cpu::UnitFloorplan plan = cpu::assign_units(rb.sinks);
  const activity::RtlDescription rtl = cpu::make_rtl(plan);
  const std::vector<int> modules =
      cts::identity_modules(static_cast<int>(rb.sinks.size()));

  // Replay traces: each kernel alone, plus the mix.
  struct Replay {
    std::string name;
    activity::InstructionStream stream;
  };
  std::vector<Replay> replays;
  for (const auto& k : cpu::benchmark_kernels())
    replays.push_back({k.name, cpu::make_stream(cpu::run_with_data(k.prog))});
  replays.push_back({"mix", cpu::multiprogram_stream(20000)});

  const gating::ControllerPlacement ctrl(rb.die, 1);
  std::vector<std::string> headers{"trained on"};
  for (const auto& r : replays) headers.push_back(r.name);
  eval::Table t(std::move(headers));

  for (const auto& train : replays) {
    core::Design d{rb.die, rb.sinks, rtl, train.stream, {}};
    const core::GatedClockRouter router(std::move(d));
    core::RouterOptions opts;
    opts.style = core::TreeStyle::GatedReduced;
    // Fix the topology scheme so the rows differ only in where the
    // training trace placed (and kept) gates.
    opts.topology = core::TopologyScheme::NearestNeighbor;
    opts.auto_tune_reduction = true;
    const auto routed = bench::route(router, opts);

    std::vector<std::string> row{train.name};
    for (const auto& replay : replays) {
      const auto sim =
          eval::simulate_swcap(routed.tree, rtl, replay.stream, modules,
                               ctrl, opts.tech, true);
      row.push_back(eval::Table::num(sim.total_per_cycle(), 1));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::cout << "\n(same NN topology everywhere; rows differ only in which "
               "gates the training trace\nkept. Reading down a column shows "
               "the cost of optimizing the gate set against the\nwrong "
               "workload.)\n\n";
}

}  // namespace

int main() { print_matrix(); }
