/// \file ablation_sizing.cpp
/// Ablation of gate sizing (paper section 1: gates "also serve as buffers
/// and can be sized to adjust the phase delay"). Zero skew with unit gates
/// pays for sibling delay imbalance with snake wire; letting each merge
/// pick the gate size that minimizes wire recovers most of that detour.
/// Reports wirelength, snake wire, switched capacitance and area with and
/// without sizing, at several gate-reduction levels (asymmetric gating is
/// where the imbalance comes from).

#include <iostream>

#include "common.h"
#include "eval/table.h"

using namespace gcr;

namespace {

double snake_wire(const ct::RoutedTree& tree) {
  double snake = 0.0;
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const ct::RoutedNode& n = tree.node(id);
    if (n.parent < 0) continue;
    snake +=
        n.edge_len - geom::manhattan_dist(n.loc, tree.node(n.parent).loc);
  }
  return snake;
}

void print_ablation() {
  std::cout << "=== Ablation: gate sizing for phase-delay adjustment (r1) "
               "===\n";
  const bench::Instance inst = bench::make_instance("r1");
  const core::GatedClockRouter router(inst.design);

  eval::Table t({"red. strength", "sizing", "wirelen 1e3", "snake 1e3",
                 "W total", "cell area 1e3", "max delay"});
  for (const double s : {0.0, 0.3, 0.5, 0.7}) {
    for (const bool sized : {false, true}) {
      core::RouterOptions opts;
      opts.style = core::TreeStyle::GatedReduced;
      opts.reduction = gating::GateReductionParams::from_strength(s);
      opts.gate_sizing = sized ? ct::GateSizing::MinWirelength
                               : ct::GateSizing::Unit;
      const auto r = bench::route(router, opts);
      t.add_row({eval::Table::num(s, 1), sized ? "min-wire" : "unit",
                 eval::Table::num(r.tree.total_wirelength() / 1e3, 0),
                 eval::Table::num(snake_wire(r.tree) / 1e3, 0),
                 eval::Table::num(r.swcap.total_swcap(), 1),
                 eval::Table::num(r.swcap.cell_area / 1e3, 0),
                 eval::Table::num(r.delays.max_delay, 0)});
    }
  }
  t.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main() { print_ablation(); }
