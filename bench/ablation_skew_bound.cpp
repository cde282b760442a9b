/// \file ablation_skew_bound.cpp
/// Ablation of the zero-skew constraint: the paper routes with exact zero
/// skew, paying detour (snake) wire wherever gate insertion makes sibling
/// branches electrically asymmetric. This bench sweeps a skew budget and
/// reports the wirelength and switched capacitance it buys back on the
/// gate-reduced tree, with the measured sink skew certifying the budget is
/// honored. (Delay unit: ohm*pF = ps.)

#include <iostream>

#include "common.h"
#include "eval/table.h"

using namespace gcr;

namespace {

void print_ablation() {
  std::cout << "=== Ablation: skew budget vs snake wire (r1, gate-reduced) "
               "===\n";
  const bench::Instance inst = bench::make_instance("r1");
  const core::GatedClockRouter router(inst.design);

  eval::Table t({"skew bound ps", "measured skew", "wirelen 1e3",
                 "W total", "W vs bound=0"});
  double base_w = 0.0;
  for (const double bound : {0.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0}) {
    core::RouterOptions opts;
    opts.style = core::TreeStyle::GatedReduced;
    opts.skew_bound = bound;
    const auto r = bench::route(router, opts);
    if (bound == 0.0) base_w = r.swcap.total_swcap();
    t.add_row({eval::Table::num(bound, 0),
               eval::Table::num(r.delays.skew(), 3),
               eval::Table::num(r.tree.total_wirelength() / 1e3, 1),
               eval::Table::num(r.swcap.total_swcap(), 1),
               eval::Table::num(r.swcap.total_swcap() / base_w, 3)});
  }
  t.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main() { print_ablation(); }
