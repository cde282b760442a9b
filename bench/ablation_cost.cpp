/// \file ablation_cost.cpp
/// Ablation of the paper's key design choice (section 4.2): the topology
/// generation scheme. Four arms, all routed gate-reduced by the same
/// router flow (fixed default reduction, centralized controller), so the
/// deltas isolate the merge-order contribution:
///   * mmm          -- top-down means-and-medians [Jackson et al.'90]
///   * nearest-nbr  -- bottom-up greedy by distance [Edahiro'91]
///   * activity     -- bottom-up greedy by joint enable probability only
///                     (the prior-work style of [Tellez et al.'95])
///   * min-swcap    -- the paper's Eq. 3 (geometry x activity combined)

#include <iostream>

#include "common.h"
#include "eval/table.h"

using namespace gcr;

namespace {

void print_ablation() {
  std::cout << "=== Ablation: topology generation schemes under identical "
               "gating (reduction + embedding) ===\n";
  eval::Table t({"Bench", "order", "W total", "W(T)", "W(S)", "wirelen 1e3",
                 "W vs NN"});
  for (const auto& name : {"r1", "r2", "r3"}) {
    const bench::Instance inst = bench::make_instance(name);
    const core::GatedClockRouter router(inst.design);
    const auto route = [&](core::TopologyScheme scheme) {
      core::RouterOptions opts;
      opts.style = core::TreeStyle::GatedReduced;
      opts.topology = scheme;
      return bench::route(router, opts);
    };
    const auto nn = route(core::TopologyScheme::NearestNeighbor);
    for (const auto& [scheme, label] :
         {std::pair{core::TopologyScheme::Mmm, "mmm"},
          {core::TopologyScheme::NearestNeighbor, "nearest-nbr"},
          {core::TopologyScheme::ActivityOnly, "activity"},
          {core::TopologyScheme::MinSwitchedCap, "min-swcap"}}) {
      const auto r =
          scheme == core::TopologyScheme::NearestNeighbor ? nn : route(scheme);
      t.add_row({name, label, eval::Table::num(r.swcap.total_swcap(), 1),
                 eval::Table::num(r.swcap.clock_swcap, 1),
                 eval::Table::num(r.swcap.ctrl_swcap, 1),
                 eval::Table::num(r.tree.total_wirelength() / 1e3, 0),
                 eval::Table::num(r.swcap.total_swcap() / nn.swcap.total_swcap(), 3)});
    }
  }
  t.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main() { print_ablation(); }
