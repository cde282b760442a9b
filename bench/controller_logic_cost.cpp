/// \file controller_logic_cost.cpp
/// Quantifies the paper's section-6 open question: the design complexity of
/// the gate-controller logic, for flat vs hierarchical enable synthesis and
/// centralized vs distributed controllers. Reports 2-input OR counts, logic
/// area, and the switched capacitance of the OR output nets (each toggling
/// with the exact transition probability of its enable union), alongside
/// the enable-wire cost the controller already pays.

#include <iostream>

#include "common.h"
#include "eval/table.h"
#include "gating/controller_logic.h"

using namespace gcr;

namespace {

void print_report() {
  std::cout << "=== Controller logic complexity (gated+reduced trees) ===\n";
  eval::Table t({"Bench", "k", "style", "enables", "OR cells",
                 "logic area 1e3", "logic W pF", "enable-wire W pF"});
  for (const auto& name : {"r1", "r2"}) {
    const bench::Instance inst = bench::make_instance(name);
    const core::GatedClockRouter router(inst.design);
    for (const int k : {1, 4, 16}) {
      const auto r = bench::run_style(router, core::TreeStyle::GatedReduced,
                                      k, /*auto_tune=*/true);
      const gating::ControllerPlacement ctrl(inst.rb.die, k);
      for (const auto style :
           {gating::LogicStyle::Flat, gating::LogicStyle::Hierarchical}) {
        const auto rep = gating::synthesize_controller_logic(
            r.tree, r.activity, router.analyzer(), ctrl, tech::TechParams{},
            style);
        t.add_row({name, std::to_string(k),
                   style == gating::LogicStyle::Flat ? "flat" : "hierarchical",
                   std::to_string(rep.num_enables),
                   std::to_string(rep.num_or_gates),
                   eval::Table::num(rep.logic_area / 1e3, 0),
                   eval::Table::num(rep.logic_swcap, 2),
                   eval::Table::num(r.swcap.ctrl_swcap, 1)});
      }
    }
  }
  t.print(std::cout);
  std::cout << "\n(hierarchical sharing follows the gated-subtree DAG; "
               "distribution limits reuse to same-partition enables)\n\n";
}

}  // namespace

int main() { print_report(); }
