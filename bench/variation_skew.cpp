/// \file variation_skew.cpp
/// Process-variation sensitivity of the three tree styles (beyond the
/// paper): the construction is zero-skew at nominal parasitics, but
/// manufacturing spread re-introduces skew. Gated trees put different cell
/// counts on different root-to-sink paths (especially after reduction), so
/// their skew under variation differs from the uniformly-buffered
/// baseline. 10%/15% relative sigmas on wire RC / cell strength, 200
/// Monte-Carlo trials per row.

#include <iostream>

#include "common.h"
#include "eval/power.h"
#include "eval/table.h"
#include "eval/variation.h"

using namespace gcr;

namespace {

void print_report() {
  std::cout << "=== Skew under process variation (r1, 200 trials) ===\n";
  const bench::Instance inst = bench::make_instance("r1");
  const core::GatedClockRouter router(inst.design);

  eval::Table t({"style", "nominal delay", "mean skew", "p95 skew",
                 "max skew", "skew/delay %", "power mW @200MHz/3.3V"});
  for (const auto& [style, label] :
       {std::pair{core::TreeStyle::Buffered, "buffered"},
        std::pair{core::TreeStyle::Gated, "gated"},
        std::pair{core::TreeStyle::GatedReduced, "gated+red"}}) {
    const auto r = bench::run_style(router, style, /*partitions=*/1,
                                    style == core::TreeStyle::GatedReduced);
    eval::VariationSpec spec;
    spec.trials = 200;
    const eval::VariationReport rep =
        eval::variation_analysis(r.tree, tech::TechParams{}, spec);
    t.add_row({label, eval::Table::num(r.delays.max_delay, 0),
               eval::Table::num(rep.mean_skew, 1),
               eval::Table::num(rep.p95_skew, 1),
               eval::Table::num(rep.max_skew, 1),
               eval::Table::num(100.0 * rep.mean_skew_ratio, 2),
               eval::Table::num(
                   eval::dynamic_power_mw(r.swcap.total_swcap()), 1)});
  }
  t.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main() { print_report(); }
