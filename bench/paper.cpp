/// \file paper.cpp
/// The paper gate: regenerates Tables 1-4 and Figs. 3-6 (sections 3, 5 and
/// 6) and the extension studies, checks every claim against its band
/// (paper_claims.h), pins the r1-r5 trees, and prints each table as the
/// markdown block that EXPERIMENTS.md carries between `<!-- paper:NAME -->`
/// markers.
///
///   paper [EXPERIMENTS.md]
///
/// Each design is built once and every route runs under the verify
/// invariant checker. Exits 1 with one `FAIL` line per failed claim (the
/// claim, the measured value and the band), or per generated block that
/// the given EXPERIMENTS.md does not carry verbatim. ctest runs it with
/// the `paper` label.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>

#include "activity/analyzer.h"
#include "activity/brute_force.h"
#include "benchdata/paper_example.h"
#include "common.h"
#include "eval/power.h"
#include "eval/table.h"
#include "eval/variation.h"
#include "gating/controller_logic.h"
#include "io/tree_io.h"
#include "paper_claims.h"
#include "serve/cache.h"

using namespace gcr;
using namespace gcr::bench::paper;
using eval::Table;

namespace {

constexpr double kActivities[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
constexpr double kStrengths[] = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                                 0.6, 0.7, 0.8, 0.9, 1.0};
constexpr int kPartitions[] = {1, 4, 16, 64};
constexpr double kSizingStrengths[] = {0.0, 0.3, 0.5, 0.7};
constexpr double kSkewBounds[] = {0.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0};
constexpr int kLogicPartitions[] = {1, 4, 16};

/// The tables as the routes fill them, and the rows the claims check.
struct Paper {
  Table table4{{"Bench", "No. of sinks", "No. of instr", "Stream len",
                "Ave(M(Ij))"}};
  Table fig3{{"Bench", "Buffered W", "Gated W", "GateRed. W",
              "GateRed./Buffered", "Buffered area", "Gated area",
              "GateRed. area"}};
  Table fig3_detail{{"Bench", "style", "W(T) pF", "W(S) pF", "gates",
                     "red. %", "clock WL", "star WL", "skew"}};
  Table fig4{{"activity", "Buffered W", "GateRed. W", "GateRed./Buffered",
              "W(T)/ungated"}};
  Table fig5{{"strength", "red. %", "gates", "Clock W(T)", "Ctrl W(S)",
              "Total W", "Ctrl area", "Clock area", "Total area 1e6"}};
  Table fig6{{"Bench", "k", "star WL (1e3)", "analytic (1e3)", "WL vs k=1",
              "1/sqrt(k)", "Ctrl W(S)", "Total W"}};
  Table trees{{"Bench", "buffered", "gated", "reduced"}};
  Table ablation_cost{{"Bench", "order", "W total", "W(T)", "W(S)",
                       "wirelen 1e3", "W vs NN"}};
  Table ablation_sizing{{"red. strength", "sizing", "wirelen 1e3",
                         "snake 1e3", "W total", "cell area 1e3",
                         "max delay"}};
  Table ablation_skew_bound{{"skew bound ps", "measured skew", "wirelen 1e3",
                             "W total", "W vs bound=0"}};
  Table controller_logic_cost{{"Bench", "k", "style", "enables", "OR cells",
                               "logic area 1e3", "logic W pF",
                               "enable-wire W pF"}};
  Table variation_skew{{"style", "nominal delay", "mean skew", "p95 skew",
                        "max skew", "skew/delay %",
                        "power mW @200MHz/3.3V"}};
  Table large_design{{"sinks", "style", "W total pF", "vs buffered", "gates",
                      "skew"}};

  std::vector<Table4Row> table4_rows;
  std::vector<Fig3Row> fig3_rows;
  std::vector<Fig4Row> fig4_rows;
  std::vector<Fig5Row> fig5_rows;
  std::vector<Fig6Row> fig6_rows;
  std::vector<TreeHashes> tree_rows;
  std::vector<TopologyRow> topology_rows;
  std::vector<SizingRow> sizing_rows;
  std::vector<SkewBoundRow> skew_bound_rows;
  std::vector<LogicRow> logic_rows;
  std::vector<VariationRow> variation_rows;
  std::vector<LargeRow> large_rows;
};

std::uint64_t tree_hash(const ct::RoutedTree& tree) {
  std::ostringstream os;
  io::write_routed_tree(os, tree);
  return serve::hash_bytes(os.str());
}

void add_fig4(Paper& p, double activity, const core::RouterResult& buf,
              const core::RouterResult& red) {
  const double bw = buf.swcap.total_swcap();
  const double rw = red.swcap.total_swcap();
  const double floor = red.swcap.clock_swcap / red.swcap.ungated_swcap;
  p.fig4.add_row({Table::num(activity, 1), Table::num(bw, 1),
                  Table::num(rw, 1), Table::num(rw / bw, 3),
                  Table::num(floor, 3)});
  p.fig4_rows.push_back({activity, bw, rw, floor});
}

/// `ablation_cost`: the four merge orders under identical gate-reduced
/// gating. `eq3` is the default route, whose topology is Eq. 3's.
void add_topology_ablation(Paper& p, const std::string& name,
                           const core::GatedClockRouter& router,
                           const core::RouterResult& eq3) {
  const auto route = [&](core::TopologyScheme scheme) {
    core::RouterOptions opts;
    opts.style = core::TreeStyle::GatedReduced;
    opts.topology = scheme;
    return bench::route(router, opts);
  };
  const auto mmm = route(core::TopologyScheme::Mmm);
  const auto nn = route(core::TopologyScheme::NearestNeighbor);
  const auto act = route(core::TopologyScheme::ActivityOnly);
  const double nn_w = nn.swcap.total_swcap();
  for (const auto& [r, order] : {std::pair{&mmm, "mmm"},
                                 {&nn, "nearest-nbr"},
                                 {&act, "activity"},
                                 {&eq3, "min-swcap"}}) {
    p.ablation_cost.add_row(
        {name, order, Table::num(r->swcap.total_swcap(), 1),
         Table::num(r->swcap.clock_swcap, 1),
         Table::num(r->swcap.ctrl_swcap, 1),
         Table::num(r->tree.total_wirelength() / 1e3, 0),
         Table::num(r->swcap.total_swcap() / nn_w, 3)});
  }
  p.topology_rows.push_back({name, nn.tree.total_wirelength(),
                             act.tree.total_wirelength(), nn_w,
                             eq3.swcap.total_swcap()});
}

/// Wire an edge spends beyond the Manhattan distance to its parent.
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

/// `ablation_sizing`: the unit-gate route `unit` (made with `opts`) beside
/// the same options with min-wire gate sizing.
void add_sizing(Paper& p, const core::GatedClockRouter& router,
                core::RouterOptions opts, double strength,
                const core::RouterResult& unit) {
  opts.gate_sizing = ct::GateSizing::MinWirelength;
  const auto sized = bench::route(router, opts);
  for (const auto& [r, sizing] :
       {std::pair{&unit, "unit"}, {&sized, "min-wire"}}) {
    p.ablation_sizing.add_row(
        {Table::num(strength, 1), sizing,
         Table::num(r->tree.total_wirelength() / 1e3, 0),
         Table::num(snake_wire(r->tree) / 1e3, 0),
         Table::num(r->swcap.total_swcap(), 1),
         Table::num(r->swcap.cell_area / 1e3, 0),
         Table::num(r->delays.max_delay, 0)});
  }
  p.sizing_rows.push_back({strength, snake_wire(unit.tree),
                           snake_wire(sized.tree), unit.swcap.total_swcap(),
                           sized.swcap.total_swcap()});
}

/// `ablation_skew_bound`: the gate-reduced tree under each skew budget;
/// `zero` is the default (zero-skew) route.
void add_skew_bounds(Paper& p, const core::GatedClockRouter& router,
                     const core::RouterResult& zero) {
  const double base_w = zero.swcap.total_swcap();
  for (const double bound : kSkewBounds) {
    core::RouterOptions opts;
    opts.style = core::TreeStyle::GatedReduced;
    opts.skew_bound = bound;
    const auto r = bound == 0.0 ? zero : bench::route(router, opts);
    const double w = r.swcap.total_swcap();
    p.ablation_skew_bound.add_row(
        {Table::num(bound, 0), Table::num(r.delays.skew(), 3),
         Table::num(r.tree.total_wirelength() / 1e3, 1), Table::num(w, 1),
         Table::num(w / base_w, 3)});
    p.skew_bound_rows.push_back({bound, r.delays.skew(), w});
  }
}

/// `controller_logic_cost`: flat vs hierarchical enable logic of the
/// auto-tuned gate-reduced tree per partition count; `tuned` is k = 1.
void add_controller_logic(Paper& p, const std::string& name,
                          const bench::Instance& inst,
                          const core::GatedClockRouter& router,
                          const core::RouterResult& tuned) {
  for (const int k : kLogicPartitions) {
    const auto r =
        k == 1 ? tuned
               : bench::run_style(router, core::TreeStyle::GatedReduced, k,
                                  /*auto_tune=*/true);
    const gating::ControllerPlacement ctrl(inst.rb.die, k);
    LogicRow row{name, k};
    for (const auto style :
         {gating::LogicStyle::Flat, gating::LogicStyle::Hierarchical}) {
      const bool flat = style == gating::LogicStyle::Flat;
      const auto rep = gating::synthesize_controller_logic(
          r.tree, r.activity, router.analyzer(), ctrl, tech::TechParams{},
          style);
      p.controller_logic_cost.add_row(
          {name, std::to_string(k), flat ? "flat" : "hierarchical",
           std::to_string(rep.num_enables), std::to_string(rep.num_or_gates),
           Table::num(rep.logic_area / 1e3, 0),
           Table::num(rep.logic_swcap, 2),
           Table::num(r.swcap.ctrl_swcap, 1)});
      (flat ? row.flat_ors : row.hierarchical_ors) = rep.num_or_gates;
    }
    p.logic_rows.push_back(row);
  }
}

/// `variation_skew`: 200 Monte-Carlo trials of each style's tree.
void add_variation(Paper& p, const core::RouterResult& buf,
                   const core::RouterResult& gated,
                   const core::RouterResult& tuned) {
  for (const auto& [r, style] : {std::pair{&buf, "buffered"},
                                 {&gated, "gated"},
                                 {&tuned, "gated+red"}}) {
    eval::VariationSpec spec;
    spec.trials = 200;
    const eval::VariationReport rep =
        eval::variation_analysis(r->tree, tech::TechParams{}, spec);
    p.variation_skew.add_row(
        {style, Table::num(r->delays.max_delay, 0),
         Table::num(rep.mean_skew, 1), Table::num(rep.p95_skew, 1),
         Table::num(rep.max_skew, 1),
         Table::num(100.0 * rep.mean_skew_ratio, 2),
         Table::num(eval::dynamic_power_mw(r->swcap.total_swcap()), 1)});
    p.variation_rows.push_back({style, 100.0 * rep.mean_skew_ratio});
  }
}

/// A synthetic design of `n` sinks beyond r5, with the section-5 workload.
core::Design make_large_design(int n, double die_side) {
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

/// `large_design`: buffered vs auto-tuned gate-reduced trees, both built
/// by the clustered constructor, on 6k and 12k sinks.
void add_large_designs(Paper& p) {
  for (const auto& [n, die] : {std::pair{6000, 90000.0}, {12000, 128000.0}}) {
    const core::GatedClockRouter router(make_large_design(n, die));
    const auto route = [&](core::TreeStyle style) {
      core::RouterOptions opts;
      opts.style = style;
      opts.clustered = true;
      opts.auto_tune_reduction = style == core::TreeStyle::GatedReduced;
      return bench::route(router, opts);
    };
    const auto buf = route(core::TreeStyle::Buffered);
    const auto red = route(core::TreeStyle::GatedReduced);
    const double bw = buf.swcap.total_swcap();
    for (const auto& [r, style] :
         {std::pair{&buf, "buffered"}, {&red, "gated+red"}}) {
      p.large_design.add_row({std::to_string(n), style,
                              Table::num(r->swcap.total_swcap(), 1),
                              Table::num(r->swcap.total_swcap() / bw, 3),
                              std::to_string(r->swcap.num_cells),
                              Table::num(r->delays.skew(), 6)});
    }
    p.large_rows.push_back({n, bw, red.swcap.total_swcap(),
                            std::max(buf.delays.skew(), red.delays.skew())});
  }
}

/// Route every r-benchmark once; each figure and study reads the routes it
/// needs.
void compute(Paper& p) {
  using core::TreeStyle;
  for (const auto& spec : benchdata::rbench_specs()) {
    const std::string& name = spec.name;
    const bench::Instance inst = bench::make_instance(name);
    const core::GatedClockRouter router(inst.design);
    const core::Design& d = router.design();
    const double ave = router.analyzer().ift().average_activity(d.rtl);
    p.table4.add_row({name, std::to_string(d.num_sinks()),
                      std::to_string(d.rtl.num_instructions()),
                      std::to_string(d.stream.length()), Table::num(ave, 3)});
    p.table4_rows.push_back({name, d.num_sinks(), ave});

    const auto buf = bench::run_style(router, TreeStyle::Buffered);
    const auto gated = bench::run_style(router, TreeStyle::Gated);
    const auto red = bench::run_style(router, TreeStyle::GatedReduced);
    // Fig. 3 picks the reduction operating point per design, as the
    // paper's Fig. 5 sweep does.
    const auto tuned = bench::run_style(router, TreeStyle::GatedReduced,
                                        /*partitions=*/1, /*auto_tune=*/true);
    const double bw = buf.swcap.total_swcap();
    const double gw = gated.swcap.total_swcap();
    const double tw = tuned.swcap.total_swcap();
    p.fig3.add_row({name, Table::num(bw, 1), Table::num(gw, 1),
                    Table::num(tw, 1), Table::num(tw / bw, 3),
                    Table::num(buf.swcap.total_area() / 1e6, 2),
                    Table::num(gated.swcap.total_area() / 1e6, 2),
                    Table::num(tuned.swcap.total_area() / 1e6, 2)});
    p.fig3_rows.push_back({name, bw, gw, tw, buf.swcap.total_area(),
                           tuned.swcap.total_area()});
    for (const auto& [r, style] : {std::pair{&buf, "buffered"},
                                   {&gated, "gated"},
                                   {&tuned, "gate-red"}}) {
      p.fig3_detail.add_row(
          {name, style, Table::num(r->swcap.clock_swcap, 1),
           Table::num(r->swcap.ctrl_swcap, 1),
           std::to_string(r->swcap.num_cells),
           Table::num(r->gate_reduction_pct(), 1),
           Table::num(r->swcap.clock_wirelength / 1e3, 0),
           Table::num(r->swcap.star_wirelength / 1e3, 0),
           Table::num(r->delays.skew(), 6)});
    }
    const TreeHashes h{name, tree_hash(buf.tree), tree_hash(gated.tree),
                       tree_hash(red.tree)};
    p.trees.add_row({name, hex(h.buffered), hex(h.gated), hex(h.reduced)});
    p.tree_rows.push_back(h);

    if (name == "r1") {
      for (const double a : kActivities) {
        if (a == 0.4) {  // the r1 design itself
          add_fig4(p, a, buf, red);
          continue;
        }
        const bench::Instance swept = bench::make_instance("r1", a);
        const core::GatedClockRouter r(swept.design);
        add_fig4(p, a, bench::run_style(r, TreeStyle::Buffered),
                 bench::run_style(r, TreeStyle::GatedReduced));
      }
      for (const double s : kStrengths) {
        core::RouterOptions opts;
        opts.style = TreeStyle::GatedReduced;
        opts.reduction = gating::GateReductionParams::from_strength(s);
        const auto r = bench::route(router, opts);
        p.fig5.add_row(
            {Table::num(s, 1), Table::num(r.gate_reduction_pct(), 1),
             std::to_string(r.swcap.num_cells),
             Table::num(r.swcap.clock_swcap, 1),
             Table::num(r.swcap.ctrl_swcap, 1),
             Table::num(r.swcap.total_swcap(), 1),
             Table::num((opts.tech.wire_area(r.swcap.star_wirelength) +
                         r.swcap.cell_area) / 1e6, 2),  // enable net + gates
             Table::num(opts.tech.wire_area(r.swcap.clock_wirelength) / 1e6, 2),
             Table::num(r.swcap.total_area() / 1e6, 2)});
        p.fig5_rows.push_back({s, r.swcap.clock_swcap, r.swcap.ctrl_swcap,
                               r.swcap.total_area()});
        if (std::count(std::begin(kSizingStrengths),
                       std::end(kSizingStrengths), s))
          add_sizing(p, router, opts, s, r);
      }
      add_skew_bounds(p, router, red);
      add_variation(p, buf, gated, tuned);
    }
    if (name <= "r2") add_controller_logic(p, name, inst, router, tuned);
    if (name <= "r3") {  // r1-r3, Gated style, so G is fixed while k varies
      for (const int k : kPartitions) {
        const auto r =
            k == 1 ? gated : bench::run_style(router, TreeStyle::Gated, k);
        const gating::ControllerPlacement ctrl(inst.rb.die, k);
        const double ratio =
            r.swcap.star_wirelength / gated.swcap.star_wirelength;
        p.fig6.add_row(
            {name, std::to_string(k),
             Table::num(r.swcap.star_wirelength / 1e3, 0),
             Table::num(ctrl.analytic_total_star_length(r.swcap.num_cells) /
                            1e3, 0),
             Table::num(ratio, 3),
             Table::num(1.0 / std::sqrt(double(k)), 3),
             Table::num(r.swcap.ctrl_swcap, 1),
             Table::num(r.swcap.total_swcap(), 1)});
        p.fig6_rows.push_back({name, k, ratio});
      }
      add_topology_ablation(p, name, router, red);
    }
  }
  add_large_designs(p);
}

Failures check_claims(const Paper& p) {
  Failures out;
  for (const Failures& f :
       {table4_sinks(p.table4_rows), table4_activity(p.table4_rows),
        fig3_gated_worse(p.fig3_rows), fig3_reduced_ratio(p.fig3_rows),
        fig3_reduced_area(p.fig3_rows), fig4_buffered_flat(p.fig4_rows),
        fig4_ratio_rises(p.fig4_rows), fig4_crossover(p.fig4_rows),
        fig4_gated_floor(p.fig4_rows), fig5_ws_falls(p.fig5_rows),
        fig5_area_falls(p.fig5_rows), fig5_interior_minimum(p.fig5_rows),
        fig5_wt_rises(p.fig5_rows), fig6_sqrt_k(p.fig6_rows),
        tree_hashes(p.tree_rows), topology_activity_wire(p.topology_rows),
        topology_eq3_near_nn(p.topology_rows),
        sizing_full_gating(p.sizing_rows),
        skew_bound_honored(p.skew_bound_rows),
        skew_bound_w_falls(p.skew_bound_rows),
        logic_sharing_pays(p.logic_rows), logic_sharing_erodes(p.logic_rows),
        variation_skew_share(p.variation_rows),
        large_reduced_ratio(p.large_rows), large_zero_skew(p.large_rows)})
    out.insert(out.end(), f.begin(), f.end());
  return out;
}

/// One generated table, markers included, as EXPERIMENTS.md holds it.
struct Block {
  std::string name;
  std::string text;
};

Block block(const std::string& name, const Table& t) {
  std::ostringstream os;
  os << "<!-- paper:" << name << " -->\n";
  t.print_markdown(os);
  os << "<!-- /paper:" << name << " -->";
  return {name, os.str()};
}

/// Tables 1-3 and the probabilities section 3.2 quotes, from the worked
/// example (exact values are gated by activity_test's PaperExampleTest).
std::vector<Block> example_tables() {
  const auto ex = benchdata::paper_example();
  const activity::ActivityAnalyzer an(ex.rtl, ex.stream);
  Table t1({"Instruction", "Used Modules"});
  Table t2({"Instruction", "Probability"});
  for (int i = 0; i < ex.rtl.num_instructions(); ++i) {
    std::string mods;
    ex.rtl.module_set(i).for_each([&](int m) {
      mods += (mods.empty() ? "M" : " M") + std::to_string(m + 1);
    });
    t1.add_row({"I" + std::to_string(i + 1), mods});
    t2.add_row({"I" + std::to_string(i + 1), Table::num(an.ift().prob(i), 2)});
  }
  Table t3({"Prob.", "Instr.", "M1", "M2", "M3", "M4", "M5", "M6"});
  const char* tags[] = {"00", "01", "10", "11"};
  for (const auto& row : an.imatt().rows()) {
    std::vector<std::string> cells{
        Table::num(an.imatt().pair_prob(row.cur, row.nxt), 3),
        "I" + std::to_string(row.cur + 1) + " I" + std::to_string(row.nxt + 1)};
    for (int m = 0; m < ex.rtl.num_modules(); ++m)
      cells.push_back(tags[activity::Imatt::activation_tag(ex.rtl, row, m)]);
    t3.add_row(std::move(cells));
  }
  const activity::BruteForceActivity bf(ex.rtl, ex.stream);
  activity::ModuleSet m1(6);
  m1.set(0);
  activity::ModuleSet m56(6);
  m56.set(4);
  m56.set(5);
  Table q({"quantity", "paper", "table-driven", "brute-force"});
  q.add_row({"P(M1)", "0.75", Table::num(an.signal_prob_of_modules(m1), 4),
             Table::num(bf.signal_prob(m1), 4)});
  q.add_row({"P(EN{M5,M6})", "0.55",
             Table::num(an.signal_prob_of_modules(m56), 4),
             Table::num(bf.signal_prob(m56), 4)});
  q.add_row({"P_tr(EN{M5,M6})", "11/19 = 0.5789",
             Table::num(an.transition_prob_of_modules(m56), 4),
             Table::num(bf.transition_prob(m56), 4)});
  return {block("table1", t1), block("table2", t2), block("table3", t3),
          block("quoted", q)};
}

/// Every generated block must appear verbatim, markers included, in the
/// document.
Failures stale_blocks(const std::string& path,
                      const std::vector<Block>& blocks) {
  std::ifstream in(path);
  if (!in) return {path + ": cannot open"};
  const std::string doc{std::istreambuf_iterator<char>(in), {}};
  Failures out;
  for (const auto& b : blocks) {
    if (doc.find(b.text) == std::string::npos)
      out.push_back(path + " table " + b.name +
                    ": differs from the block printed above, or is missing");
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2) {
    std::cerr << "usage: " << argv[0] << " [EXPERIMENTS.md]\n";
    return 2;
  }
  try {
    Paper p;
    compute(p);
    std::vector<Block> blocks = example_tables();
    for (const auto& [name, table] :
         {std::pair{"table4", &p.table4}, {"fig3", &p.fig3},
          {"fig3_detail", &p.fig3_detail}, {"fig4", &p.fig4},
          {"fig5", &p.fig5}, {"fig6", &p.fig6}, {"trees", &p.trees},
          {"ablation_cost", &p.ablation_cost},
          {"ablation_sizing", &p.ablation_sizing},
          {"ablation_skew_bound", &p.ablation_skew_bound},
          {"controller_logic_cost", &p.controller_logic_cost},
          {"variation_skew", &p.variation_skew},
          {"large_design", &p.large_design}})
      blocks.push_back(block(name, *table));
    for (const auto& b : blocks) std::cout << b.text << "\n\n";

    Failures failed = check_claims(p);
    if (argc == 2) {
      const Failures stale = stale_blocks(argv[1], blocks);
      failed.insert(failed.end(), stale.begin(), stale.end());
    }
    for (const auto& f : failed) std::cout << "FAIL " << f << '\n';
    std::cout << "paper: " << failed.size() << " failed\n";
    return failed.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "paper: " << e.what() << '\n';
    return 1;
  }
}
