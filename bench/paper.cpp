/// \file paper.cpp
/// The paper gate: regenerates Tables 1-4 and Figs. 3-6 (sections 3, 5 and
/// 6), checks every claim against its band (paper_claims.h), pins the
/// r1-r5 trees, and prints each table as the markdown block that
/// EXPERIMENTS.md carries between `<!-- paper:NAME -->` markers.
///
///   paper [EXPERIMENTS.md]
///
/// Each design is built once and every route runs under the verify
/// invariant checker. Exits 1 with one `FAIL` line per failed claim (the
/// claim, the measured value and the band), or per generated block that
/// the given EXPERIMENTS.md does not carry verbatim. ctest runs it with
/// the `paper` label.

#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>

#include "activity/analyzer.h"
#include "activity/brute_force.h"
#include "benchdata/paper_example.h"
#include "common.h"
#include "eval/table.h"
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

  std::vector<Table4Row> table4_rows;
  std::vector<Fig3Row> fig3_rows;
  std::vector<Fig4Row> fig4_rows;
  std::vector<Fig5Row> fig5_rows;
  std::vector<Fig6Row> fig6_rows;
  std::vector<TreeHashes> tree_rows;
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

/// Route every r-benchmark once; each figure reads the routes it needs.
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
      }
    }
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
    }
  }
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
        tree_hashes(p.tree_rows)})
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
          {"fig5", &p.fig5}, {"fig6", &p.fig6}, {"trees", &p.trees}})
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
