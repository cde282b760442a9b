#include "verify/invariants.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "activity/analyzer.h"
#include "geom/point.h"
#include "obs/metrics.h"

namespace gcr::verify {

namespace {

/// |a - b| within `rel * max(1, |b|)` -- the comparisons here are against
/// re-derived references, so `b` is the expected value.
bool near(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(1.0, std::abs(b));
}

void add(Report& rep, Invariant inv, int node, double measured,
         double expected, std::string message) {
  rep.violations.push_back(
      {inv, node, measured, expected, std::move(message)});
  if (obs::metrics_enabled()) {
    obs::Registry::global().counter("verify.violations").inc();
  }
}

/// Quantities re-derived from the routed tree + tech alone, sharing no code
/// with embed()/elmore_delays(). Valid only for structurally sound trees.
struct Rederived {
  std::vector<double> down;        ///< downstream cap at each node [pF]
  std::vector<double> subtree;     ///< zero-skew subtree delay via left child
  std::vector<double> sink_delay;  ///< per leaf, source-to-sink
  double max_delay{0.0};
  double min_delay{0.0};
};

/// Delay of the stage feeding node `id` (gate at the top of its parent
/// edge, then the wire), given the downstream cap `down` at `id`.
double stage_delay(const ct::RoutedNode& n, double down,
                   const tech::TechParams& t) {
  const double wl = n.edge_len;
  const double wcap = t.wire_cap(wl);
  double d = t.wire_res(wl) * (0.5 * wcap + down);
  if (n.gated) {
    d += t.gate_delay + (t.gate_output_res / n.gate_size) * (wcap + down);
  }
  return d;
}

Rederived rederive(const ct::RoutedTree& tree, const tech::TechParams& t) {
  const int n = tree.num_nodes();
  Rederived r;
  r.down.assign(static_cast<std::size_t>(n), 0.0);
  r.subtree.assign(static_cast<std::size_t>(n), 0.0);

  // Ascending ids are bottom-up (checked by check_structure).
  for (int id = 0; id < n; ++id) {
    const ct::RoutedNode& node = tree.node(id);
    if (node.is_leaf()) {
      r.down[static_cast<std::size_t>(id)] = node.down_cap;  // the sink load
      continue;
    }
    double cap = 0.0;
    const ct::RoutedNode& left = tree.node(node.left);
    cap += left.gated ? left.gate_size * t.gate_input_cap
                      : t.wire_cap(left.edge_len) +
                            r.down[static_cast<std::size_t>(node.left)];
    const ct::RoutedNode& right = tree.node(node.right);
    cap += right.gated ? right.gate_size * t.gate_input_cap
                       : t.wire_cap(right.edge_len) +
                             r.down[static_cast<std::size_t>(node.right)];
    r.down[static_cast<std::size_t>(id)] = cap;
    r.subtree[static_cast<std::size_t>(id)] =
        stage_delay(left, r.down[static_cast<std::size_t>(node.left)], t) +
        r.subtree[static_cast<std::size_t>(node.left)];
  }

  // Source-to-sink delays, parents before children (descending ids).
  std::vector<double> from_root(static_cast<std::size_t>(n), 0.0);
  r.sink_delay.assign(static_cast<std::size_t>(tree.num_leaves), 0.0);
  r.max_delay = -std::numeric_limits<double>::infinity();
  r.min_delay = std::numeric_limits<double>::infinity();
  for (int id = n - 1; id >= 0; --id) {
    const ct::RoutedNode& node = tree.node(id);
    double d = 0.0;
    if (node.parent >= 0) {
      d = from_root[static_cast<std::size_t>(node.parent)] +
          stage_delay(node, r.down[static_cast<std::size_t>(id)], t);
    }
    from_root[static_cast<std::size_t>(id)] = d;
    if (node.is_leaf()) {
      r.sink_delay[static_cast<std::size_t>(id)] = d;
      r.max_delay = std::max(r.max_delay, d);
      r.min_delay = std::min(r.min_delay, d);
    }
  }
  if (tree.num_leaves == 0) r.max_delay = r.min_delay = 0.0;
  return r;
}

/// Enable domain probability of the edge feeding node `id`: its own gate's
/// P(EN) when present, else the nearest gated ancestor's, else 1. Explicit
/// ancestor walk -- deliberately not the evaluator's propagation array.
double domain_prob(const ct::RoutedTree& tree, const gating::NodeActivity& act,
                   int id) {
  int cur = id;
  while (cur >= 0) {
    const ct::RoutedNode& node = tree.node(cur);
    if (node.parent < 0) return 1.0;
    if (node.gated) return act.p_en[static_cast<std::size_t>(cur)];
    cur = node.parent;
  }
  return 1.0;
}

/// Nearest controller by brute-force scan over every controller location.
double nearest_controller_dist(const gating::ControllerPlacement& ctrl,
                               const geom::Point& p) {
  double best = std::numeric_limits<double>::infinity();
  for (const geom::Point& c : ctrl.controller_locations()) {
    best = std::min(best, geom::manhattan_dist(p, c));
  }
  return best;
}

}  // namespace

std::string_view invariant_name(Invariant inv) {
  switch (inv) {
    case Invariant::Structure: return "Structure";
    case Invariant::Geometry: return "Geometry";
    case Invariant::CapConsistency: return "CapConsistency";
    case Invariant::DelayConsistency: return "DelayConsistency";
    case Invariant::MergeBalance: return "MergeBalance";
    case Invariant::Skew: return "Skew";
    case Invariant::ActivityMask: return "ActivityMask";
    case Invariant::ActivityMonotone: return "ActivityMonotone";
    case Invariant::SwCapRecompute: return "SwCapRecompute";
    case Invariant::ControllerCover: return "ControllerCover";
    case Invariant::GateReduction: return "GateReduction";
    case Invariant::DelayReport: return "DelayReport";
  }
  return "?";
}

std::string Report::summary() const {
  std::ostringstream os;
  if (ok()) {
    os << "verify: ok (" << checks_run << " invariant families)";
    return os.str();
  }
  os << "verify: " << violations.size() << " violation(s) in " << checks_run
     << " families\n";
  for (const Violation& v : violations) {
    os << "  [" << invariant_name(v.invariant) << "]";
    if (v.node >= 0) os << " node " << v.node;
    os << ": " << v.message << " (measured " << v.measured << ", expected "
       << v.expected << ")\n";
  }
  return os.str();
}

void check_structure(const ct::RoutedTree& tree, Report& rep) {
  ++rep.checks_run;
  const int n = tree.num_nodes();
  if (tree.num_leaves < 1 || n != 2 * tree.num_leaves - 1) {
    add(rep, Invariant::Structure, -1, n, 2 * tree.num_leaves - 1,
        "node count is not 2N-1 for N sinks");
    return;
  }
  if (tree.root < 0 || tree.root >= n ||
      tree.node(tree.root).parent >= 0) {
    add(rep, Invariant::Structure, tree.root, tree.root, n - 1,
        "root id out of range or root has a parent");
    return;
  }
  if (tree.node(tree.root).gated) {
    add(rep, Invariant::Structure, tree.root, 1.0, 0.0,
        "root carries a gate but has no parent edge");
  }

  std::vector<int> seen(static_cast<std::size_t>(n), 0);
  bool wired_ok = true;
  for (int id = 0; id < n; ++id) {
    const ct::RoutedNode& node = tree.node(id);
    const bool should_be_leaf = id < tree.num_leaves;
    if (should_be_leaf != node.is_leaf() ||
        (node.is_leaf() != (node.right < 0))) {
      add(rep, Invariant::Structure, id, node.left, should_be_leaf ? -1 : 0,
          "leaf/internal role does not match the id convention");
      wired_ok = false;
      continue;
    }
    if (!node.is_leaf()) {
      for (const int ch : {node.left, node.right}) {
        if (ch < 0 || ch >= n || ch >= id ||
            tree.node(ch).parent != id) {
          add(rep, Invariant::Structure, id, ch, id,
              "child link broken (range, merge order, or parent backlink)");
          wired_ok = false;
        }
      }
      if (node.left == node.right) {
        add(rep, Invariant::Structure, id, node.left, node.right,
            "both children are the same node");
        wired_ok = false;
      }
    }
    if (id != tree.root && (node.parent <= id || node.parent >= n)) {
      add(rep, Invariant::Structure, id, node.parent, id,
          "parent id must exceed the child's (merge order) and be in range");
      wired_ok = false;
    }
  }
  if (!wired_ok) return;

  // Reachability: every node exactly once from the root.
  std::vector<int> stack{tree.root};
  int visited = 0;
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (seen[static_cast<std::size_t>(id)]++) {
      add(rep, Invariant::Structure, id, seen[static_cast<std::size_t>(id)],
          1, "node reachable from the root more than once");
      return;
    }
    ++visited;
    const ct::RoutedNode& node = tree.node(id);
    if (!node.is_leaf()) {
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
  if (visited != n) {
    add(rep, Invariant::Structure, -1, visited, n,
        "nodes unreachable from the root");
  }
}

void check_geometry(const ct::RoutedTree& tree, Report& rep,
                    const Tolerances& tol) {
  ++rep.checks_run;
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const ct::RoutedNode& node = tree.node(id);
    if (node.gate_size <= 0.0) {
      add(rep, Invariant::Geometry, id, node.gate_size, 1.0,
          "gate size must be positive");
    }
    if (node.parent < 0) {
      if (std::abs(node.edge_len) > tol.abs_geom) {
        add(rep, Invariant::Geometry, id, node.edge_len, 0.0,
            "root edge must have zero length");
      }
      continue;
    }
    const double dist =
        geom::manhattan_dist(node.loc, tree.node(node.parent).loc);
    if (node.edge_len + tol.abs_geom < dist) {
      add(rep, Invariant::Geometry, id, node.edge_len, dist,
          "edge shorter than the Manhattan distance it spans");
    }
  }
}

void check_electrical(const ct::RoutedTree& tree, const tech::TechParams& tech,
                      double skew_bound, Report& rep, const Tolerances& tol) {
  ++rep.checks_run;
  const Rederived r = rederive(tree, tech);
  const bool zero_skew = skew_bound <= 0.0;

  for (int id = 0; id < tree.num_nodes(); ++id) {
    const ct::RoutedNode& node = tree.node(id);
    const double expect = r.down[static_cast<std::size_t>(id)];
    if (!node.is_leaf() &&
        std::abs(node.down_cap - expect) >
            tol.abs_cap + tol.rel_swcap * std::abs(expect)) {
      add(rep, Invariant::CapConsistency, id, node.down_cap, expect,
          "stored downstream cap disagrees with the re-derivation");
    }
    if (node.is_leaf()) {
      // A leaf's subtree delay (dmax in bounded mode) is definitionally 0.
      if (!near(node.delay, 0.0, tol.rel_delay)) {
        add(rep, Invariant::DelayConsistency, id, node.delay, 0.0,
            "leaf carries a nonzero stored subtree delay");
      }
    }
    if (zero_skew && !node.is_leaf()) {
      const ct::RoutedNode& left = tree.node(node.left);
      const ct::RoutedNode& right = tree.node(node.right);
      const double via_left =
          stage_delay(left, r.down[static_cast<std::size_t>(node.left)],
                      tech) +
          r.subtree[static_cast<std::size_t>(node.left)];
      const double via_right =
          stage_delay(right, r.down[static_cast<std::size_t>(node.right)],
                      tech) +
          r.subtree[static_cast<std::size_t>(node.right)];
      if (!near(via_left, via_right, tol.rel_delay)) {
        add(rep, Invariant::MergeBalance, id, via_left, via_right,
            "sibling branch delays differ at a zero-skew merge");
      }
      if (!near(node.delay, via_left, tol.rel_delay)) {
        add(rep, Invariant::DelayConsistency, id, node.delay, via_left,
            "stored subtree delay disagrees with the re-derivation");
      }
    }
  }

  const double skew = r.max_delay - r.min_delay;
  const double slack = tol.rel_delay * std::max(1.0, r.max_delay);
  if (zero_skew) {
    if (skew > slack) {
      add(rep, Invariant::Skew, -1, skew, 0.0,
          "re-derived sink skew is not zero");
    }
  } else if (skew > skew_bound + slack) {
    add(rep, Invariant::Skew, -1, skew, skew_bound,
        "re-derived sink skew exceeds the bound");
  }
}

void check_activity(const ct::RoutedTree& tree, const gating::NodeActivity& act,
                    const activity::ActivityAnalyzer& analyzer,
                    const std::vector<int>& leaf_module, Report& rep) {
  ++rep.checks_run;
  const int n = tree.num_nodes();
  if (static_cast<int>(act.mask.size()) != n ||
      static_cast<int>(act.p_en.size()) != n ||
      static_cast<int>(act.p_tr.size()) != n ||
      static_cast<int>(leaf_module.size()) != tree.num_leaves) {
    add(rep, Invariant::ActivityMask, -1, act.p_en.size(), n,
        "activity arrays do not cover every node");
    return;
  }
  for (int id = 0; id < n; ++id) {
    const ct::RoutedNode& node = tree.node(id);
    const activity::ActivationMask expect =
        node.is_leaf()
            ? analyzer.module_mask(leaf_module[static_cast<std::size_t>(id)])
            : act.mask[static_cast<std::size_t>(node.left)] |
                  act.mask[static_cast<std::size_t>(node.right)];
    if (act.mask[static_cast<std::size_t>(id)] != expect) {
      add(rep, Invariant::ActivityMask, id,
          act.mask[static_cast<std::size_t>(id)].count(), expect.count(),
          node.is_leaf() ? "leaf mask is not the module's activation mask"
                         : "internal mask is not the union of its children");
      continue;
    }
    // The cache holds the analyzer's own answers, so they agree exactly.
    const double p = analyzer.signal_prob(expect);
    if (act.p_en[static_cast<std::size_t>(id)] != p) {
      add(rep, Invariant::ActivityMask, id,
          act.p_en[static_cast<std::size_t>(id)], p,
          "cached P(EN) disagrees with a fresh analyzer query");
    }
    const double ptr = analyzer.transition_prob(expect);
    if (act.p_tr[static_cast<std::size_t>(id)] != ptr) {
      add(rep, Invariant::ActivityMask, id,
          act.p_tr[static_cast<std::size_t>(id)], ptr,
          "cached P_tr(EN) disagrees with a fresh analyzer query");
    }
  }
}

void check_activity_monotone(const ct::RoutedTree& tree,
                             const gating::NodeActivity& act, Report& rep) {
  ++rep.checks_run;
  const int n = tree.num_nodes();
  if (static_cast<int>(act.p_en.size()) != n) {
    add(rep, Invariant::ActivityMonotone, -1, act.p_en.size(), n,
        "P(EN) array does not cover every node");
    return;
  }
  for (int id = 0; id < n; ++id) {
    const double p = act.p_en[static_cast<std::size_t>(id)];
    if (p < 0.0 || p > 1.0) {
      add(rep, Invariant::ActivityMonotone, id, p, 0.0,
          "P(EN) outside [0, 1]");
    }
    const int parent = tree.node(id).parent;
    if (parent >= 0 && p > act.p_en[static_cast<std::size_t>(parent)]) {
      add(rep, Invariant::ActivityMonotone, id, p,
          act.p_en[static_cast<std::size_t>(parent)],
          "child P(EN) exceeds its parent's (enables only widen upward)");
    }
  }
}

void check_swcap(const ct::RoutedTree& tree, const gating::NodeActivity& act,
                 const gating::ControllerPlacement& ctrl,
                 const tech::TechParams& tech, gating::CellStyle style,
                 const gating::SwCapReport& reported, Report& rep,
                 const Tolerances& tol) {
  ++rep.checks_run;
  const bool masking = style == gating::CellStyle::MaskingGate;
  // Mirror the evaluator's cell-capacitance convention: the clock-pin load
  // of an inserted cell is the gate's for masking style, the buffer's for
  // the buffered baseline (whose tech is already the buffered view).
  const double cell_in_cap =
      masking ? tech.gate_input_cap : tech.buffer_input_cap();

  double clock_swcap = 0.0, ctrl_swcap = 0.0, ungated = 0.0;
  double clock_wl = 0.0, star_wl = 0.0, cell_area = 0.0;
  int num_cells = 0;
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const ct::RoutedNode& node = tree.node(id);
    double pin_cap = 0.0;
    if (node.is_leaf()) {
      pin_cap = node.down_cap;
    } else {
      for (const int ch : {node.left, node.right}) {
        const ct::RoutedNode& c = tree.node(ch);
        if (c.gated) pin_cap += c.gate_size * cell_in_cap;
      }
    }
    if (node.parent >= 0) {
      const double edge_cap = tech.wire_cap(node.edge_len) + pin_cap;
      clock_swcap +=
          edge_cap * (masking ? domain_prob(tree, act, id) : 1.0);
      ungated += edge_cap;
      clock_wl += node.edge_len;
    } else {
      clock_swcap += pin_cap;
      ungated += pin_cap;
    }
    if (node.gated && node.parent >= 0) {
      ++num_cells;
      cell_area +=
          node.gate_size * (masking ? tech.gate_area : tech.buffer_area());
      if (masking) {
        const double star =
            nearest_controller_dist(ctrl, tree.gate_location(id));
        star_wl += star;
        ctrl_swcap += (tech.wire_cap(star) +
                       node.gate_size * tech.gate_enable_cap) *
                      act.p_tr[static_cast<std::size_t>(id)];
      }
    }
  }

  const auto compare = [&](double got, double expect, const char* what) {
    if (!near(got, expect, tol.rel_swcap)) {
      add(rep, Invariant::SwCapRecompute, -1, got, expect,
          std::string("reported ") + what +
              " disagrees with the first-principles recomputation");
    }
  };
  compare(reported.clock_swcap, clock_swcap, "W(T) clock swcap");
  compare(reported.ctrl_swcap, ctrl_swcap, "W(S) controller swcap");
  compare(reported.ungated_swcap, ungated, "ungated swcap");
  compare(reported.clock_wirelength, clock_wl, "clock wirelength");
  compare(reported.star_wirelength, star_wl, "star wirelength");
  compare(reported.cell_area, cell_area, "cell area");
  compare(reported.wire_area, tech.wire_area(clock_wl + star_wl),
          "wire area");
  if (reported.num_cells != num_cells) {
    add(rep, Invariant::SwCapRecompute, -1, reported.num_cells, num_cells,
        "reported cell count disagrees with the gates in the tree");
  }
}

void check_controller_cover(const ct::RoutedTree& tree,
                            const gating::ControllerPlacement& ctrl,
                            const gating::SwCapReport& reported, Report& rep,
                            const Tolerances& tol) {
  ++rep.checks_run;
  int gates = 0;
  double star_wl = 0.0;
  for (const int id : tree.gated_nodes()) {
    if (tree.node(id).parent < 0) continue;  // root flag is inert
    ++gates;
    const geom::Point loc = tree.gate_location(id);
    const double assigned = ctrl.star_length(loc);
    const double best = nearest_controller_dist(ctrl, loc);
    if (assigned > best + tol.abs_geom) {
      add(rep, Invariant::ControllerCover, id, assigned, best,
          "gate is not served by its nearest controller");
    }
    star_wl += assigned;
  }
  if (reported.num_cells != gates) {
    add(rep, Invariant::ControllerCover, -1, reported.num_cells, gates,
        "surviving gates dropped from (or invented in) the controller star");
  }
  if (!near(reported.star_wirelength, star_wl, tol.rel_swcap)) {
    add(rep, Invariant::ControllerCover, -1, reported.star_wirelength,
        star_wl, "reported star wirelength does not cover every gate");
  }
}

void check_gate_reduction(double full_total_swcap, double reduced_total_swcap,
                          Report& rep, const Tolerances& tol) {
  ++rep.checks_run;
  if (reduced_total_swcap >
      full_total_swcap * (1.0 + tol.rel_swcap) + tol.abs_cap) {
    add(rep, Invariant::GateReduction, -1, reduced_total_swcap,
        full_total_swcap,
        "gate reduction increased the total switched capacitance");
  }
}

void check_delay_report(const ct::RoutedTree& tree,
                        const tech::TechParams& tech,
                        const ct::DelayReport& reported, Report& rep,
                        const Tolerances& tol) {
  ++rep.checks_run;
  const Rederived r = rederive(tree, tech);
  if (static_cast<int>(reported.sink_delay.size()) != tree.num_leaves) {
    add(rep, Invariant::DelayReport, -1, reported.sink_delay.size(),
        tree.num_leaves, "delay report does not cover every sink");
    return;
  }
  for (int i = 0; i < tree.num_leaves; ++i) {
    if (!near(reported.sink_delay[static_cast<std::size_t>(i)],
              r.sink_delay[static_cast<std::size_t>(i)], tol.rel_delay)) {
      add(rep, Invariant::DelayReport, i,
          reported.sink_delay[static_cast<std::size_t>(i)],
          r.sink_delay[static_cast<std::size_t>(i)],
          "reported sink delay disagrees with the re-derivation");
    }
  }
  if (!near(reported.max_delay, r.max_delay, tol.rel_delay) ||
      !near(reported.min_delay, r.min_delay, tol.rel_delay)) {
    add(rep, Invariant::DelayReport, -1, reported.max_delay, r.max_delay,
        "reported delay extrema disagree with the re-derivation");
  }
}

Report verify_tree(const ct::RoutedTree& tree, const tech::TechParams& tech,
                   double skew_bound, const Tolerances& tol) {
  Report rep;
  check_structure(tree, rep);
  if (!rep.ok()) return rep;  // downstream checks assume sound wiring
  check_geometry(tree, rep, tol);
  check_electrical(tree, tech, skew_bound, rep, tol);
  return rep;
}

Report verify_result(const core::GatedClockRouter& router,
                     const core::RouterOptions& opts,
                     const core::RouterResult& result,
                     const Tolerances& tol) {
  const bool buffered = opts.style == core::TreeStyle::Buffered;
  const tech::TechParams tech =
      buffered ? opts.tech.as_buffered() : opts.tech;

  Report rep = verify_tree(result.tree, tech, opts.skew_bound, tol);
  if (!rep.violations.empty() &&
      rep.violations.front().invariant == Invariant::Structure) {
    return rep;
  }

  check_activity(result.tree, result.activity, router.analyzer(),
                 router.design().resolved_sink_modules(), rep);
  check_activity_monotone(result.tree, result.activity, rep);

  const gating::ControllerPlacement ctrl(router.design().die,
                                         opts.controller_partitions);
  const gating::CellStyle style = buffered ? gating::CellStyle::Buffer
                                           : gating::CellStyle::MaskingGate;
  check_swcap(result.tree, result.activity, ctrl, tech, style, result.swcap,
              rep, tol);
  if (!buffered) {
    check_controller_cover(result.tree, ctrl, result.swcap, rep, tol);
  }
  check_delay_report(result.tree, tech, result.delays, rep, tol);
  if (obs::metrics_enabled()) {
    obs::Registry::global().counter("verify.results_checked").inc();
  }
  return rep;
}

std::function<void(const core::RouterResult&, const core::RouterOptions&)>
make_self_check(const core::GatedClockRouter& router, const Tolerances& tol) {
  return [&router, tol](const core::RouterResult& result,
                        const core::RouterOptions& opts) {
    Report rep = verify_result(router, opts, result, tol);
    if (!rep.ok()) throw VerificationError(std::move(rep));
  };
}

}  // namespace gcr::verify
