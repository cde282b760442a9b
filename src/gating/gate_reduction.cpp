#include "gating/gate_reduction.h"

#include <cassert>

#include "obs/metrics.h"
#include "obs/timer.h"
#include "prof/recorder.h"

namespace gcr::gating {

GateReductionParams GateReductionParams::from_strength(double s) {
  GateReductionParams p;
  if (s <= 0.0) {
    // Keep every gate: no rule can fire.
    p.theta_activity = 1.5;
    p.theta_swcap = 0.0;
    p.theta_parent = -1.0;
    p.force_cap_multiple = 20.0;
    return p;
  }
  p.theta_activity = 1.02 - 0.9 * s * s;  // s=1 spares only near-idle nodes
  p.theta_swcap = 0.08 * s * s * s;       // [pF]
  p.theta_parent = 0.35 * s * s;          // activity-difference tolerance
  p.force_cap_multiple = 20.0 + 600.0 * s * s;  // relax the delay guard
  return p;
}

namespace {

/// Shared single ascending pass. `in_cone`/`prev_gated` are null for the
/// full reduction; when set, out-of-cone nodes copy prev_gated and skip
/// the rules (the acc[] state is still maintained for them, so in-cone
/// parents see the same accumulated-capacitance inputs a full pass would).
std::vector<bool> reduce_pass(const ct::RoutedTree& fully_gated,
                              const std::vector<double>& p_en,
                              const tech::TechParams& tech,
                              const GateReductionParams& params,
                              const std::vector<bool>* in_cone,
                              const std::vector<bool>* prev_gated) {
  const obs::ScopedTimer obs_timer("reduce");
  std::uint64_t removed = 0, forced = 0;

  const int n = fully_gated.num_nodes();
  assert(static_cast<int>(p_en.size()) == n);
  std::vector<bool> gated(static_cast<std::size_t>(n), false);
  // Ungated capacitance the parent edge sees through each node's branch.
  std::vector<double> acc(static_cast<std::size_t>(n), 0.0);

  for (int id = 0; id < n; ++id) {  // ascending = children before parents
    const ct::RoutedNode& node = fully_gated.node(id);
    if (node.parent < 0) {
      acc[static_cast<std::size_t>(id)] = node.down_cap;
      continue;  // no edge above the root, hence no gate
    }
    const double p = p_en[static_cast<std::size_t>(id)];
    const double p_parent = p_en[static_cast<std::size_t>(node.parent)];
    const double edge_swcap =
        (tech.wire_cap(node.edge_len) + node.down_cap) * p;

    const bool scoped_out =
        in_cone != nullptr && !(*in_cone)[static_cast<std::size_t>(id)];
    const bool rule1 = p >= params.theta_activity;
    const bool rule2 = edge_swcap < params.theta_swcap;
    const bool rule3 = (p_parent - p) < params.theta_parent;
    bool remove = scoped_out ? !(*prev_gated)[static_cast<std::size_t>(id)]
                             : (rule1 || rule2 || rule3);

    double below = 0.0;
    if (node.is_leaf()) {
      below = node.down_cap;  // the sink load
    } else {
      for (const int ch : {node.left, node.right}) {
        below += gated[static_cast<std::size_t>(ch)]
                     ? tech.gate_input_cap
                     : acc[static_cast<std::size_t>(ch)];
      }
    }
    const double branch_cap = tech.wire_cap(node.edge_len) + below;

    // Forced insertion: never let an ungated subtree grow past the cap a
    // single gate is allowed to drive. Copied out-of-cone decisions embed
    // the previous run's forced insertions already, so the guard only
    // applies to freshly-decided nodes.
    const bool force =
        !scoped_out && remove &&
        branch_cap >= params.force_cap_multiple * tech.gate_input_cap;
    if (force) remove = false;

    gated[static_cast<std::size_t>(id)] = !remove;
    acc[static_cast<std::size_t>(id)] =
        remove ? branch_cap : tech.gate_input_cap;

    removed += remove ? 1 : 0;
    forced += force ? 1 : 0;
    if (!scoped_out && prof::capturing()) {
      prof::Event e = prof::event(prof::Ev::Reduce);
      e.a = id;
      e.x = p;
      e.y = edge_swcap;
      e.flags = (rule1 ? prof::kRuleActivity : 0) |
                (rule2 ? prof::kRuleSwcap : 0) |
                (rule3 ? prof::kRuleParent : 0) |
                (force ? prof::kForcedInsertion : 0) |
                (remove ? prof::kRemoved : 0);
      prof::record(e);
    }
  }

  if (obs::metrics_enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("reduction.gates_removed").inc(removed);
    reg.counter("reduction.gates_kept")
        .inc(static_cast<std::uint64_t>(n) - 1 - removed);
    reg.counter("reduction.forced_insertions").inc(forced);
    reg.counter("reduction.passes").inc();
  }
  return gated;
}

}  // namespace

std::vector<bool> reduce_gates(const ct::RoutedTree& fully_gated,
                               const std::vector<double>& p_en,
                               const tech::TechParams& tech,
                               const GateReductionParams& params) {
  return reduce_pass(fully_gated, p_en, tech, params, nullptr, nullptr);
}

std::vector<bool> reduce_gates_cone(const ct::RoutedTree& fully_gated,
                                    const std::vector<double>& p_en,
                                    const tech::TechParams& tech,
                                    const GateReductionParams& params,
                                    const std::vector<bool>& in_cone,
                                    const std::vector<bool>& prev_gated) {
  assert(static_cast<int>(in_cone.size()) == fully_gated.num_nodes());
  assert(static_cast<int>(prev_gated.size()) == fully_gated.num_nodes());
  return reduce_pass(fully_gated, p_en, tech, params, &in_cone, &prev_gated);
}

}  // namespace gcr::gating
