#include "core/router.h"

#include <cassert>
#include <limits>

#include "clocktree/embed.h"
#include "clocktree/zskew.h"
#include "cts/clustered.h"
#include "cts/mmm.h"
#include "guard/validate.h"
#include "log/logger.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace gcr::core {

GatedClockRouter::GatedClockRouter(Design design)
    : design_(std::move(design)),
      leaf_module_(design_.resolved_sink_modules()),
      analyzer_(design_.rtl, design_.stream) {
  assert(static_cast<int>(leaf_module_.size()) == design_.num_sinks());
}

RouterResult GatedClockRouter::route(const RouterOptions& opts,
                                     const SelfCheckHook& self_check) const {
  RouteOutcome out = route_guarded(opts, guard::Deadline(), self_check);
  if (!out.result)
    throw guard::GuardError(out.diag.first_error());
  return std::move(*out.result);
}

RouteOutcome GatedClockRouter::route_guarded(const RouterOptions& opts,
                                             const guard::Deadline& deadline,
                                             const SelfCheckHook& self_check)
    const {
  RouteOutcome out;
  guard::ValidateOptions vopts;
  vopts.strict = false;  // the router tolerates what it can route
  if (!guard::validate_design(design_, analyzer_.stream_ids(), out.diag,
                              vopts))
    return out;

  GCR_LOG_INFO("route.start")
      .kv("sinks", design_.num_sinks())
      .kv("style", option_name(opts.style))
      .kv("topology", option_name(opts.topology))
      .kv("clustered", opts.clustered)
      .kv("threads", opts.num_threads);
  const std::uint64_t detached_before = ct::detached_merge_count();
  const guard::DeadlineScope scope(deadline);
  try {
    out.result = route_impl(opts, self_check, &out.phases_completed);
  } catch (const guard::CancelledError& e) {
    out.cancelled = true;
    out.aborted_phase = e.phase();
    out.diag.report(e.status());
    GCR_LOG_WARN("route.cancelled").kv("phase", e.phase());
  } catch (const guard::GuardError& e) {
    out.diag.report(e.status());
  }
  const std::uint64_t detached = ct::detached_merge_count() - detached_before;
  if (detached > 0)
    out.diag.warning(guard::Code::DetachedMerge,
                     std::to_string(detached) +
                         " zero-skew merges fell back to the detached "
                         "nearest-region merge");
  if (out.result) {
    GCR_LOG_INFO("route.done")
        .kv("sinks", out.result->tree.num_leaves)
        .kv("gates", out.result->tree.num_gates())
        .kv("total_swcap", out.result->swcap.total_swcap())
        .kv("skew", out.result->delays.skew());
  } else {
    GCR_LOG_ERROR("route.failed")
        .kv("cancelled", out.cancelled)
        .msg(out.diag.first_error().message);
  }
  return out;
}

RouterResult GatedClockRouter::route_impl(const RouterOptions& opts,
                                          const SelfCheckHook& self_check,
                                          std::vector<std::string>* phases)
    const {
  const obs::ScopedTimer obs_route_timer("route");
  const auto phase_done = [&](const char* name) {
    if (phases != nullptr) phases->emplace_back(name);
  };
  const bool buffered = opts.style == TreeStyle::Buffered;
  const tech::TechParams build_tech =
      buffered ? opts.tech.as_buffered() : opts.tech;
  const geom::Point cp = design_.die.center();

  // 1. Topology: nearest-neighbor for the baseline; the selected scheme
  //    (Eq. 3 by default) for the gated styles.
  guard::poll_deadline("topology");
  cts::BuildResult built = [&] {
    const obs::ScopedTimer obs_timer("topology");
    if (!buffered && opts.topology == TopologyScheme::Mmm) {
      cts::BuildResult r{cts::build_mmm_topology(design_.sinks), {}, {}, {}};
      cts::TopologyActivity act_topo =
          cts::annotate_topology(r.topo, analyzer_, leaf_module_);
      r.mask = std::move(act_topo.mask);
      r.p_en = std::move(act_topo.p_en);
      r.p_tr = std::move(act_topo.p_tr);
      return r;
    }
    cts::BuildOptions bopts;
    if (buffered) {
      bopts.cost = cts::MergeCost::NearestNeighbor;
    } else {
      switch (opts.topology) {
        case TopologyScheme::MinSwitchedCap:
          bopts.cost = cts::MergeCost::SwitchedCapacitance;
          break;
        case TopologyScheme::NearestNeighbor:
          bopts.cost = cts::MergeCost::NearestNeighbor;
          break;
        case TopologyScheme::ActivityOnly:
          bopts.cost = cts::MergeCost::ActivityOnly;
          break;
        case TopologyScheme::Mmm: break;  // handled above
      }
    }
    bopts.gated_edges = true;  // buffers balance like gates (buffered_view)
    bopts.control_point = cp;
    bopts.num_threads = opts.num_threads;
    bopts.partner_index = opts.partner_index;
    bopts.tech = build_tech;
    if (!buffered && opts.clustered) {
      cts::ClusterOptions copts;
      copts.build = bopts;
      return cts::build_topology_clustered(design_.sinks, &analyzer_,
                                           leaf_module_, copts);
    }
    return cts::build_topology(design_.sinks, &analyzer_, leaf_module_,
                               bopts);
  }();
  phase_done("topology");

  // Node activity depends only on the topology, not the embedding.
  gating::NodeActivity act{built.mask, built.p_en, built.p_tr};
  const gating::ControllerPlacement ctrl = [&] {
    const obs::ScopedTimer obs_timer("controller");
    return gating::ControllerPlacement(design_.die, opts.controller_partitions);
  }();
  const gating::CellStyle cell_style =
      buffered ? gating::CellStyle::Buffer : gating::CellStyle::MaskingGate;

  // 2. Gate assignment and embedding.
  const int n = built.topo.num_nodes();
  std::vector<bool> gated(static_cast<std::size_t>(n), true);
  gated[static_cast<std::size_t>(built.topo.root())] = false;

  ct::EmbedOptions eopts;
  eopts.root_hint = cp;
  eopts.sizing = opts.gate_sizing;
  ct::BoundedEmbedOptions bopts_embed;
  bopts_embed.root_hint = cp;
  bopts_embed.skew_bound = opts.skew_bound;
  const auto do_embed = [&](const std::vector<bool>& gate_set) {
    guard::poll_deadline("embed");
    const obs::ScopedTimer obs_timer("embed");
    if (obs::metrics_enabled()) {
      obs::Registry::global().counter("embed.passes").inc();
    }
    return opts.skew_bound > 0.0
               ? ct::embed_bounded(built.topo, design_.sinks, gate_set,
                                   build_tech, bopts_embed)
               : ct::embed(built.topo, design_.sinks, gate_set, build_tech,
                           eopts);
  };

  int gates_before = 0;
  ct::RoutedTree tree;
  gating::SwCapReport swcap;
  if (opts.style == TreeStyle::GatedReduced) {
    // The reduction rules consult the fully gated embedding for edge
    // lengths / caps, then the tree is re-embedded with the reduced set so
    // the skew constraint holds for the final gate assignment.
    const ct::RoutedTree full = do_embed(gated);
    gates_before = full.num_gates();
    if (opts.auto_tune_reduction) {
      double best = std::numeric_limits<double>::infinity();
      for (int step = 0; step <= 10; ++step) {
        guard::poll_deadline("reduction");
        const auto params =
            gating::GateReductionParams::from_strength(0.1 * step);
        auto cand_gates =
            gating::reduce_gates(full, built.p_en, build_tech, params);
        auto cand_tree = do_embed(cand_gates);
        auto cand_swcap =
            gating::evaluate_swcap(cand_tree, act, ctrl, build_tech, cell_style);
        if (cand_swcap.total_swcap() < best) {
          best = cand_swcap.total_swcap();
          tree = std::move(cand_tree);
          swcap = cand_swcap;
        }
      }
    } else {
      gated = gating::reduce_gates(full, built.p_en, build_tech, opts.reduction);
      tree = do_embed(gated);
      swcap = gating::evaluate_swcap(tree, act, ctrl, build_tech, cell_style);
    }
  } else {
    tree = do_embed(gated);
    gates_before = tree.num_gates();
    swcap = gating::evaluate_swcap(tree, act, ctrl, build_tech, cell_style);
  }
  phase_done(opts.style == TreeStyle::GatedReduced ? "reduction" : "embed");

  // 3. Package the result.
  guard::poll_deadline("delays");
  RouterResult res;
  res.gates_before_reduction = buffered ? 0 : gates_before;
  res.activity = std::move(act);
  res.swcap = swcap;
  {
    const obs::ScopedTimer obs_timer("delays");
    res.delays = ct::elmore_delays(tree, build_tech);
  }
  phase_done("delays");
  res.tree = std::move(tree);
  if (obs::metrics_enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("router.runs").inc();
    reg.gauge("router.total_swcap").set(res.swcap.total_swcap());
    reg.gauge("router.num_gates").set(res.tree.num_gates());
  }
  if (self_check) self_check(res, opts);
  return res;
}

}  // namespace gcr::core
