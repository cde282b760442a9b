#include "eco/incremental.h"

#include <cassert>
#include <optional>
#include <utility>

#include "clocktree/bounded.h"
#include "clocktree/elmore.h"
#include "clocktree/embed.h"
#include "clocktree/zskew.h"
#include "cts/greedy.h"
#include "gating/gate_reduction.h"
#include "gating/swcap.h"
#include "geom/tilted_rect.h"
#include "log/logger.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace gcr::eco {

namespace {

using core::RouterOptions;
using core::RouterResult;
using core::TopologyScheme;
using core::TreeStyle;

/// The phase-1..3 product: the new topology with preserved merges
/// replayed and the spine re-merged, plus per-node provenance/activity.
struct EcoPlan {
  ct::Topology topo{0};
  std::vector<int> old_of;    ///< new id -> prev tree id (-1 = re-merged)
  std::vector<bool> in_cone;  ///< structural cone (activity added later)
  std::vector<activity::ActivationMask> mask;
  std::vector<double> p_en;
  std::vector<double> p_tr;
  int dirty_leaves{0};
  int preserved_merges{0};
  int spine_seeds{0};
  int spine_merges{0};
};

EcoPlan plan_topology(const core::Design& base, const core::Design& next,
                      const RouterResult& prev, const DesignDelta& delta,
                      const activity::ActivityAnalyzer& an,
                      const RouterOptions& opts,
                      const tech::TechParams& build_tech) {
  const int n_old = base.num_sinks();
  const int n_new = next.num_sinks();
  const int old_nodes = prev.tree.num_nodes();
  const std::vector<int> leaf_module = next.resolved_sink_modules();

  // 1. Dirty = every touched leaf and its ancestor path in the previous
  //    tree. Clean is therefore downward-closed: a clean node's whole
  //    subtree is clean, and the clean set decomposes into maximal
  //    preserved subtrees.
  std::vector<char> dirty(static_cast<std::size_t>(old_nodes), 0);
  const auto mark = [&](int leaf) {
    for (int v = leaf; v >= 0 && !dirty[static_cast<std::size_t>(v)];
         v = prev.tree.node(v).parent)
      dirty[static_cast<std::size_t>(v)] = 1;
  };
  for (const SinkMove& mv : delta.moves) mark(mv.sink);
  for (const int r : delta.removes) mark(r);

  // 2. Replay the preserved merges into the new topology. Ascending old
  //    id is a valid bottom-up order, and it fixes a single deterministic
  //    replay order -- new internal ids (and hence the spine engine's
  //    tie-breaks) never depend on traversal choices.
  EcoPlan plan;
  plan.topo = ct::Topology(n_new);
  plan.old_of.assign(static_cast<std::size_t>(2 * n_new - 1), -1);
  std::vector<int> new_of(static_cast<std::size_t>(old_nodes), -1);
  const std::vector<int> leaf_map = sink_index_map(base, delta);
  for (int i = 0; i < n_old; ++i) {
    const int ni = leaf_map[static_cast<std::size_t>(i)];
    if (ni < 0) continue;
    new_of[static_cast<std::size_t>(i)] = ni;
    plan.old_of[static_cast<std::size_t>(ni)] = i;
  }
  for (int id = n_old; id < old_nodes; ++id) {
    if (dirty[static_cast<std::size_t>(id)]) continue;
    const ct::RoutedNode& nd = prev.tree.node(id);
    const int nid =
        plan.topo.merge(new_of[static_cast<std::size_t>(nd.left)],
                        new_of[static_cast<std::size_t>(nd.right)]);
    new_of[static_cast<std::size_t>(id)] = nid;
    plan.old_of[static_cast<std::size_t>(nid)] = id;
    ++plan.preserved_merges;
  }

  // 3. Construction taps + masks for everything created so far, bottom-up
  //    -- the same closed-form zero-skew merges (fully gated, as every
  //    construction is) the from-scratch topology phase prices with.
  const int pre_nodes = plan.topo.num_nodes();
  std::vector<ct::SubtreeTap> tap(static_cast<std::size_t>(pre_nodes));
  plan.mask.assign(static_cast<std::size_t>(2 * n_new - 1),
                   activity::ActivationMask());
  for (int id = 0; id < pre_nodes; ++id) {
    const ct::TreeNode& nd = plan.topo.node(id);
    auto& t = tap[static_cast<std::size_t>(id)];
    if (nd.is_leaf()) {
      const ct::Sink& s = next.sinks[static_cast<std::size_t>(id)];
      t.ms = geom::TiltedRect::from_point(s.loc);
      t.delay = 0.0;
      t.cap = s.cap;
      plan.mask[static_cast<std::size_t>(id)] =
          an.module_mask(leaf_module[static_cast<std::size_t>(id)]);
    } else {
      const ct::MergeResult m =
          ct::zero_skew_merge(tap[static_cast<std::size_t>(nd.left)], true,
                              tap[static_cast<std::size_t>(nd.right)], true,
                              build_tech);
      t.ms = m.ms;
      t.delay = m.delay;
      t.cap = m.cap;
      plan.mask[static_cast<std::size_t>(id)] =
          plan.mask[static_cast<std::size_t>(nd.left)] |
          plan.mask[static_cast<std::size_t>(nd.right)];
    }
  }

  // 4. The spine: every parentless node (preserved subtree roots, moved
  //    or kept-loose leaves, added leaves) re-enters the greedy engine as
  //    a TapSeed, under the same build options a from-scratch route of
  //    this scheme would use.
  std::vector<int> seed_ids;
  for (int id = 0; id < pre_nodes; ++id)
    if (plan.topo.node(id).parent < 0) seed_ids.push_back(id);
  plan.spine_seeds = static_cast<int>(seed_ids.size());
  plan.in_cone.assign(static_cast<std::size_t>(2 * n_new - 1), false);

  const int s = plan.spine_seeds;
  cts::BuildResult spine{ct::Topology(0), {}, {}, {}};
  std::vector<int> g;  // spine-local node id -> global new id
  if (s >= 2) {
    guard::poll_deadline("topology");
    const obs::ScopedTimer obs_timer("topology");
    const bool buffered = opts.style == TreeStyle::Buffered;
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
        case TopologyScheme::Mmm:
          // Top-down means-and-medians has no partial-front re-entry; the
          // spine re-merges under the Eq. 3 cost and the differential
          // contract's bounded-delta arm covers the scheme
          // (docs/incremental.md).
          bopts.cost = cts::MergeCost::SwitchedCapacitance;
          break;
      }
    }
    bopts.gated_edges = true;
    bopts.control_point = next.die.center();
    bopts.partner_index = opts.partner_index;
    bopts.tech = build_tech;
    std::vector<cts::TapSeed> seeds(static_cast<std::size_t>(s));
    for (int i = 0; i < s; ++i) {
      seeds[static_cast<std::size_t>(i)].tap =
          tap[static_cast<std::size_t>(seed_ids[static_cast<std::size_t>(i)])];
      seeds[static_cast<std::size_t>(i)].mask =
          plan.mask[static_cast<std::size_t>(
              seed_ids[static_cast<std::size_t>(i)])];
    }
    spine = cts::build_topology_taps(seeds, &an, bopts);
    g.assign(static_cast<std::size_t>(spine.topo.num_nodes()), -1);
    for (int i = 0; i < s; ++i)
      g[static_cast<std::size_t>(i)] = seed_ids[static_cast<std::size_t>(i)];
    for (int lid = s; lid < spine.topo.num_nodes(); ++lid) {
      const ct::TreeNode& nd = spine.topo.node(lid);
      const int nid = plan.topo.merge(g[static_cast<std::size_t>(nd.left)],
                                      g[static_cast<std::size_t>(nd.right)]);
      g[static_cast<std::size_t>(lid)] = nid;
      plan.mask[static_cast<std::size_t>(nid)] =
          spine.mask.empty()
              ? (plan.mask[static_cast<std::size_t>(
                     g[static_cast<std::size_t>(nd.left)])] |
                 plan.mask[static_cast<std::size_t>(
                     g[static_cast<std::size_t>(nd.right)])])
              : spine.mask[static_cast<std::size_t>(lid)];
      plan.in_cone[static_cast<std::size_t>(nid)] = true;
      ++plan.spine_merges;
    }
  }
  // Every seed's parent edge was just re-decided (a lone seed became the
  // root): the seeds are the cone's lower boundary and their gate
  // decisions must be re-taken.
  for (const int id : seed_ids)
    plan.in_cone[static_cast<std::size_t>(id)] = true;
  assert(plan.topo.num_nodes() == 2 * n_new - 1);
  assert(plan.topo.valid());

  // 5. Per-node probabilities. A structural-only delta copies preserved
  //    nodes from the previous result (their masks are unchanged) and
  //    takes spine values from the engine; a stream replacement
  //    recomputes every node against the new analyzer.
  const int total = plan.topo.num_nodes();
  plan.p_en.assign(static_cast<std::size_t>(total), 0.0);
  plan.p_tr.assign(static_cast<std::size_t>(total), 0.0);
  const bool activity_dirty = delta.stream.has_value();
  for (int id = 0; id < total; ++id) {
    const int old = plan.old_of[static_cast<std::size_t>(id)];
    if (!activity_dirty && old >= 0 && !prev.activity.p_en.empty()) {
      plan.p_en[static_cast<std::size_t>(id)] =
          prev.activity.p_en[static_cast<std::size_t>(old)];
      plan.p_tr[static_cast<std::size_t>(id)] =
          prev.activity.p_tr[static_cast<std::size_t>(old)];
    } else {
      plan.p_en[static_cast<std::size_t>(id)] =
          an.signal_prob(plan.mask[static_cast<std::size_t>(id)]);
      plan.p_tr[static_cast<std::size_t>(id)] =
          an.transition_prob(plan.mask[static_cast<std::size_t>(id)]);
    }
  }
  // Activity cone: a node whose own or parent probability moved gets its
  // gate decision re-taken (rules 1/2 read the node, rule 3 the parent).
  // A changed *descendant* bit can in principle shift an ancestor's
  // forced-insertion input while both probabilities held still; that
  // ancestor keeps its previous gate -- the documented minimal-
  // perturbation freeze the bounded-delta arm of the contract covers.
  if (activity_dirty && !prev.activity.p_en.empty()) {
    std::vector<char> changed(static_cast<std::size_t>(total), 0);
    for (int id = 0; id < total; ++id) {
      const int old = plan.old_of[static_cast<std::size_t>(id)];
      if (old < 0 ||
          plan.p_en[static_cast<std::size_t>(id)] !=
              prev.activity.p_en[static_cast<std::size_t>(old)] ||
          plan.p_tr[static_cast<std::size_t>(id)] !=
              prev.activity.p_tr[static_cast<std::size_t>(old)])
        changed[static_cast<std::size_t>(id)] = 1;
    }
    for (int id = 0; id < total; ++id) {
      const int parent = plan.topo.node(id).parent;
      if (changed[static_cast<std::size_t>(id)] ||
          (parent >= 0 && changed[static_cast<std::size_t>(parent)]))
        plan.in_cone[static_cast<std::size_t>(id)] = true;
    }
  }

  // Touched leaves (moved survivors + adds) round out the cone.
  for (const SinkMove& mv : delta.moves) {
    const int ni = leaf_map[static_cast<std::size_t>(mv.sink)];
    if (ni >= 0) plan.in_cone[static_cast<std::size_t>(ni)] = true;
  }
  for (int i = n_new - static_cast<int>(delta.adds.size()); i < n_new; ++i)
    plan.in_cone[static_cast<std::size_t>(i)] = true;
  plan.dirty_leaves = static_cast<int>(delta.moves.size() +
                                       delta.removes.size() +
                                       delta.adds.size());
  return plan;
}

RouterResult build_result(const core::Design& next, const RouterResult& prev,
                          const RouterOptions& opts, const EcoPlan& plan,
                          std::vector<std::string>* phases) {
  const auto phase_done = [&](const char* name) {
    if (phases != nullptr) phases->emplace_back(name);
  };
  const bool buffered = opts.style == TreeStyle::Buffered;
  const tech::TechParams build_tech =
      buffered ? opts.tech.as_buffered() : opts.tech;
  const geom::Point cp = next.die.center();
  phase_done("eco-plan");
  phase_done("topology");

  gating::NodeActivity act{plan.mask, plan.p_en, plan.p_tr};
  const gating::ControllerPlacement ctrl(next.die, opts.controller_partitions);
  const gating::CellStyle cell_style =
      buffered ? gating::CellStyle::Buffer : gating::CellStyle::MaskingGate;

  const int n = plan.topo.num_nodes();
  std::vector<bool> gated(static_cast<std::size_t>(n), true);
  gated[static_cast<std::size_t>(plan.topo.root())] = false;

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
               ? ct::embed_bounded(plan.topo, next.sinks, gate_set, build_tech,
                                   bopts_embed)
               : ct::embed(plan.topo, next.sinks, gate_set, build_tech, eopts);
  };

  int gates_before = 0;
  ct::RoutedTree tree;
  gating::SwCapReport swcap;
  if (opts.style == TreeStyle::GatedReduced) {
    // The auto-tune sweep re-reduces (and re-embeds) the whole tree per
    // strength step -- the opposite of an incremental pass. Fall back to
    // the fixed params; callers wanting a re-tuned operating point run a
    // full route.
    if (opts.auto_tune_reduction) {
      // Structured so serve/telemetry consumers can see *how much* of the
      // tree kept a potentially stale operating point: outside the cone
      // the previous sweep's gate bits are preserved verbatim.
      std::int64_t cone_nodes = 0;
      for (const bool b : plan.in_cone) cone_nodes += b ? 1 : 0;
      GCR_LOG_WARN("eco.autotune_fallback")
          .kv("cone_nodes", cone_nodes)
          .kv("total_nodes", static_cast<std::int64_t>(plan.in_cone.size()))
          .msg("auto_tune_reduction is not incremental; using fixed params");
    }
    const ct::RoutedTree full = do_embed(gated);
    gates_before = full.num_gates();
    std::vector<bool> prev_bits(static_cast<std::size_t>(n), false);
    for (int id = 0; id < n; ++id) {
      const int old = plan.old_of[static_cast<std::size_t>(id)];
      if (old >= 0)
        prev_bits[static_cast<std::size_t>(id)] = prev.tree.node(old).gated;
    }
    guard::poll_deadline("reduction");
    gated = gating::reduce_gates_cone(full, plan.p_en, build_tech,
                                      opts.reduction, plan.in_cone, prev_bits);
    tree = do_embed(gated);
    swcap = gating::evaluate_swcap(tree, act, ctrl, build_tech, cell_style);
  } else {
    tree = do_embed(gated);
    gates_before = tree.num_gates();
    swcap = gating::evaluate_swcap(tree, act, ctrl, build_tech, cell_style);
  }
  phase_done(opts.style == TreeStyle::GatedReduced ? "reduction" : "embed");

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
  return res;
}

}  // namespace

core::RouteOutcome route_incremental(const core::GatedClockRouter& router,
                                     const core::RouterResult& prev,
                                     const DesignDelta& delta,
                                     const core::RouterOptions& opts,
                                     EcoInfo* info,
                                     const guard::Deadline& deadline) {
  core::RouteOutcome out;
  const core::Design& base = router.design();
  if (!validate_delta(base, delta, out.diag)) return out;
  if (prev.tree.num_leaves != base.num_sinks() || prev.tree.root < 0) {
    out.diag.error(guard::Code::Internal,
                   "previous result does not match the base design (" +
                       std::to_string(prev.tree.num_leaves) + " leaves vs " +
                       std::to_string(base.num_sinks()) + " sinks)");
    return out;
  }

  GCR_LOG_INFO("eco.start")
      .kv("sinks", base.num_sinks())
      .kv("moves", static_cast<int>(delta.moves.size()))
      .kv("removes", static_cast<int>(delta.removes.size()))
      .kv("adds", static_cast<int>(delta.adds.size()))
      .kv("stream_replaced", delta.stream.has_value());
  const std::uint64_t detached_before = ct::detached_merge_count();
  const guard::DeadlineScope scope(deadline);
  try {
    const obs::ScopedTimer obs_timer("eco");
    guard::poll_deadline("eco-plan");
    const core::Design next = apply_delta(base, delta);
    // A replaced stream invalidates the router's activity tables; build a
    // local analyzer over the new workload (masks are RTL-derived and
    // identical, so preserved-node masks stay valid either way).
    std::optional<activity::ActivityAnalyzer> local_an;
    if (delta.stream.has_value()) local_an.emplace(next.rtl, next.stream);
    const activity::ActivityAnalyzer& an =
        local_an.has_value() ? *local_an : router.analyzer();

    const bool buffered = opts.style == TreeStyle::Buffered;
    const tech::TechParams build_tech =
        buffered ? opts.tech.as_buffered() : opts.tech;
    EcoPlan plan = [&] {
      const obs::ScopedTimer obs_plan_timer("eco-plan");
      return plan_topology(base, next, prev, delta, an, opts, build_tech);
    }();
    out.result = build_result(next, prev, opts, plan, &out.phases_completed);
    if (info != nullptr) {
      info->old_of = std::move(plan.old_of);
      info->in_cone = std::move(plan.in_cone);
      info->dirty_leaves = plan.dirty_leaves;
      info->preserved_merges = plan.preserved_merges;
      info->spine_seeds = plan.spine_seeds;
      info->spine_merges = plan.spine_merges;
    }
    if (obs::metrics_enabled()) {
      obs::Registry& reg = obs::Registry::global();
      reg.counter("eco.runs").inc();
      reg.counter("eco.preserved_merges")
          .inc(static_cast<std::uint64_t>(plan.preserved_merges));
      reg.counter("eco.spine_merges")
          .inc(static_cast<std::uint64_t>(plan.spine_merges));
    }
    GCR_LOG_INFO("eco.done")
        .kv("sinks", out.result->tree.num_leaves)
        .kv("preserved_merges", plan.preserved_merges)
        .kv("spine_seeds", plan.spine_seeds)
        .kv("spine_merges", plan.spine_merges)
        .kv("total_swcap", out.result->swcap.total_swcap());
  } catch (const guard::CancelledError& e) {
    out.cancelled = true;
    out.aborted_phase = e.phase();
    out.diag.report(e.status());
    GCR_LOG_WARN("eco.cancelled").kv("phase", e.phase());
  } catch (const guard::GuardError& e) {
    out.diag.report(e.status());
    GCR_LOG_ERROR("eco.failed").msg(out.diag.first_error().message);
  }
  const std::uint64_t detached = ct::detached_merge_count() - detached_before;
  if (detached > 0)
    out.diag.warning(guard::Code::DetachedMerge,
                     std::to_string(detached) +
                         " zero-skew merges fell back to the detached "
                         "nearest-region merge");
  return out;
}

}  // namespace gcr::eco
