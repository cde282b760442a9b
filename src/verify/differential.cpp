#include "verify/differential.h"

#include <cstdio>
#include <fstream>
#include <optional>
#include <random>

#include "activity/brute_force.h"
#include "core/router.h"
#include "eco/delta.h"
#include "eco/incremental.h"
#include "log/logger.h"
#include "obs/metrics.h"

namespace gcr::verify {

namespace {

/// splitmix64 finalizer: decorrelates (base, index) into a design seed.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

bool trees_identical(const ct::RoutedTree& a, const ct::RoutedTree& b) {
  if (a.root != b.root || a.num_leaves != b.num_leaves ||
      a.nodes.size() != b.nodes.size())
    return false;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const ct::RoutedNode& x = a.nodes[i];
    const ct::RoutedNode& y = b.nodes[i];
    if (x.left != y.left || x.right != y.right || x.parent != y.parent ||
        x.loc.x != y.loc.x || x.loc.y != y.loc.y ||
        x.edge_len != y.edge_len || x.gated != y.gated ||
        x.gate_size != y.gate_size || x.down_cap != y.down_cap ||
        x.delay != y.delay)
      return false;
  }
  return true;
}

namespace {

struct Driver {
  const DiffOptions& opts;
  DiffStats stats;

  void fail(const DesignSpec& spec, std::string stage, std::string message,
            Report report = {}) {
    if (!opts.dump_dir.empty()) {
      std::ofstream os(opts.dump_dir + "/verify_fail_" +
                       std::to_string(spec.seed) + ".json");
      if (os) write_design_artifact(os, spec, stage, &report);
    }
    stats.failures.push_back(
        {spec, std::move(stage), std::move(message), std::move(report)});
    if (obs::metrics_enabled()) {
      obs::Registry::global().counter("verify.diff_failures").inc();
    }
  }

  /// Route + invariant-check one configuration; returns the result only
  /// when it verified clean.
  std::optional<core::RouterResult> route_checked(
      const core::GatedClockRouter& router, const DesignSpec& spec,
      const core::RouterOptions& ropts, const std::string& stage) {
    core::RouterResult res = router.route(ropts);
    ++stats.routes;
    Report rep = verify_result(router, ropts, res);
    if (!rep.ok()) {
      fail(spec, stage, "invariant violations", std::move(rep));
      return std::nullopt;
    }
    return res;
  }

  void check_activity_oracle(const core::GatedClockRouter& router,
                             const DesignSpec& spec, std::mt19937_64& rng) {
    const core::Design& d = router.design();
    const activity::BruteForceActivity oracle(d.rtl, d.stream);
    const activity::ActivityAnalyzer& table = router.analyzer();
    const int n = d.rtl.num_modules();

    // Both sides divide the same integer count by the same B or B - 1, so
    // they must agree exactly.
    const auto diff = [&](const activity::ModuleSet& s, const char* what) {
      ++stats.activity_checks;
      const double table_sig = table.signal_prob_of_modules(s);
      const double table_tr = table.transition_prob_of_modules(s);
      const double oracle_sig = oracle.signal_prob(s);
      const double oracle_tr = oracle.transition_prob(s);
      if (table_sig != oracle_sig || table_tr != oracle_tr) {
        char msg[192];
        std::snprintf(msg, sizeof msg,
                      "activity mismatch on %s: table P(EN) %.17g, "
                      "P_tr(EN) %.17g vs oracle %.17g, %.17g",
                      what, table_sig, table_tr, oracle_sig, oracle_tr);
        fail(spec, "activity-oracle", msg);
      }
    };

    activity::ModuleSet none(n);
    diff(none, "the empty set");
    activity::ModuleSet all(n);
    for (int m = 0; m < n; ++m) all.set(m);
    diff(all, "the all-modules set");
    std::uniform_int_distribution<int> pick(0, n - 1);
    std::uniform_int_distribution<int> size(1, n);
    for (int trial = 0; trial < opts.activity_trials; ++trial) {
      activity::ModuleSet s(n);
      const int k = size(rng);
      for (int j = 0; j < k; ++j) s.set(pick(rng));
      diff(s, "a random set");
    }
  }

  void run_design(std::uint64_t dseed) {
    const DesignSpec spec = random_spec(dseed);
    GCR_LOG_DEBUG("verify.design")
        .kv("index", stats.designs)
        .kv("seed", spec.seed)
        .kv("sinks", spec.num_sinks)
        .kv("cloud", sink_cloud_name(spec.cloud))
        .kv("instructions", spec.num_instructions)
        .kv("stream_length", spec.stream_length);
    const core::GatedClockRouter router(generate_design(spec));
    ++stats.designs;

    std::mt19937_64 rng(mix(dseed ^ 0xabcdefull));
    check_activity_oracle(router, spec, rng);

    // Every topology scheme must yield an invariant-clean gated tree.
    using Scheme = core::TopologyScheme;
    double flat_swcap_wl = -1.0;
    std::optional<ct::RoutedTree> flat_swcap_tree;
    for (const auto& [scheme, name] : core::OptionNames<Scheme>::table) {
      core::RouterOptions ropts;
      ropts.style = core::TreeStyle::Gated;
      ropts.topology = scheme;
      const auto res = route_checked(router, spec, ropts,
                                     "route:gated:" + std::string(name));
      if (res && scheme == Scheme::MinSwitchedCap) {
        flat_swcap_wl = res->tree.total_wirelength();
        flat_swcap_tree = res->tree;
        // Metamorphic: gating every edge never beats the ungated reference
        // of the same tree (masking only removes switching).
        if (res->swcap.clock_swcap >
            res->swcap.ungated_swcap * (1.0 + 1e-9)) {
          fail(spec, "route:gated:swcap",
               "gated W(T) exceeds the ungated reference of the same tree");
        }
        if (opts.reduction_check) {
          core::RouterOptions reduced = ropts;
          reduced.style = core::TreeStyle::GatedReduced;
          reduced.auto_tune_reduction = true;
          const auto red = route_checked(router, spec, reduced,
                                         "route:reduced:swcap");
          if (red) {
            Report rrep;
            check_gate_reduction(res->swcap.total_swcap(),
                                 red->swcap.total_swcap(), rrep);
            if (!rrep.ok()) {
              fail(spec, "reduction-monotone",
                   "auto-tuned reduction increased total switched cap",
                   std::move(rrep));
            }
          }
        }
      }
    }

    // The buffered baseline verifies with buffer parameters.
    {
      core::RouterOptions ropts;
      ropts.style = core::TreeStyle::Buffered;
      route_checked(router, spec, ropts, "route:buffered");
    }

    // Serial vs multi-threaded clustered Eq. 3 build (the only greedy
    // that fans out): the determinism contract (docs/parallelism.md) says
    // the routed tree is bit-identical at any width.
    if (opts.thread_check) {
      core::RouterOptions ropts;
      ropts.style = core::TreeStyle::Gated;
      ropts.topology = Scheme::MinSwitchedCap;
      ropts.clustered = true;
      ropts.num_threads = 1;
      const auto serial =
          route_checked(router, spec, ropts, "thread-determinism");
      ropts.num_threads = 4;
      const auto wide =
          route_checked(router, spec, ropts, "thread-determinism");
      if (serial && wide && !trees_identical(serial->tree, wide->tree)) {
        fail(spec, "thread-determinism",
             "routed trees differ between 1 and 4 worker threads");
      }
    }

    // Indexed vs exhaustive partner selection: disabling the dynamic
    // partner index must reproduce the default (indexed) Eq. 3 tree
    // bit-for-bit (cts::BuildOptions::partner_index contract).
    if (opts.index_check && flat_swcap_tree) {
      core::RouterOptions ropts;
      ropts.style = core::TreeStyle::Gated;
      ropts.topology = Scheme::MinSwitchedCap;
      ropts.partner_index = false;
      const auto exhaustive =
          route_checked(router, spec, ropts, "index-determinism");
      if (exhaustive && !trees_identical(*flat_swcap_tree, exhaustive->tree)) {
        fail(spec, "index-determinism",
             "indexed and exhaustive partner selection routed different "
             "trees");
      }
    }

    // Flat vs clustered greedy: same zero-skew guarantee (enforced by the
    // invariant check), wirelength within the documented factor.
    if (opts.clustered_check && flat_swcap_wl > 0.0) {
      core::RouterOptions ropts;
      ropts.style = core::TreeStyle::Gated;
      ropts.topology = Scheme::MinSwitchedCap;
      ropts.clustered = true;
      const auto res =
          route_checked(router, spec, ropts, "route:gated:clustered");
      if (res && spec.num_sinks >= opts.clustered_min_sinks) {
        const double wl = res->tree.total_wirelength();
        GCR_LOG_DEBUG("verify.clustered_ratio")
            .kv("seed", spec.seed)
            .kv("ratio", wl / flat_swcap_wl);
        if (wl > opts.clustered_wl_factor * flat_swcap_wl + 1e-6) {
          fail(spec, "clustered-wirelength",
               "clustered wirelength " + std::to_string(wl) +
                   " exceeds " +
                   std::to_string(opts.clustered_wl_factor) +
                   "x flat (" + std::to_string(flat_swcap_wl) + ")");
        }
      }
    }
  }
};

}  // namespace

std::uint64_t design_seed(std::uint64_t base, int index) {
  return mix(base + static_cast<std::uint64_t>(index));
}

DiffStats run_differential(const DiffOptions& opts) {
  Driver driver{opts, {}};
  if (!opts.explicit_seeds.empty()) {
    for (const std::uint64_t s : opts.explicit_seeds) driver.run_design(s);
  } else {
    for (int i = 0; i < opts.num_designs; ++i) {
      driver.run_design(design_seed(opts.seed, i));
    }
  }
  return std::move(driver.stats);
}

namespace {

/// Draw a random ECO delta for `base`. The design index rotates through
/// the edit families so every sweep covers single moves, removals,
/// additions, mixed structural edits and workload (stream) replacement;
/// the touched-sink sets are kept disjoint (validate_delta's contract).
eco::DesignDelta random_delta(const core::Design& base, int index,
                              std::mt19937_64& rng) {
  eco::DesignDelta d;
  const int n = base.num_sinks();
  std::uniform_real_distribution<double> px(base.die.xlo, base.die.xhi);
  std::uniform_real_distribution<double> py(base.die.ylo, base.die.yhi);
  std::uniform_real_distribution<double> pcap(0.005, 0.06);
  std::uniform_int_distribution<int> pick(0, n - 1);
  std::uniform_int_distribution<int> pmod(0, base.rtl.num_modules() - 1);
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  const auto fresh = [&] {
    int s = pick(rng);
    while (used[static_cast<std::size_t>(s)]) s = (s + 1) % n;
    used[static_cast<std::size_t>(s)] = 1;
    return s;
  };
  const auto add_move = [&] { d.moves.push_back({fresh(), {px(rng), py(rng)}}); };
  const auto add_sink = [&] {
    d.adds.push_back({{{px(rng), py(rng)}, pcap(rng)}, pmod(rng)});
  };
  switch (index % 5) {
    case 0:
      add_move();
      break;
    case 1:
      if (n >= 2)
        d.removes.push_back(fresh());
      else
        add_move();
      break;
    case 2:
      add_sink();
      break;
    case 3:
      add_move();
      if (n >= 3) d.removes.push_back(fresh());
      add_sink();
      break;
    default: {
      activity::InstructionStream s;
      const int len = std::max(1, base.stream.length() / 2);
      std::uniform_int_distribution<int> instr(
          0, base.rtl.num_instructions() - 1);
      s.seq.reserve(static_cast<std::size_t>(len));
      for (int t = 0; t < len; ++t) s.seq.push_back(instr(rng));
      d.stream = std::move(s);
      break;
    }
  }
  return d;
}

}  // namespace

DiffStats run_eco_differential(const EcoDiffOptions& opts) {
  DiffOptions dopts;
  dopts.dump_dir = opts.dump_dir;
  Driver driver{dopts, {}};
  using Scheme = core::TopologyScheme;
  for (int i = 0; i < opts.num_designs; ++i) {
    const std::uint64_t dseed = design_seed(opts.seed, i);
    const DesignSpec spec = random_spec(dseed);
    const core::Design base = generate_design(spec);
    const core::GatedClockRouter router(base);
    ++driver.stats.designs;
    std::mt19937_64 rng(mix(dseed ^ 0xec0ull));
    const eco::DesignDelta delta = random_delta(base, i, rng);
    GCR_LOG_DEBUG("verify.eco_diff_design")
        .kv("index", i)
        .kv("seed", spec.seed)
        .kv("sinks", spec.num_sinks)
        .kv("moves", static_cast<int>(delta.moves.size()))
        .kv("removes", static_cast<int>(delta.removes.size()))
        .kv("adds", static_cast<int>(delta.adds.size()))
        .kv("stream_replaced", delta.stream.has_value());
    {
      guard::Diag diag;
      if (!eco::validate_delta(base, delta, diag)) {
        driver.fail(spec, "eco-diff:delta",
                    "generated delta failed validation: " +
                        diag.first_error().message);
        continue;
      }
    }
    const core::GatedClockRouter next_router(eco::apply_delta(base, delta));

    const auto check_config = [&](Scheme scheme, core::TreeStyle style) {
      core::RouterOptions ropts;
      ropts.style = style;
      ropts.topology = scheme;
      ropts.num_threads = 1;
      const std::string stage = "eco-diff:" +
                                std::string(core::option_name(scheme)) + ":" +
                                std::string(core::option_name(style));
      const core::RouterResult prev = router.route(ropts);
      ++driver.stats.routes;
      eco::EcoInfo info;
      const core::RouteOutcome inc = eco::route_incremental(
          router, prev, delta, ropts, &info);
      ++driver.stats.routes;
      if (!inc.result.has_value()) {
        driver.fail(spec, stage,
                    "incremental route failed: " +
                        (inc.diag.error_count() > 0
                             ? inc.diag.first_error().message
                             : std::string("no result")));
        return;
      }
      const ct::RoutedTree& tree = inc.result->tree;

      // The incremental result must verify exactly like a from-scratch
      // route of the applied design.
      Report rep = verify_result(next_router, ropts, *inc.result);
      if (!rep.ok()) {
        driver.fail(spec, stage + ":invariants",
                    "incremental result violates invariants",
                    std::move(rep));
        return;
      }

      // Equivalence-or-bounded-delta arm against a from-scratch route.
      const core::RouterResult scratch = next_router.route(ropts);
      ++driver.stats.routes;
      if (!trees_identical(tree, scratch.tree)) {
        const double a = inc.result->swcap.total_swcap();
        const double b = scratch.swcap.total_swcap();
        const double ratio =
            std::max(a, b) / std::max(std::min(a, b), 1e-30);
        GCR_LOG_DEBUG("verify.eco_swcap_ratio")
            .kv("seed", spec.seed)
            .kv("stage", stage)
            .kv("ratio", ratio);
        if (!(ratio <= opts.max_swcap_ratio)) {
          driver.fail(spec, stage + ":swcap",
                      "incremental tree differs from scratch and the "
                      "total-swcap ratio " +
                          std::to_string(ratio) + " exceeds " +
                          std::to_string(opts.max_swcap_ratio));
        }
      }

      // Preservation: outside the cone every carried-over node keeps its
      // bottom-up fields bit-for-bit (structural deltas; a stream
      // replacement re-decides gates wherever probabilities moved, so the
      // cone itself is the contract there).
      if (!delta.stream.has_value()) {
        for (int id = 0; id < tree.num_nodes(); ++id) {
          if (info.in_cone[static_cast<std::size_t>(id)]) continue;
          const int old = info.old_of[static_cast<std::size_t>(id)];
          if (old < 0) continue;
          const ct::RoutedNode& x = tree.node(id);
          const ct::RoutedNode& y = prev.tree.node(old);
          const char* field = nullptr;
          if (x.edge_len != y.edge_len) field = "edge_len";
          else if (x.gated != y.gated) field = "gated";
          else if (x.gate_size != y.gate_size) field = "gate_size";
          else if (x.down_cap != y.down_cap) field = "down_cap";
          else if (x.delay != y.delay) field = "delay";
          if (field != nullptr) {
            driver.fail(spec, stage + ":preserve",
                        "out-of-cone node " + std::to_string(id) +
                            " (prev " + std::to_string(old) +
                            ") was not preserved bit-identically: " + field);
            break;
          }
        }
      }
    };

    for (const auto& n : core::OptionNames<Scheme>::table)
      check_config(n.value, core::TreeStyle::Gated);
    check_config(Scheme::MinSwitchedCap, core::TreeStyle::GatedReduced);
  }
  return std::move(driver.stats);
}

DiffStats run_index_differential(const IndexDiffOptions& opts) {
  DiffOptions dopts;
  dopts.dump_dir = opts.dump_dir;
  Driver driver{dopts, {}};
  using Scheme = core::TopologyScheme;
  for (int i = 0; i < opts.num_designs; ++i) {
    const std::uint64_t dseed = design_seed(opts.seed, i);
    const DesignSpec spec = random_spec(dseed);
    GCR_LOG_DEBUG("verify.index_diff_design")
        .kv("index", i)
        .kv("seed", spec.seed)
        .kv("sinks", spec.num_sinks)
        .kv("cloud", sink_cloud_name(spec.cloud));
    const core::GatedClockRouter router(generate_design(spec));
    ++driver.stats.designs;
    for (const auto& [scheme, name] : core::OptionNames<Scheme>::table) {
      for (const bool clustered : {false, true}) {
        // Only the clustered builder fans out, so only it sweeps widths.
        for (const int threads : {1, 4}) {
          if (!clustered && threads > 1) continue;
          core::RouterOptions ropts;
          ropts.style = core::TreeStyle::Gated;
          ropts.topology = scheme;
          ropts.clustered = clustered;
          ropts.num_threads = threads;
          ropts.partner_index = true;
          const core::RouterResult indexed = router.route(ropts);
          ropts.partner_index = false;
          const core::RouterResult exhaustive = router.route(ropts);
          driver.stats.routes += 2;
          if (!trees_identical(indexed.tree, exhaustive.tree)) {
            driver.fail(spec,
                        "index-diff:" + std::string(name) +
                            (clustered ? ":clustered" : ":flat") + ":t" +
                            std::to_string(threads),
                        "indexed and exhaustive partner selection routed "
                        "different trees");
          }
        }
      }
    }
  }
  return std::move(driver.stats);
}

}  // namespace gcr::verify
