#include "cts/greedy.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>

#include "cts/partner_index.h"
#include "guard/deadline.h"
#include "obs/metrics.h"
#include "prof/recorder.h"

namespace gcr::cts {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Candidate {
  int node{-1};  ///< topology node id
  ct::SubtreeTap tap;
  activity::ActivationMask mask;
  double p_en{1.0};
  double p_tr{0.0};
  double cp_dist{0.0};  ///< dist(CP, mid(ms)) -- Eq. 3 star estimate
  /// Floored probability weight max(p_en, min_prob_weight): the factor the
  /// Eq. 3 cost applies to this side's new clock edge.
  double p_floor{1.0};
  /// Merge-invariant part of this candidate's Eq. 3 contribution: the
  /// subtree cap re-switched through the new edge plus the enable-star
  /// terms. Everything in pair_cost except the new wire itself.
  double self_cost{0.0};
  /// Elmore branch-delay coefficients of an edge down to this subtree
  /// (delay(L) = a + b*L + (rc/2) L^2, gating per BuildOptions): what a
  /// zero-skew merge must balance, cached so the partner index can price
  /// the snaked wire a delay-mismatched pair is forced to buy.
  ct::BranchCoeffs coeffs;
  bool alive{false};
};

struct BestPartner {
  double cost{kInf};
  int partner{-1};
  bool stale{true};
};

/// The chosen merge and its Eq. 3 cost (the switched-cap delta).
struct Pick {
  int a{-1};
  int b{-1};
  double cost{0.0};
};

/// Strict total order on candidate pairs: by cost, then by the canonical
/// (lower id, higher id) pair. This is the tie-break both engines use, so
/// the chosen merge is independent of scan order and of the active-front
/// permutation the swap-removes produce, and the two engines agree.
bool pair_less(double cost_x, int x1, int x2, double cost_y, int y1, int y2) {
  if (cost_x != cost_y) return cost_x < cost_y;
  const int xlo = std::min(x1, x2), xhi = std::max(x1, x2);
  const int ylo = std::min(y1, y2), yhi = std::max(y1, y2);
  if (xlo != ylo) return xlo < ylo;
  return xhi < yhi;
}

/// A lazy-deletion heap entry for the indexed engine: `owner`'s cached best
/// partner at the time best_[owner] was last written. Entries are never
/// removed eagerly; pop-time validation discards the ones whose owner has
/// since died or been recomputed, and *repairs* (recomputes on the spot)
/// the ones whose partner has died -- a stale cost is a lower bound on the
/// owner's true current best, so it surfaces no later than the entry that
/// replaces it and the pop order stays exact.
struct HeapEntry {
  double cost{kInf};
  int owner{-1};
  int partner{-1};
};

/// Orders a max-heap (std::priority_queue) so its top is the *minimum*
/// under the strict (cost, lower-id, higher-id) pair order. The mirror
/// entries (i best-of j, j best-of i) compare equal on purpose: they name
/// the same merge, and either one validates into the same Pick.
struct HeapEntryAfter {
  bool operator()(const HeapEntry& x, const HeapEntry& y) const {
    return pair_less(y.cost, y.owner, y.partner, x.cost, x.owner, x.partner);
  }
};

/// The greedy merge loop with its two serial pick engines: the indexed
/// engine (the default for the geometric costs) and the exhaustive rescan
/// (ActivityOnly, and the `partner_index = false` reference that
/// `gcr_check --index-diff` compares against). Both pick the same strict
/// (cost, lower-id, higher-id) argmin at every step, so they build
/// bit-identical topologies.
class GreedyEngine {
 public:
  GreedyEngine(std::span<const TapSeed> seeds,
               const activity::ActivityAnalyzer* analyzer,
               const BuildOptions& opts)
      : opts_(opts),
        analyzer_(analyzer),
        topo_(static_cast<int>(seeds.size())),
        indexed_(opts.partner_index && opts.cost != MergeCost::ActivityOnly) {
    assert(!seeds.empty());
    assert(opts.cost == MergeCost::NearestNeighbor || analyzer != nullptr);
    const int n = static_cast<int>(seeds.size());
    cands_.resize(static_cast<std::size_t>(2 * n - 1));
    best_.resize(cands_.size());
    pos_.assign(cands_.size(), -1);

    // Seed bounding box over merging-segment centers. Centers suffice: the
    // index only uses the box for bucketing and clamps outliers to the
    // border cells, never for correctness.
    double xlo = kInf, xhi = -kInf, ylo = kInf, yhi = -kInf;
    for (const TapSeed& seed : seeds) {
      const geom::Point c = seed.tap.ms.center();
      xlo = std::min(xlo, c.x);
      xhi = std::max(xhi, c.x);
      ylo = std::min(ylo, c.y);
      yhi = std::max(yhi, c.y);
    }
    // Distance tie term for ActivityOnly: every merging segment stays
    // inside the seed bounding box, so dist <= diag and the term stays
    // below 1e-9 -- under any probability step of a < 10^9-cycle stream,
    // whatever the coordinate scale.
    const double diag = (xhi - xlo) + (yhi - ylo);
    tie_eps_ = 1e-9 / std::max(diag, 1.0);
    if (indexed_) {
      index_.init(opts_.cost == MergeCost::NearestNeighbor
                      ? PartnerIndex::Metric::Distance
                      : PartnerIndex::Metric::SwitchedCap,
                  &opts_.tech, 2 * n - 1, n, xlo, ylo, xhi - xlo, yhi - ylo);
    }

    for (int i = 0; i < n; ++i) {
      const TapSeed& seed = seeds[static_cast<std::size_t>(i)];
      Candidate& c = cands_[static_cast<std::size_t>(i)];
      c.node = i;
      c.tap = seed.tap;
      c.alive = true;
      if (analyzer_) {
        c.mask = seed.mask;
        c.p_en = analyzer_->signal_prob(c.mask);
        c.p_tr = analyzer_->transition_prob(c.mask);
      }
      c.cp_dist = geom::manhattan_dist(opts.control_point, c.tap.ms.center());
      finish_candidate(c);
      activate(i);
    }
  }

  BuildResult run() {
    const int n = topo_.num_leaves();
    // Hoisted: the ambient deadline cannot change during the run, and the
    // poll sits between merges -- a merge either happens completely or
    // not at all.
    const guard::Deadline* dl = guard::current_deadline();
    if (indexed_) {
      for (const int i : active_) {
        index_recompute(i);
        link(i);
      }
    }
    for (int step = 0; step + 1 < n; ++step) {
      if (dl != nullptr && dl->expired()) throw guard::CancelledError("topology");
      const Pick pick = indexed_ ? pick_min_pair_indexed() : pick_min_pair();
      prof::Event ev = prof::event(prof::Ev::Merge);
      ev.a = pick.a;
      ev.b = pick.b;
      ev.x = pick.cost;
      if (prof::capturing()) add_runner_up(ev, pick);
      prof::record(ev);
      merge(pick.a, pick.b);
      if (obs::metrics_enabled()) [[unlikely]] {
        static obs::Counter& c = obs::Registry::global().counter("cts.merges");
        c.inc();
      }
    }
    BuildResult out{std::move(topo_), {}, {}, {}};
    if (analyzer_) {
      out.mask.reserve(cands_.size());
      out.p_en.reserve(cands_.size());
      out.p_tr.reserve(cands_.size());
      for (const Candidate& c : cands_) {
        out.mask.push_back(c.mask);
        out.p_en.push_back(c.p_en);
        out.p_tr.push_back(c.p_tr);
      }
    }
    return out;
  }

 private:
  /// Derived Eq. 3 fields (floored weight, merge-invariant cost part);
  /// call after p_en/p_tr/cp_dist/tap are final.
  void finish_candidate(Candidate& c) const {
    const tech::TechParams& t = opts_.tech;
    c.p_floor = std::max(c.p_en, opts_.min_prob_weight);
    c.self_cost = c.tap.cap * c.p_floor +
                  (t.wire_cap(c.cp_dist) + t.gate_enable_cap) * c.p_tr;
    c.coeffs = ct::branch_coeffs(c.tap, opts_.gated_edges, t);
  }

  /// The index's view of a candidate: merging-segment center, reach (max
  /// Manhattan distance from center to the segment -- Chebyshev half-extent
  /// in the rotated frame), and the Eq. 3 bound ingredients.
  [[nodiscard]] PartnerIndex::Item index_item(const Candidate& c) const {
    const geom::TiltedRect& ms = c.tap.ms;
    PartnerIndex::Item it;
    it.center = ms.center();
    it.reach = 0.5 * std::max(ms.uhi() - ms.ulo(), ms.whi() - ms.wlo());
    it.self_cost = c.self_cost;
    it.p_floor = c.p_floor;
    it.a_coef = c.coeffs.a;
    it.b_coef = c.coeffs.b;
    return it;
  }

  void activate(int id) {
    pos_[static_cast<std::size_t>(id)] = static_cast<int>(active_.size());
    active_.push_back(id);
    if (indexed_)
      index_.insert(id, index_item(cands_[static_cast<std::size_t>(id)]));
  }

  /// O(1) swap-remove from the active front (the old std::erase pair was an
  /// O(front) memmove per merge).
  void deactivate(int id) {
    const int p = pos_[static_cast<std::size_t>(id)];
    const int last = active_.back();
    active_[static_cast<std::size_t>(p)] = last;
    pos_[static_cast<std::size_t>(last)] = p;
    active_.pop_back();
    pos_[static_cast<std::size_t>(id)] = -1;
    if (indexed_) index_.remove(id);
  }

  /// Cost of merging two live candidates. Deliberately uninstrumented --
  /// this is the innermost loop; callers bulk-count candidate evaluations
  /// per scan instead.
  double pair_cost(const Candidate& x, const Candidate& y) const {
    if (opts_.cost == MergeCost::NearestNeighbor)
      return x.tap.ms.distance_to(y.tap.ms);
    if (opts_.cost == MergeCost::ActivityOnly) {
      // Joint enable probability dominates; distance only breaks ties.
      // The epsilon is scaled by the seed bounding-box diagonal (see the
      // constructor) so the term stays below the stream's smallest
      // probability step even for chip-scale coordinates.
      const double p_union = analyzer_->signal_prob(x.mask | y.mask);
      return p_union + tie_eps_ * x.tap.ms.distance_to(y.tap.ms);
    }
    // Eq. 3: switched capacitance added by this merge (probability weights
    // floored; see BuildOptions::min_prob_weight). The edge lengths come
    // straight from the closed-form balance split -- the merged-segment
    // geometry zero_skew_merge would also compute is irrelevant to the
    // cost, and skipping it makes an evaluation ~10x cheaper. Committed
    // merges call the same ct::balance_lengths, so priced and built trees
    // agree bit-for-bit.
    const tech::TechParams& t = opts_.tech;
    const ct::BalanceSplit m =
        ct::balance_lengths(x.coeffs, y.coeffs,
                            x.tap.ms.distance_to(y.tap.ms),
                            t.unit_res * t.unit_cap);
    return (t.wire_cap(m.len_a) + x.tap.cap) * x.p_floor +
           (t.wire_cap(m.len_b) + y.tap.cap) * y.p_floor +
           (t.wire_cap(x.cp_dist) + t.gate_enable_cap) * x.p_tr +
           (t.wire_cap(y.cp_dist) + t.gate_enable_cap) * y.p_tr;
  }

  static void count_evals(std::uint64_t evaluated) {
    if (obs::metrics_enabled()) [[unlikely]] {
      static obs::Counter& evals =
          obs::Registry::global().counter("cts.candidate_evals");
      evals.inc(evaluated);
    }
  }

  /// Exhaustive rescan: best_[i] becomes the exact (cost, smallest partner
  /// id) argmin over every other live candidate.
  void recompute_best(int i) {
    BestPartner bp;
    const Candidate& ci = cands_[static_cast<std::size_t>(i)];
    for (const int j : active_) {
      if (j == i) continue;
      const double cost = pair_cost(ci, cands_[static_cast<std::size_t>(j)]);
      if (cost < bp.cost || (cost == bp.cost && j < bp.partner)) {
        bp.cost = cost;
        bp.partner = j;
      }
    }
    bp.stale = false;
    best_[static_cast<std::size_t>(i)] = bp;
    const auto evaluated = static_cast<std::uint64_t>(active_.size() - 1);
    record_recompute(i, bp, evaluated);
    count_recompute(evaluated);
  }

  static void count_recompute(std::uint64_t evaluated) {
    if (obs::metrics_enabled()) [[unlikely]] {
      static obs::Counter& recomputes =
          obs::Registry::global().counter("cts.best_partner_recomputes");
      recomputes.inc();
    }
    count_evals(evaluated);
  }

  /// One capture-only event per best-partner recompute, recorded on
  /// whichever thread runs the engine (a spawned lane, for the clustered
  /// builder's per-cell builds).
  static void record_recompute(int i, const BestPartner& bp,
                               std::uint64_t evaluated) {
    if (!prof::capturing()) return;
    prof::Event e = prof::event(prof::Ev::Recompute);
    e.a = i;
    e.b = bp.partner;
    e.x = bp.cost;
    e.n = static_cast<std::uint32_t>(evaluated);
    prof::record(e);
  }

  /// Recompute best_[i] through the partner index: the exact (cost,
  /// smallest-partner-id) argmin over every live candidate, with the index
  /// bounds skipping strictly-dominated buckets/pairs. Survivors pay the
  /// exact pair cost directly: since pair_cost prices through the
  /// closed-form balance split it costs about the same as an Eq. 3 lower
  /// bound itself, so a second engine-side bound check before it would
  /// only double the work.
  void index_recompute(int i) {
    const Candidate& ci = cands_[static_cast<std::size_t>(i)];
    PartnerIndex::QueryStats qs;
    const PartnerIndex::Best fb = index_.find_best(
        i,
        [&](int j, double, bool) {
          return pair_cost(ci, cands_[static_cast<std::size_t>(j)]);
        },
        &qs);
    BestPartner bp{fb.cost, fb.partner, false};
    best_[static_cast<std::size_t>(i)] = bp;
    record_recompute(i, bp, qs.evaluated);
    count_recompute(qs.evaluated);
    if (obs::metrics_enabled()) [[unlikely]] {
      static obs::Counter& queries =
          obs::Registry::global().counter("cts.index_queries");
      static obs::Counter& bucket_skips =
          obs::Registry::global().counter("cts.index_bucket_skips");
      static obs::Counter& node_bounds =
          obs::Registry::global().counter("cts.index_node_bounds");
      static obs::Counter& quads =
          obs::Registry::global().counter("cts.index_quads");
      queries.inc();
      if (qs.bucket_skips > 0) bucket_skips.inc(qs.bucket_skips);
      if (qs.node_bounds > 0) node_bounds.inc(qs.node_bounds);
      if (qs.quads > 0) quads.inc(qs.quads);
    }
  }

  /// Push best_[i]'s heap entry. Call once per best_ write.
  void link(int i) {
    const BestPartner& bp = best_[static_cast<std::size_t>(i)];
    if (bp.partner < 0) return;
    heap_.push(HeapEntry{bp.cost, i, bp.partner});
  }

  /// The (cost, lower-id, higher-id) argmin over the cached best partners
  /// of the whole front; every cached entry must be fresh.
  [[nodiscard]] Pick argmin_front() const {
    int besti = -1;
    for (const int i : active_) {
      const BestPartner& bp = best_[static_cast<std::size_t>(i)];
      if (besti < 0 ||
          pair_less(bp.cost, i, bp.partner,
                    best_[static_cast<std::size_t>(besti)].cost, besti,
                    best_[static_cast<std::size_t>(besti)].partner))
        besti = i;
    }
    const BestPartner& bp = best_[static_cast<std::size_t>(besti)];
    return Pick{std::min(besti, bp.partner), std::max(besti, bp.partner),
                bp.cost};
  }

  /// Pop the heap down to the first entry that still describes a live
  /// cached best, repairing stale entries (dead partner) as they surface.
  /// By the lazy invariant (docs/ALGORITHMS.md) the first live entry is
  /// exactly the (cost, lower-id, higher-id) argmin over all live pairs,
  /// the same pick the exhaustive rescan would make. Repair-at-the-top is
  /// what keeps the query count near-linear: a candidate whose partner
  /// died k times since its last recompute is repaired once, and only if
  /// its (lower-bound) cached cost ever reaches the top at all.
  Pick pick_min_pair_indexed() {
    assert(active_.size() >= 2);
    while (!heap_.empty()) {
      const HeapEntry e = heap_.top();
      heap_.pop();
      const BestPartner& bp = best_[static_cast<std::size_t>(e.owner)];
      if (!cands_[static_cast<std::size_t>(e.owner)].alive || bp.stale ||
          bp.partner != e.partner || bp.cost != e.cost)
        continue;  // owner dead, or a superseded duplicate entry
      if (!cands_[static_cast<std::size_t>(e.partner)].alive) {
        // Deferred repair. Pair costs are immutable, so this entry's cost
        // can only underbid or tie the owner's true current best -- the
        // entry surfaces no later than the one that replaces it, and the
        // exactness argument (docs/ALGORITHMS.md) survives the deferral.
        index_recompute(e.owner);
        link(e.owner);
        continue;
      }
      return Pick{std::min(e.owner, e.partner), std::max(e.owner, e.partner),
                  e.cost};
    }
    // Unreachable while the lazy invariant holds; degrade gracefully by
    // refreshing the whole front and re-linking, rather than crashing.
    assert(false && "partner-index heap exhausted");
    for (const int i : active_) {
      index_recompute(i);
      link(i);
    }
    return argmin_front();
  }

  /// Index maintenance after a merge (a, b already deactivated): insert
  /// the new node and compute its best partner. Candidates whose cached
  /// best was a or b are NOT recomputed here -- their heap entries repair
  /// lazily if and when they surface in pick_min_pair_indexed. Deferral
  /// coalesces the fan-in: a popular partner's death costs one repair per
  /// *surfacing* dependent, not one recompute per dependent per death.
  void index_post_merge(int id) {
    activate(id);
    if (index_.maybe_rebuild()) {
      if (obs::metrics_enabled()) [[unlikely]] {
        static obs::Counter& rebuilds =
            obs::Registry::global().counter("cts.index_rebuilds");
        rebuilds.inc();
      }
    }
    index_recompute(id);
    link(id);
  }

  /// Exhaustive pick: rescan every entry that is still unset or whose
  /// cached partner has died, then take the argmin over the front.
  Pick pick_min_pair() {
    assert(active_.size() >= 2);
    for (const int i : active_) {
      const BestPartner& bp = best_[static_cast<std::size_t>(i)];
      if (bp.stale || !cands_[static_cast<std::size_t>(bp.partner)].alive)
        recompute_best(i);
    }
    return argmin_front();
  }

  /// Exhaustive maintenance after a merge (a, b already deactivated): the
  /// new node may beat existing cached partners, so one pass prices every
  /// front member against it, which also yields the new node's own best.
  void rescan_post_merge(int id) {
    const Candidate& cn = cands_[static_cast<std::size_t>(id)];
    BestPartner bn;
    for (const int j : active_) {
      const double cost = pair_cost(cn, cands_[static_cast<std::size_t>(j)]);
      BestPartner& bj = best_[static_cast<std::size_t>(j)];
      // (cost, id) tie-break: `id` is the largest live node id, so only a
      // strictly better cost may displace j's cached partner.
      if (!bj.stale && cost < bj.cost) {
        bj.cost = cost;
        bj.partner = id;
      }
      if (cost < bn.cost || (cost == bn.cost && j < bn.partner)) {
        bn.cost = cost;
        bn.partner = j;
      }
    }
    bn.stale = false;
    best_[static_cast<std::size_t>(id)] = bn;
    count_evals(static_cast<std::uint64_t>(active_.size()));
    activate(id);
  }

  /// The capture-only part of a merge event: the runner-up (cheapest
  /// alternative merge, i.e. the best pair that is not the chosen one or
  /// its mirror) and the current front size. The indexed engine defers
  /// repairs, so entries whose partner has died are skipped -- the
  /// runner-up is best-effort there, never a dead pair.
  void add_runner_up(prof::Event& e, const Pick& pick) const {
    int ru = -1;
    double ru_cost = std::numeric_limits<double>::infinity();
    for (const int i : active_) {
      if (i == pick.a) continue;
      const BestPartner& bp = best_[static_cast<std::size_t>(i)];
      if (i == pick.b && bp.partner == pick.a) continue;
      if (bp.partner < 0 ||
          !cands_[static_cast<std::size_t>(bp.partner)].alive)
        continue;
      if (bp.cost < ru_cost) {
        ru_cost = bp.cost;
        ru = i;
      }
    }
    e.c = ru;
    e.d = ru >= 0 ? best_[static_cast<std::size_t>(ru)].partner : -1;
    e.y = ru_cost;
    e.n = static_cast<std::uint32_t>(active_.size());
  }

  void merge(int a, int b) {
    Candidate& ca = cands_[static_cast<std::size_t>(a)];
    Candidate& cb = cands_[static_cast<std::size_t>(b)];
    const ct::MergeResult m = ct::zero_skew_merge(
        ca.tap, opts_.gated_edges, cb.tap, opts_.gated_edges, opts_.tech);

    const int id = topo_.merge(ca.node, cb.node);
    Candidate& cn = cands_[static_cast<std::size_t>(id)];
    cn.node = id;
    cn.tap.ms = m.ms;
    cn.tap.delay = m.delay;
    cn.tap.cap = m.cap;
    cn.alive = true;
    if (analyzer_) {
      cn.mask = ca.mask | cb.mask;
      cn.p_en = analyzer_->signal_prob(cn.mask);
      cn.p_tr = analyzer_->transition_prob(cn.mask);
    }
    cn.cp_dist = geom::manhattan_dist(opts_.control_point, cn.tap.ms.center());
    finish_candidate(cn);

    ca.alive = false;
    cb.alive = false;
    deactivate(a);
    deactivate(b);
    if (indexed_)
      index_post_merge(id);
    else
      rescan_post_merge(id);
  }

  BuildOptions opts_;
  const activity::ActivityAnalyzer* analyzer_;
  ct::Topology topo_;
  bool indexed_;     ///< partner index armed (geometric costs)
  double tie_eps_;   ///< ActivityOnly distance tie epsilon (bbox-scaled)
  std::vector<Candidate> cands_;
  std::vector<BestPartner> best_;
  std::vector<int> active_;  ///< live node ids (order mutates via swap-remove)
  std::vector<int> pos_;     ///< node id -> index in active_ (-1 when dead)
  // Indexed engine state (unused by the rescan path).
  PartnerIndex index_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapEntryAfter>
      heap_;
};

}  // namespace

BuildResult build_topology_taps(std::span<const TapSeed> seeds,
                                const activity::ActivityAnalyzer* analyzer,
                                const BuildOptions& opts) {
  if (seeds.empty()) return BuildResult{ct::Topology(0), {}, {}, {}};
  if (seeds.size() == 1) {
    BuildResult out{ct::Topology(1), {}, {}, {}};
    if (analyzer) {
      out.mask.push_back(seeds[0].mask);
      out.p_en.push_back(analyzer->signal_prob(out.mask[0]));
      out.p_tr.push_back(analyzer->transition_prob(out.mask[0]));
    }
    return out;
  }
  GreedyEngine engine(seeds, analyzer, opts);
  return engine.run();
}

BuildResult build_topology_seeded(std::span<const SeedSink> seeds,
                                  const activity::ActivityAnalyzer* analyzer,
                                  const BuildOptions& opts) {
  std::vector<TapSeed> taps;
  taps.reserve(seeds.size());
  for (const SeedSink& s : seeds) {
    TapSeed t;
    t.tap.ms = geom::TiltedRect::from_point(s.sink.loc);
    t.tap.delay = 0.0;
    t.tap.cap = s.sink.cap;
    t.mask = s.mask;
    taps.push_back(std::move(t));
  }
  return build_topology_taps(taps, analyzer, opts);
}

BuildResult build_topology(std::span<const ct::Sink> sinks,
                           const activity::ActivityAnalyzer* analyzer,
                           std::span<const int> leaf_module,
                           const BuildOptions& opts) {
  std::vector<SeedSink> seeds;
  seeds.reserve(sinks.size());
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    SeedSink s{sinks[i], activity::ActivationMask()};
    if (analyzer) s.mask = analyzer->module_mask(leaf_module[i]);
    seeds.push_back(std::move(s));
  }
  return build_topology_seeded(seeds, analyzer, opts);
}

std::vector<int> identity_modules(int num_sinks) {
  std::vector<int> ids(static_cast<std::size_t>(num_sinks));
  for (int i = 0; i < num_sinks; ++i) ids[static_cast<std::size_t>(i)] = i;
  return ids;
}

TopologyActivity annotate_topology(const ct::Topology& topo,
                                   const activity::ActivityAnalyzer& analyzer,
                                   std::span<const int> leaf_module) {
  const int n = topo.num_nodes();
  TopologyActivity act;
  act.mask.assign(static_cast<std::size_t>(n),
                  activity::ActivationMask(analyzer.num_instructions()));
  act.p_en.assign(static_cast<std::size_t>(n), 0.0);
  act.p_tr.assign(static_cast<std::size_t>(n), 0.0);
  for (int id = 0; id < n; ++id) {  // ids ascend bottom-up
    const ct::TreeNode& node = topo.node(id);
    auto& mask = act.mask[static_cast<std::size_t>(id)];
    if (node.is_leaf()) {
      mask = analyzer.module_mask(leaf_module[static_cast<std::size_t>(id)]);
    } else {
      mask = act.mask[static_cast<std::size_t>(node.left)] |
             act.mask[static_cast<std::size_t>(node.right)];
    }
    act.p_en[static_cast<std::size_t>(id)] = analyzer.signal_prob(mask);
    act.p_tr[static_cast<std::size_t>(id)] = analyzer.transition_prob(mask);
  }
  return act;
}

}  // namespace gcr::cts
