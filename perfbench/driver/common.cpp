#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>

#include "benchdata/rbench.h"
#include "benchdata/workload.h"
#include "clocktree/elmore.h"
#include "clocktree/embed.h"
#include "cts/greedy.h"
#include "gating/controller.h"
#include "gating/gate_reduction.h"
#include "gating/swcap.h"
#include "guard/validate.h"
#include "io/delta_io.h"
#include "io/reqs_io.h"
#include "io/text_io.h"
#include "io/tree_io.h"
#include "obs/metrics.h"
#include "perfbench.h"
#include "verify/invariants.h"

namespace gcr::perfbench {

// --- statistics -----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/// Nearest-rank percentile `p` in [0, 100] of a non-empty sample.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * n)));
  return v[std::min(rank, v.size()) - 1];
}

/// The op-time tail: the highest percentile up to p90 that still has at
/// least ten ops beyond it, never below the median. Stores the percentile
/// used in `*pct`.
double op_tail(const std::vector<double>& ops_ms, double* pct) {
  // Nearest rank r (1-based) leaves n - r samples beyond it; keep >= 10.
  const double n = static_cast<double>(ops_ms.size());
  const double p_ten_beyond = 100.0 * (n - 10.0) / n;
  *pct = std::clamp(std::floor(p_ten_beyond), 50.0, 90.0);
  return *pct == 50.0 ? median(ops_ms) : percentile(ops_ms, *pct);
}

/// The layer metrics every workload prints under --trace 1, in order.
const std::vector<std::pair<std::string, std::string>>& layer_metric_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"io.read_sinks_ms", "ms"},       {"io.read_rtl_ms", "ms"},
      {"io.read_stream_ms", "ms"},      {"io.bytes_in", "bytes"},
      {"io.write_tree_ms", "ms"},       {"io.bytes_out", "bytes"},
      {"guard.validate_ms", "ms"},      {"activity.analyze_ms", "ms"},
      {"activity.queries", "count"},    {"cts.build_ms", "ms"},
      {"cts.merges", "count"},          {"cts.index_queries", "count"},
      {"cts.candidate_evals", "count"}, {"cts.index_bucket_skips", "count"},
      {"cts.queries_per_merge", "ratio"},
      {"cts.evals_per_query", "ratio"}, {"clocktree.embed_ms", "ms"},
      {"clocktree.embed_passes", "count"},
      {"clocktree.elmore_ms", "ms"},    {"gating.reduce_ms", "ms"},
      {"gating.swcap_ms", "ms"},        {"gating.gates_kept_frac", "ratio"},
      {"eco.incremental_ms", "ms"},     {"eco.spine_merges", "count"},
      {"eco.preserved_merges", "count"},
      {"eco.cone_frac", "ratio"},       {"serve.lane_ms_p50", "ms"},
      {"serve.lane_busy_frac", "ratio"},
      {"serve.design_hit_ratio", "ratio"},
      {"serve.result_hit_ratio", "ratio"},
      {"serve.evictions", "count"},     {"serve.shed", "count"},
      {"core.route_ms", "ms"},          {"core.unattributed_ms", "ms"},
      {"trace_overhead_pct", "%"},
  };
  return names;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

void report(const RunOptions& o, const LoopStats& st, LayerSamples& layers,
            const Tracer& tr, RunResult& res) {
  res.correct = res.failed == 0;
  const double plain = median(st.plain_ms);
  if (o.trace) {
    layers.add("trace_overhead_pct",
               100.0 * (median(st.traced_ms) - plain) / plain);
    for (const auto& [name, unit] : layer_metric_names())
      res.add(name, unit, layers.median_of(name));
    res.notes.push_back("traced ops: " + std::to_string(st.traced_ms.size()) +
                        ", untraced ops: " + std::to_string(st.plain_ms.size()));
    if (!o.spans_out.empty() && !tr.write_json(o.spans_out))
      throw std::runtime_error("cannot write " + o.spans_out);
    return;
  }
  double tail_pct = 0.0;
  const double tail = op_tail(st.plain_ms, &tail_pct);
  res.add("op_ms_p50", "ms", plain);
  res.add("op_ms_p90", "ms", tail);
  res.add("req_per_s", "1/s",
          st.good_ms > 0.0 ? st.good_requests / (st.good_ms / 1000.0) : 0.0);
  res.add("ok_frac", "ratio",
          static_cast<double>(res.attempted - res.failed) / res.attempted);
  res.add("swcap_pf", "pF", st.swcap_pf);
  res.add("peak_rss_mb", "MiB", peak_rss_mib());
  res.add("setup_s", "s", median(st.setup_s));
  res.notes.push_back("ops: " + std::to_string(st.plain_ms.size()) +
                      "; op_ms_p90 reports p" +
                      std::to_string(static_cast<int>(tail_pct)));
}

// --- inputs ---------------------------------------------------------------

core::Design make_design(int n, int k, int stream_length, std::uint64_t seed) {
  const double side = 1200.0 * std::sqrt(static_cast<double>(n));
  benchdata::RBench rb = benchdata::generate_rbench(
      benchdata::RBenchSpec{"perfbench", n, side, 0.005, 0.08, seed});
  benchdata::WorkloadSpec w;
  w.num_instructions = k;
  w.num_clusters = std::max(16, n / 32);
  w.target_activity = 0.4;
  w.in_cluster_use = 0.9;
  w.locality = 0.85;
  w.stream_length = stream_length;
  w.seed = seed;
  benchdata::Workload wl = benchdata::generate_workload(w, rb.sinks, rb.die);
  return core::Design{rb.die, std::move(rb.sinks), std::move(wl.rtl),
                      std::move(wl.stream), {}};
}

core::Design relabel_sinks(const core::Design& d, std::uint64_t seed) {
  const int n = d.num_sinks();
  const int k = d.rtl.num_instructions();
  std::vector<int> old_of(static_cast<std::size_t>(n));
  std::iota(old_of.begin(), old_of.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(old_of.begin(), old_of.end(), rng);
  core::Design out{d.die, {}, activity::RtlDescription(k, n), d.stream, {}};
  out.sinks.reserve(d.sinks.size());
  for (int j = 0; j < n; ++j) {
    const int old = old_of[static_cast<std::size_t>(j)];
    out.sinks.push_back(d.sinks[static_cast<std::size_t>(old)]);
    for (int i = 0; i < k; ++i)
      if (d.rtl.uses(i, old)) out.rtl.add_use(i, j);
  }
  return out;
}

std::uintmax_t DesignFiles::bytes() const {
  return std::filesystem::file_size(sinks) + std::filesystem::file_size(rtl) +
         std::filesystem::file_size(stream);
}

DesignFiles write_design(const core::Design& d, const std::string& dir,
                         const std::string& stem) {
  DesignFiles f{dir + "/" + stem + ".sinks", dir + "/" + stem + ".rtl",
                dir + "/" + stem + ".stream"};
  std::ofstream sf(f.sinks);
  io::write_sinks(sf, d.die, d.sinks);
  std::ofstream rf(f.rtl);
  io::write_rtl(rf, d.rtl);
  std::ofstream tf(f.stream);
  io::write_stream(tf, d.stream);
  if (!sf || !rf || !tf)
    throw std::runtime_error("cannot write the inputs of " + stem);
  return f;
}

std::vector<eco::DesignDelta> sink_moves(const core::Design& d, int count,
                                         std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int> order(d.sinks.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  const double mx = 0.05 * d.die.width();
  const double my = 0.05 * d.die.height();
  std::uniform_real_distribution<double> ux(d.die.xlo + mx, d.die.xhi - mx);
  std::uniform_real_distribution<double> uy(d.die.ylo + my, d.die.yhi - my);
  std::vector<eco::DesignDelta> out(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double x = ux(rng);
    const double y = uy(rng);
    out[static_cast<std::size_t>(i)].moves.push_back(
        {order[static_cast<std::size_t>(i) % order.size()], {x, y}});
  }
  return out;
}

std::string write_delta_file(const eco::DesignDelta& delta,
                             const std::string& path) {
  std::ofstream os(path);
  io::write_delta(os, delta);
  if (!os) throw std::runtime_error("cannot write " + path);
  return path;
}

std::vector<io::RouteRequest> write_and_read_reqs(
    const std::vector<io::RouteRequest>& reqs, const std::string& path) {
  {
    std::ofstream os(path);
    io::write_reqs(os, reqs);
    if (!os) throw std::runtime_error("cannot write " + path);
  }
  std::ifstream is(path);
  guard::Diag diag;
  std::optional<std::vector<io::RouteRequest>> parsed =
      io::read_reqs(is, diag, path);
  if (!parsed)
    throw std::runtime_error("cannot parse " + path + ": " +
                             diag.first_error().to_string());
  return std::move(*parsed);
}

core::RouterOptions route_options() {
  core::RouterOptions opts;
  opts.style = core::TreeStyle::GatedReduced;
  opts.topology = core::TopologyScheme::MinSwitchedCap;
  opts.num_threads = 1;
  return opts;
}

std::string tree_bytes(const ct::RoutedTree& tree) {
  std::ostringstream os;
  io::write_routed_tree(os, tree);
  return std::move(os).str();
}

bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(os);
}

double gates_kept_frac(const ct::RoutedTree& tree) {
  const int edges = tree.num_nodes() - 1;  // every non-root edge starts gated
  return edges > 0 ? static_cast<double>(tree.num_gates()) / edges : 0.0;
}

// --- tracing --------------------------------------------------------------

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

int Tracer::open(const char* name) {
  Span s;
  s.op = op_;
  s.id = static_cast<int>(spans_.size());
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.name = name;
  if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].leaf = false;
  s.start_us = now_us();
  spans_.push_back(s);
  stack_.push_back(s.id);
  return s.id;
}

void Tracer::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_us = now_us();
  stack_.pop_back();
  op_ms_[s.name] += (s.end_us - s.start_us) / 1000.0;
  ++op_calls_[s.name];
}

void Tracer::begin_op(const char* name) {
  ++op_;
  reset_sums();
  op_first_ = spans_.size();
  (void)open(name);
}

double Tracer::end_op() {
  const int root = static_cast<int>(op_first_);
  close(root);
  const Span& s = spans_[op_first_];
  return (s.end_us - s.start_us) / 1000.0;
}

double Tracer::op_ms(const std::string& name) const {
  const auto it = op_ms_.find(name);
  return it == op_ms_.end() ? 0.0 : it->second;
}

int Tracer::op_calls(const std::string& name) const {
  const auto it = op_calls_.find(name);
  return it == op_calls_.end() ? 0 : it->second;
}

double Tracer::op_leaf_ms() const {
  double sum = 0.0;
  for (std::size_t i = op_first_; i < spans_.size(); ++i)
    if (spans_[i].leaf) sum += (spans_[i].end_us - spans_[i].start_us) / 1000.0;
  return sum;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream os(path);
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
       << ",\"ts\":" << s.start_us << ",\"dur\":" << (s.end_us - s.start_us)
       << ",\"args\":{\"op\":" << s.op << ",\"id\":" << s.id
       << ",\"parent\":" << s.parent << "}}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
  return static_cast<bool>(os);
}

Counters snapshot_counters() {
  Counters c;
  for (const auto& e : obs::Registry::global().counters()) c[e.name] = e.value;
  return c;
}

double counter_delta(const Counters& before, const Counters& after,
                     const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  const std::uint64_t va = a == after.end() ? 0 : a->second;
  const std::uint64_t vb = b == before.end() ? 0 : b->second;
  return static_cast<double>(va - vb);
}

double phase_ms(const obs::PhaseStats& node, const std::string& name) {
  double sum = node.name == name ? node.total_ms : 0.0;
  for (const auto& c : node.children) sum += phase_ms(*c, name);
  return sum;
}

double LayerSamples::median_of(const std::string& name) const {
  const auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : median(it->second);
}

void add_serve_layers(const std::vector<serve::RequestOutcome>& outcomes,
                      const serve::ServeStats& before,
                      const serve::ServeStats& after, int lanes,
                      double makespan_ms, LayerSamples& out) {
  std::vector<double> lane_ms;
  double busy_ms = 0.0;
  for (const serve::RequestOutcome& o : outcomes) {
    lane_ms.push_back(o.elapsed_ms);
    busy_ms += o.elapsed_ms;
  }
  const auto ratio = [](std::uint64_t hits, std::uint64_t lookups) {
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  };
  const serve::CacheStats& d0 = before.design_cache;
  const serve::CacheStats& d1 = after.design_cache;
  const serve::CacheStats& r0 = before.result_cache;
  const serve::CacheStats& r1 = after.result_cache;
  out.add("serve.lane_ms_p50", median(lane_ms));
  out.add("serve.lane_busy_frac", busy_ms / (lanes * makespan_ms));
  out.add("serve.design_hit_ratio",
          ratio(d1.hits - d0.hits,
                d1.hits - d0.hits + d1.misses - d0.misses));
  out.add("serve.result_hit_ratio",
          ratio(r1.hits - r0.hits,
                r1.hits - r0.hits + r1.misses - r0.misses));
  out.add("serve.evictions",
          static_cast<double>(d1.evictions - d0.evictions + r1.evictions -
                              r0.evictions));
  out.add("serve.shed", static_cast<double>(after.shed - before.shed));
}

void add_eco_layers(double incremental_ms, const eco::EcoInfo& info,
                    LayerSamples& out) {
  const auto in_cone = static_cast<double>(
      std::count(info.in_cone.begin(), info.in_cone.end(), true));
  out.add("eco.incremental_ms", incremental_ms);
  out.add("eco.spine_merges", info.spine_merges);
  out.add("eco.preserved_merges", info.preserved_merges);
  out.add("eco.cone_frac",
          info.in_cone.empty() ? 0.0 : in_cone / info.in_cone.size());
}

void add_counter_layers(const Counters& before, const Counters& after,
                        LayerSamples& out) {
  const auto d = [&](const char* name) {
    return counter_delta(before, after, name);
  };
  const double merges = d("cts.merges");
  const double queries = d("cts.index_queries");
  const double evals = d("cts.candidate_evals");
  out.add("activity.queries", d("activity.signal_prob_queries") +
                                  d("activity.transition_prob_queries"));
  out.add("cts.merges", merges);
  out.add("cts.index_queries", queries);
  out.add("cts.candidate_evals", evals);
  out.add("cts.index_bucket_skips", d("cts.index_bucket_skips"));
  out.add("cts.queries_per_merge", merges > 0 ? queries / merges : 0.0);
  out.add("cts.evals_per_query", queries > 0 ? evals / queries : 0.0);
}

// --- the route path -------------------------------------------------------

namespace {

/// Read the three files the way gcr_route does; nullopt on any error.
template <typename Wrap>
std::optional<core::Design> read_design(const DesignFiles& f, Wrap&& wrap) {
  guard::Diag diag;
  std::optional<io::SinksFile> sinks = wrap("io.read_sinks", [&] {
    std::ifstream is(f.sinks);
    return is ? io::read_sinks(is, diag, f.sinks) : std::nullopt;
  });
  std::optional<activity::RtlDescription> rtl = wrap("io.read_rtl", [&] {
    std::ifstream is(f.rtl);
    return is ? io::read_rtl(is, diag, f.rtl) : std::nullopt;
  });
  std::optional<activity::InstructionStream> stream =
      wrap("io.read_stream", [&] {
        std::ifstream is(f.stream);
        return is ? io::read_stream(is, diag, f.stream) : std::nullopt;
      });
  if (!sinks || !rtl || !stream) return std::nullopt;
  core::Design d{sinks->die, std::move(sinks->sinks), std::move(*rtl),
                 std::move(*stream), {}};
  // Strict validation before the router exists, as in gcr_route.
  if (!wrap("guard.validate",
            [&] { return guard::validate_design(d, diag); }))
    return std::nullopt;
  return d;
}

RouteOutput finish(const core::RouterResult& r, std::string bytes) {
  RouteOutput out;
  out.ok = true;
  out.bytes = std::move(bytes);
  out.swcap_pf = r.swcap.total_swcap();
  out.gates_kept_frac = gates_kept_frac(r.tree);
  return out;
}

}  // namespace

RouteOutput route_files(const DesignFiles& files,
                        const core::RouterOptions& opts,
                        const std::string& tree_path) {
  const auto direct = [](const char*, auto&& f) { return f(); };
  std::optional<core::Design> d = read_design(files, direct);
  if (!d) return {};
  const core::GatedClockRouter router(std::move(*d));
  core::RouteOutcome out = router.route_guarded(opts);
  if (!out.ok()) return {};
  std::string bytes = tree_bytes(out.result->tree);
  if (!write_file(tree_path, bytes)) return {};
  return finish(*out.result, std::move(bytes));
}

RouteOutput route_files_traced(const DesignFiles& files,
                               const core::RouterOptions& opts,
                               const std::string& tree_path, Tracer& tr) {
  const auto traced = [&tr](const char* name, auto&& f) {
    return tr.span(name, f);
  };
  std::optional<core::Design> d = read_design(files, traced);
  if (!d) return {};
  const core::GatedClockRouter router =
      tr.span("activity.analyze", [&]() -> core::GatedClockRouter {
        return core::GatedClockRouter(std::move(*d));
      });
  const core::Design& design = router.design();
  const tech::TechParams& tech = opts.tech;

  // route_guarded, one public call at a time (GatedReduced, Eq. 3 topology,
  // exact zero skew, unit gate sizing, one controller).
  std::optional<core::RouterResult> result = tr.span("core.route", [&] {
    std::optional<core::RouterResult> res;
    guard::Diag diag;
    guard::ValidateOptions vopts;
    vopts.strict = false;
    if (!tr.span("guard.validate", [&] {
          return guard::validate_design(design, diag, vopts);
        }))
      return res;
    const geom::Point cp = design.die.center();
    cts::BuildOptions bopts;
    bopts.cost = cts::MergeCost::SwitchedCapacitance;
    bopts.gated_edges = true;
    bopts.control_point = cp;
    bopts.num_threads = opts.num_threads;
    bopts.partner_index = opts.partner_index;
    bopts.tech = tech;
    const std::vector<int> leaf_module = design.resolved_sink_modules();
    cts::BuildResult built = tr.span("cts.build_topology", [&] {
      return cts::build_topology(design.sinks, &router.analyzer(), leaf_module,
                                 bopts);
    });
    gating::NodeActivity act{built.mask, built.p_en, built.p_tr};
    const gating::ControllerPlacement ctrl(design.die,
                                           opts.controller_partitions);
    std::vector<bool> gated(static_cast<std::size_t>(built.topo.num_nodes()),
                            true);
    gated[static_cast<std::size_t>(built.topo.root())] = false;
    ct::EmbedOptions eopts;
    eopts.root_hint = cp;
    eopts.sizing = opts.gate_sizing;
    const ct::RoutedTree full = tr.span("clocktree.embed", [&] {
      return ct::embed(built.topo, design.sinks, gated, tech, eopts);
    });
    gated = tr.span("gating.reduce", [&] {
      return gating::reduce_gates(full, built.p_en, tech, opts.reduction);
    });
    res.emplace();
    res->gates_before_reduction = full.num_gates();
    res->tree = tr.span("clocktree.embed", [&] {
      return ct::embed(built.topo, design.sinks, gated, tech, eopts);
    });
    res->swcap = tr.span("gating.swcap", [&] {
      return gating::evaluate_swcap(res->tree, act, ctrl, tech,
                                    gating::CellStyle::MaskingGate);
    });
    res->delays = tr.span("clocktree.elmore",
                          [&] { return ct::elmore_delays(res->tree, tech); });
    res->activity = std::move(act);
    return res;
  });
  if (!result) return {};
  std::string bytes = tr.span("io.write_tree", [&] {
    std::string b = tree_bytes(result->tree);
    return write_file(tree_path, b) ? b : std::string();
  });
  if (bytes.empty()) return {};
  return finish(*result, std::move(bytes));
}

void add_route_layers(const Tracer& tr, double op_ms, LayerSamples& out) {
  out.add("io.read_sinks_ms", tr.op_ms("io.read_sinks"));
  out.add("io.read_rtl_ms", tr.op_ms("io.read_rtl"));
  out.add("io.read_stream_ms", tr.op_ms("io.read_stream"));
  out.add("io.write_tree_ms", tr.op_ms("io.write_tree"));
  out.add("guard.validate_ms", tr.op_ms("guard.validate"));
  out.add("activity.analyze_ms", tr.op_ms("activity.analyze"));
  out.add("cts.build_ms", tr.op_ms("cts.build_topology"));
  out.add("clocktree.embed_ms", tr.op_ms("clocktree.embed"));
  out.add("clocktree.embed_passes", tr.op_calls("clocktree.embed"));
  out.add("clocktree.elmore_ms", tr.op_ms("clocktree.elmore"));
  out.add("gating.reduce_ms", tr.op_ms("gating.reduce"));
  out.add("gating.swcap_ms", tr.op_ms("gating.swcap"));
  out.add("core.route_ms", tr.op_ms("core.route"));
  out.add("core.unattributed_ms", op_ms - tr.op_leaf_ms());
}

Reference reference_route(const DesignFiles& files,
                          const core::RouterOptions& opts) {
  const auto direct = [](const char*, auto&& f) { return f(); };
  std::optional<core::Design> d = read_design(files, direct);
  if (!d) throw std::runtime_error("reference: cannot read " + files.sinks);
  Reference ref;
  ref.router = std::make_unique<core::GatedClockRouter>(std::move(*d));
  core::RouteOutcome out = ref.router->route_guarded(opts);
  if (!out.ok())
    throw std::runtime_error("reference route failed: " +
                             out.diag.first_error().to_string());
  ref.result = std::move(*out.result);
  ref.bytes = tree_bytes(ref.result.tree);
  return ref;
}

void verify_or_throw(const core::GatedClockRouter& router,
                     const core::RouterOptions& opts,
                     const core::RouterResult& result,
                     const std::string& what) {
  const verify::Report rep = verify::verify_result(router, opts, result);
  if (!rep.ok())
    throw std::runtime_error("verify_result rejected " + what + ": " +
                             rep.summary());
}

}  // namespace gcr::perfbench
