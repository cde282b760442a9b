/// \file serve_workload.cpp
/// The serve_eco workload: a long-lived BatchService (2 lanes, topology at
/// one thread, one submitter) on a 16,384-sink base design. One op is one
/// 8-request batch, from the first submit to every outcome collected and
/// every Done tree written, as `gcr_serve --reqs ... --trees` does. Each
/// batch holds
///   * 5 single-sink-move ECOs, each a result-cache miss (the pool of
///     kEcoPool deltas cycles slower than the result cache turns over);
///   * 2 exact repeats of the previous batch's first two ECOs (hits);
///   * 1 cold 2,048-sink design from a pool larger than the design cache
///     (a design miss, a result miss and an eviction).

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>

#include "eco/incremental.h"
#include "io/delta_io.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "perfbench.h"

namespace gcr::perfbench {

namespace {

constexpr int kEcoPool = 30;
constexpr int kColdPool = 4;
constexpr int kEcosPerBatch = 5;
constexpr int kLanes = 2;
constexpr std::size_t kDesignCache = 2;   ///< base + the current cold design
/// Fits the last two batches' 12 inserts plus the base (repeats hit) but
/// not the 36 of a whole ECO cycle (every ECO misses again).
constexpr std::size_t kResultCache = 16;
constexpr int kSetups = 3;
/// Batches that visit every ECO and cold design at least once, so
/// swcap_pf averages the same distinct outputs on every run.
constexpr std::size_t kMinBatches = 12;

struct Sizes {
  int base_n;
  int cold_n;
};

/// One request the service sees, with its reference output.
struct Expected {
  std::string bytes;
  double swcap_pf{0.0};
  double gates_kept_frac{0.0};
  std::uintmax_t bytes_in{0};  ///< bytes of the files serving it reads
};

struct Setup {
  Reference base;
  std::vector<eco::DesignDelta> deltas;
  std::vector<DesignFiles> cold_files;
  std::vector<io::RouteRequest> reqs;  ///< [0] base, then ECOs, then cold
  std::map<std::string, Expected> expected;
  std::unique_ptr<serve::BatchService> svc;
};

const io::RouteRequest& eco_req(const Setup& s, int i) {
  return s.reqs[static_cast<std::size_t>(1 + i % kEcoPool)];
}
const io::RouteRequest& cold_req(const Setup& s, int i) {
  return s.reqs[static_cast<std::size_t>(1 + kEcoPool + i % kColdPool)];
}

/// Batch b in submit order; the ECO indices it runs go to `*ecos`.
std::vector<io::RouteRequest> batch(const Setup& s, int b,
                                    std::vector<int>* ecos) {
  ecos->clear();
  for (int j = 0; j < kEcosPerBatch; ++j)
    ecos->push_back((kEcosPerBatch * b + j) % kEcoPool);
  const int prev = kEcosPerBatch * (b - 1) + kEcoPool;  // b = 0 wraps
  return {eco_req(s, (*ecos)[0]), cold_req(s, b),    eco_req(s, (*ecos)[1]),
          eco_req(s, prev),       eco_req(s, (*ecos)[2]),
          eco_req(s, (*ecos)[3]), eco_req(s, prev + 1),
          eco_req(s, (*ecos)[4])};
}

serve::ServeOptions serve_options() {
  serve::ServeOptions sopts;
  sopts.workers = kLanes;
  sopts.route_threads = 1;
  sopts.design_cache_capacity = kDesignCache;
  sopts.result_cache_capacity = kResultCache;
  return sopts;
}

/// Submit a batch and collect its outcomes, untraced and untimed (setup).
std::vector<serve::RequestOutcome> serve_untimed(
    serve::BatchService& svc, const std::vector<io::RouteRequest>& reqs) {
  for (const io::RouteRequest& r : reqs) (void)svc.submit(r);
  svc.wait_idle();
  return svc.take_outcomes();
}

std::unique_ptr<Setup> set_up(const RunOptions& o, const Sizes& sz,
                              const core::RouterOptions& ropts) {
  // Fixed designs, relabeled by the seed; the seed also picks the ECOs.
  const std::uint64_t seed = o.seed;
  auto s = std::make_unique<Setup>();
  const core::Design base =
      relabel_sinks(make_design(sz.base_n, 32, 8000, 37), seed);
  const DesignFiles base_files = write_design(base, o.work_dir, "base");
  const std::uintmax_t base_bytes = base_files.bytes();
  s->base = reference_route(base_files, ropts);

  io::RouteRequest req;
  req.id = "base";
  req.sinks = base_files.sinks;
  req.rtl = base_files.rtl;
  req.stream = base_files.stream;
  std::vector<io::RouteRequest> reqs{req};

  // ECO requests: their files, then their references (route_incremental on
  // the reference base).
  std::vector<eco::DesignDelta> moves = sink_moves(base, kEcoPool, seed);
  for (int i = 0; i < kEcoPool; ++i) {
    io::RouteRequest r = req;
    r.id = "eco_" + std::to_string(i);
    r.eco = write_delta_file(moves[static_cast<std::size_t>(i)],
                             o.work_dir + "/" + r.id + ".delta");
    std::ifstream is(r.eco);
    s->deltas.push_back(io::read_delta(is));
    const core::RouteOutcome eo = eco::route_incremental(
        *s->base.router, s->base.result, s->deltas.back(), ropts);
    if (!eo.ok())
      throw std::runtime_error("reference ECO failed: " +
                               eo.diag.first_error().to_string());
    s->expected[r.id] = {tree_bytes(eo.result->tree),
                         eo.result->swcap.total_swcap(),
                         gates_kept_frac(eo.result->tree),
                         base_bytes + std::filesystem::file_size(r.eco)};
    reqs.push_back(std::move(r));
  }
  for (int i = 0; i < kColdPool; ++i) {
    const std::string id = "cold_" + std::to_string(i);
    const core::Design d = relabel_sinks(
        make_design(sz.cold_n, 32, 8000, 38 + static_cast<std::uint64_t>(i)),
        seed + 1 + static_cast<std::uint64_t>(i));
    s->cold_files.push_back(write_design(d, o.work_dir, id));
    const Reference ref = reference_route(s->cold_files.back(), ropts);
    s->expected[id] = {ref.bytes, ref.result.swcap.total_swcap(),
                       gates_kept_frac(ref.result.tree),
                       s->cold_files.back().bytes()};
    io::RouteRequest r;
    r.id = id;
    r.sinks = s->cold_files.back().sinks;
    r.rtl = s->cold_files.back().rtl;
    r.stream = s->cold_files.back().stream;
    reqs.push_back(std::move(r));
  }
  s->reqs = write_and_read_reqs(reqs, o.work_dir + "/serve.reqs");

  // Warm the service: the base route, then one whole batch (so batch 1's
  // repeats are hits).
  s->svc = std::make_unique<serve::BatchService>(serve_options());
  s->svc->start();
  std::vector<serve::RequestOutcome> warm =
      serve_untimed(*s->svc, {s->reqs[0]});
  std::vector<int> ecos;
  for (serve::RequestOutcome& out : serve_untimed(*s->svc, batch(*s, 0, &ecos)))
    warm.push_back(std::move(out));
  for (const serve::RequestOutcome& out : warm)
    if (!out.ok())
      throw std::runtime_error("warm-up request " + out.id + " failed: " +
                               out.message);
  return s;
}

/// verify::verify_result once on every distinct output: the base, each
/// post-ECO design and each cold design.
void verify_outputs(const Setup& s, const core::RouterOptions& ropts) {
  verify_or_throw(*s.base.router, ropts, s.base.result, "base");
  for (std::size_t i = 0; i < s.deltas.size(); ++i) {
    const core::RouteOutcome eo = eco::route_incremental(
        *s.base.router, s.base.result, s.deltas[i], ropts);
    const core::GatedClockRouter post(
        eco::apply_delta(s.base.router->design(), s.deltas[i]));
    verify_or_throw(post, ropts, *eo.result, "eco_" + std::to_string(i));
  }
  for (std::size_t i = 0; i < s.cold_files.size(); ++i) {
    const Reference ref = reference_route(s.cold_files[i], ropts);
    verify_or_throw(*ref.router, ropts, ref.result,
                    "cold_" + std::to_string(i));
  }
}

/// Write every Done tree once per id, as gcr_serve --trees does; returns
/// the bytes written per id.
std::map<std::string, std::string> write_trees(
    const std::vector<serve::RequestOutcome>& outs, const std::string& dir,
    Tracer* tr) {
  std::map<std::string, std::string> written;
  for (const serve::RequestOutcome& o : outs) {
    if (!o.ok() || o.result == nullptr || written.count(o.id) > 0) continue;
    const auto write = [&] {
      std::string b = tree_bytes(o.result->tree);
      return write_file(dir + "/" + o.id + ".tree", b) ? b : std::string();
    };
    written[o.id] = tr != nullptr ? tr->span("io.write_tree", write) : write();
  }
  return written;
}

/// Requests of the batch that finished Done with the reference bytes.
int count_correct(const Setup& s,
                  const std::vector<serve::RequestOutcome>& outs,
                  const std::map<std::string, std::string>& written,
                  std::set<std::string>& produced) {
  int good = 0;
  for (const serve::RequestOutcome& o : outs) {
    const auto w = written.find(o.id);
    const auto e = s.expected.find(o.id);
    if (!o.ok() || w == written.end() || e == s.expected.end() ||
        w->second != e->second.bytes)
      continue;
    ++good;
    produced.insert(o.id);
  }
  return good;
}

/// The serial replays beside one traced batch: each of its ECOs through
/// route_incremental under an obs session (whose existing phase timers
/// split the ECO into topology / embed / reduce / eval / delays), and the
/// cold design through the layer-by-layer route.
void replay_layers(const Setup& s, const std::vector<int>& ecos, int b,
                   const core::RouterOptions& ropts, const std::string& dir,
                   double lane_ms, Tracer& tr, LayerSamples& layers) {
  double eco_ms = 0.0;
  double spine = 0.0;
  double preserved = 0.0;
  double cone = 0.0;
  std::map<std::string, double> phases;
  for (const int e : ecos) {
    obs::Session session;
    eco::EcoInfo info;
    const Clock::time_point t0 = Clock::now();
    const core::RouteOutcome eo = [&] {
      const obs::Bind bind(&session);
      return tr.span("eco.route_incremental", [&] {
        return eco::route_incremental(*s.base.router, s.base.result,
                                      s.deltas[static_cast<std::size_t>(e)],
                                      ropts, &info);
      });
    }();
    eco_ms += ms_between(t0, Clock::now());
    if (!eo.ok() || tree_bytes(eo.result->tree) !=
                        s.expected.at("eco_" + std::to_string(e)).bytes)
      throw std::runtime_error("ECO replay differs from its reference");
    spine += info.spine_merges;
    preserved += info.preserved_merges;
    cone += static_cast<double>(std::count(info.in_cone.begin(),
                                           info.in_cone.end(), true)) /
            static_cast<double>(info.in_cone.size());
    for (const char* p : {"topology", "embed", "delays", "reduce", "eval"})
      phases[p] += phase_ms(session.timers().root(), p);
  }

  tr.reset_sums();
  const int cold = b % kColdPool;
  const RouteOutput out = tr.span("replay.cold", [&] {
    return route_files_traced(s.cold_files[static_cast<std::size_t>(cold)],
                              ropts, dir + "/replay.tree", tr);
  });
  if (!out.ok || out.bytes != s.expected.at("cold_" + std::to_string(cold)).bytes)
    throw std::runtime_error(
        "the traced layer-by-layer route wrote different bytes than "
        "route_guarded: the layer split no longer describes the program");

  layers.add("io.read_sinks_ms", tr.op_ms("io.read_sinks"));
  layers.add("io.read_rtl_ms", tr.op_ms("io.read_rtl"));
  layers.add("io.read_stream_ms", tr.op_ms("io.read_stream"));
  layers.add("guard.validate_ms", tr.op_ms("guard.validate"));
  layers.add("activity.analyze_ms", tr.op_ms("activity.analyze"));
  layers.add("cts.build_ms", tr.op_ms("cts.build_topology") + phases["topology"]);
  layers.add("clocktree.embed_ms", tr.op_ms("clocktree.embed") + phases["embed"]);
  layers.add("clocktree.elmore_ms",
             tr.op_ms("clocktree.elmore") + phases["delays"]);
  layers.add("gating.reduce_ms", tr.op_ms("gating.reduce") + phases["reduce"]);
  layers.add("gating.swcap_ms", tr.op_ms("gating.swcap") + phases["eval"]);
  layers.add("core.route_ms", tr.op_ms("core.route"));
  layers.add("eco.incremental_ms", eco_ms);
  layers.add("eco.spine_merges", spine);
  layers.add("eco.preserved_merges", preserved);
  layers.add("eco.cone_frac", cone / static_cast<double>(ecos.size()));
  // Lane time the replayed layer calls do not explain: reading and hashing
  // request files, cache lookups, delta parsing, lane contention.
  const double cold_work = tr.op_ms("io.read_sinks") + tr.op_ms("io.read_rtl") +
                           tr.op_ms("io.read_stream") +
                           tr.op_ms("guard.validate") +
                           tr.op_ms("activity.analyze") + tr.op_ms("core.route");
  layers.add("core.unattributed_ms", lane_ms - cold_work - eco_ms);
}

}  // namespace

RunResult run_serve_eco(const RunOptions& o) {
  const Sizes sz = o.smoke ? Sizes{1024, 256} : Sizes{16384, 2048};
  const core::RouterOptions ropts = route_options();
  const std::string tree_dir = o.work_dir + "/trees";
  std::filesystem::create_directories(tree_dir);
  LoopStats st;
  std::unique_ptr<Setup> s;
  for (int i = 0; i < (o.trace ? 1 : kSetups); ++i) {
    s.reset();
    const Clock::time_point t0 = Clock::now();
    s = set_up(o, sz, ropts);
    st.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  verify_outputs(*s, ropts);

  RunResult res;
  Tracer tr;
  LayerSamples layers;
  std::set<std::string> produced;
  std::vector<int> ecos;
  const Clock::time_point start = Clock::now();
  bool traced = false;
  for (int b = 1;; ++b, traced = o.trace && !traced) {
    const std::size_t done = st.plain_ms.size() + st.traced_ms.size();
    const bool enough = done >= kMinBatches &&
                        (!o.trace || st.traced_ms.size() >= kMinBatches / 2);
    if (enough && ms_between(start, Clock::now()) >= o.seconds * 1000.0) break;
    const std::vector<io::RouteRequest> reqs = batch(*s, b, &ecos);
    // A fresh tree directory per batch, as a new gcr_serve --trees run
    // would use, removed after the check: rewriting the same files would
    // have ext4 flush the replaced blocks on close (auto_da_alloc).
    const std::string batch_dir = tree_dir + "/b" + std::to_string(b);
    std::filesystem::create_directory(batch_dir);
    std::vector<serve::RequestOutcome> outs;
    std::map<std::string, std::string> written;
    double op_ms = 0.0;
    if (traced) {
      obs::set_metrics_enabled(true);
      const Counters c0 = snapshot_counters();
      const serve::ServeStats s0 = s->svc->stats();
      tr.begin_op("serve.batch");
      const Clock::time_point t0 = Clock::now();
      for (const io::RouteRequest& r : reqs)
        (void)tr.span("serve.submit", [&] { return s->svc->submit(r); });
      tr.span("serve.wait_idle", [&] { s->svc->wait_idle(); });
      const double makespan = ms_between(t0, Clock::now());
      outs = tr.span("serve.take_outcomes",
                     [&] { return s->svc->take_outcomes(); });
      written = write_trees(outs, batch_dir, &tr);
      op_ms = tr.end_op();
      const Counters c1 = snapshot_counters();
      const serve::ServeStats s1 = s->svc->stats();
      obs::set_metrics_enabled(false);
      st.traced_ms.push_back(op_ms);

      double lane_ms = 0.0;
      double bytes_in = 0.0;
      double bytes_out = 0.0;
      double kept = 0.0;
      for (const serve::RequestOutcome& out : outs) {
        lane_ms += out.elapsed_ms;
        const Expected& e = s->expected.at(out.id);
        bytes_in += static_cast<double>(e.bytes_in);
        kept += e.gates_kept_frac;
      }
      for (const auto& [id, bytes] : written)
        bytes_out += static_cast<double>(bytes.size());
      layers.add("io.write_tree_ms", tr.op_ms("io.write_tree"));
      layers.add("io.bytes_in", bytes_in);
      layers.add("io.bytes_out", bytes_out);
      layers.add("gating.gates_kept_frac",
                 kept / static_cast<double>(std::max<std::size_t>(1, outs.size())));
      layers.add("clocktree.embed_passes", counter_delta(c0, c1, "embed.passes"));
      add_counter_layers(c0, c1, layers);
      add_serve_layers(outs, s0, s1, kLanes, makespan, layers);
      replay_layers(*s, ecos, b, ropts, batch_dir, lane_ms, tr, layers);
    } else {
      const Clock::time_point t0 = Clock::now();
      for (const io::RouteRequest& r : reqs) (void)s->svc->submit(r);
      s->svc->wait_idle();
      outs = s->svc->take_outcomes();
      written = write_trees(outs, batch_dir, nullptr);
      op_ms = ms_between(t0, Clock::now());
      st.plain_ms.push_back(op_ms);
    }
    ++res.attempted;
    const int ok = count_correct(*s, outs, written, produced);
    if (ok != static_cast<int>(reqs.size())) {
      ++res.failed;
    } else if (!traced) {
      st.good_requests += ok;
      st.good_ms += op_ms;
    }
    std::filesystem::remove_all(batch_dir);
  }
  s->svc->drain();

  for (const std::string& id : produced)
    st.swcap_pf += s->expected.at(id).swcap_pf;
  st.swcap_pf /= static_cast<double>(std::max<std::size_t>(1, produced.size()));
  res.notes.push_back("distinct outputs: " + std::to_string(produced.size()));
  report(o, st, layers, tr, res);
  return res;
}

}  // namespace gcr::perfbench
