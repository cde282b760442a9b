/// \file route_workloads.cpp
/// The two route workloads. One op is one `gcr_route --tree` request: read
/// the three input files, validate, build the router, route_guarded, write
/// the tree. Closed loop, one client, topology at one thread.
///
///   route_large  16,384 sinks, K=32, 8,000-instruction stream: the Eq. 3
///                greedy and its partner index dominate the op.
///   trace_long   1,024 sinks, K=64, 4M-instruction stream (~11 MB): stream
///                parsing and the IFT/IMATT scan dominate; topology is small.

#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "eco/incremental.h"
#include "io/delta_io.h"
#include "obs/metrics.h"
#include "perfbench.h"

namespace gcr::perfbench {

namespace {

struct RouteSpec {
  const char* name;
  int n;
  int k;
  int stream_length;
  /// The design is fixed per workload; --seed relabels its sinks and picks
  /// the ECO beside the traced op.
  std::uint64_t design_seed;
};

constexpr int kSetups = 5;      ///< setup repetitions behind setup_s
constexpr std::size_t kMinOps = 3;
constexpr int kServeCopies = 8;  ///< warm serve requests in the traced run

/// Everything an op needs, built before the clock starts.
struct Setup {
  DesignFiles files;
  std::uintmax_t bytes_in{0};
  Reference ref;             ///< route_guarded on a fresh router
  eco::DesignDelta delta;    ///< one sink move, read back from its file
  std::string eco_bytes;     ///< route_incremental's tree for `delta`
  io::RouteRequest request;  ///< the op as a `.reqs` line, for the serve pass
};

std::unique_ptr<Setup> set_up(const RunOptions& o, const RouteSpec& spec,
                              const core::RouterOptions& ropts) {
  auto s = std::make_unique<Setup>();
  const core::Design d = relabel_sinks(
      make_design(spec.n, spec.k, spec.stream_length, spec.design_seed),
      o.seed);
  s->files = write_design(d, o.work_dir, spec.name);
  s->bytes_in = s->files.bytes();
  s->ref = reference_route(s->files, ropts);

  const std::string delta_path = write_delta_file(
      sink_moves(d, 1, o.seed).front(), o.work_dir + "/move.delta");
  std::ifstream is(delta_path);
  s->delta = io::read_delta(is);
  const core::RouteOutcome eo =
      eco::route_incremental(*s->ref.router, s->ref.result, s->delta, ropts);
  if (!eo.ok())
    throw std::runtime_error("reference ECO failed: " +
                             eo.diag.first_error().to_string());
  s->eco_bytes = tree_bytes(eo.result->tree);

  io::RouteRequest req;
  req.id = spec.name;
  req.sinks = s->files.sinks;
  req.rtl = s->files.rtl;
  req.stream = s->files.stream;
  s->request =
      write_and_read_reqs({req}, o.work_dir + "/" + spec.name + ".reqs")
          .front();
  return s;
}

/// Beside a traced op: one incremental single-sink-move re-route of the
/// same design, for the eco.* metrics.
void eco_beside(const Setup& s, const core::RouterOptions& ropts, Tracer& tr,
                LayerSamples& layers) {
  eco::EcoInfo info;
  const Clock::time_point t0 = Clock::now();
  const core::RouteOutcome eo = tr.span("eco.route_incremental", [&] {
    return eco::route_incremental(*s.ref.router, s.ref.result, s.delta, ropts,
                                  &info);
  });
  const double ms = ms_between(t0, Clock::now());
  if (!eo.ok() || tree_bytes(eo.result->tree) != s.eco_bytes)
    throw std::runtime_error("ECO re-route differs from its reference");
  add_eco_layers(ms, info, layers);
}

/// After the traced ops: the same request through a fresh 2-lane
/// BatchService, once cold and then kServeCopies times warm, for the
/// serve.* metrics of the warm path (read + hash + cache hit).
void serve_pass(const Setup& s, LayerSamples& layers) {
  serve::ServeOptions sopts;
  serve::BatchService svc(sopts);
  svc.start();
  (void)svc.submit(s.request);
  svc.wait_idle();
  std::vector<serve::RequestOutcome> outs = svc.take_outcomes();
  const serve::ServeStats before = svc.stats();
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kServeCopies; ++i) (void)svc.submit(s.request);
  svc.wait_idle();
  const double makespan = ms_between(t0, Clock::now());
  const std::vector<serve::RequestOutcome> warm = svc.take_outcomes();
  add_serve_layers(warm, before, svc.stats(), sopts.workers, makespan, layers);
  svc.drain();
  outs.insert(outs.end(), warm.begin(), warm.end());
  for (const serve::RequestOutcome& o : outs)
    if (!o.ok() || tree_bytes(o.result->tree) != s.ref.bytes)
      throw std::runtime_error("served tree differs from the reference");
}

RunResult run_route(const RunOptions& o, const RouteSpec& spec) {
  const core::RouterOptions ropts = route_options();
  LoopStats st;
  std::unique_ptr<Setup> s;
  for (int i = 0; i < (o.trace ? 1 : kSetups); ++i) {
    s.reset();
    const Clock::time_point t0 = Clock::now();
    s = set_up(o, spec, ropts);
    st.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  // Every op's bytes must equal the reference, so checking the reference
  // once checks every op's output.
  verify_or_throw(*s->ref.router, ropts, s->ref.result, spec.name);
  const std::string warm_path = o.work_dir + "/warm.tree";
  (void)route_files(s->files, ropts, warm_path);  // warm the page cache
  std::filesystem::remove(warm_path);

  RunResult res;
  Tracer tr;
  LayerSamples layers;
  st.swcap_pf = s->ref.result.swcap.total_swcap();  // the one distinct output
  const Clock::time_point start = Clock::now();
  for (bool traced = false;; traced = o.trace && !traced) {
    const bool enough = st.plain_ms.size() >= kMinOps &&
                        (!o.trace || st.traced_ms.size() >= kMinOps);
    if (enough && ms_between(start, Clock::now()) >= o.seconds * 1000.0) break;
    // A new file per op, removed after the check: rewriting one path would
    // have ext4 flush the replaced file's blocks on close (auto_da_alloc),
    // timing disk writeback instead of the tree write.
    const std::string tree_path =
        o.work_dir + "/op" + std::to_string(res.attempted) + ".tree";
    RouteOutput out;
    double op_ms = 0.0;
    if (traced) {
      obs::set_metrics_enabled(true);
      const Counters before = snapshot_counters();
      tr.begin_op("route.op");
      out = route_files_traced(s->files, ropts, tree_path, tr);
      op_ms = tr.end_op();
      const Counters after = snapshot_counters();
      obs::set_metrics_enabled(false);
      if (out.ok && out.bytes != s->ref.bytes)
        throw std::runtime_error(
            "the traced layer-by-layer route wrote different bytes than "
            "route_guarded: the layer split no longer describes the program");
      st.traced_ms.push_back(op_ms);
      add_route_layers(tr, op_ms, layers);
      add_counter_layers(before, after, layers);
      layers.add("gating.gates_kept_frac", out.gates_kept_frac);
      layers.add("io.bytes_in", static_cast<double>(s->bytes_in));
      layers.add("io.bytes_out", static_cast<double>(out.bytes.size()));
      eco_beside(*s, ropts, tr, layers);
    } else {
      const Clock::time_point t0 = Clock::now();
      out = route_files(s->files, ropts, tree_path);
      op_ms = ms_between(t0, Clock::now());
      st.plain_ms.push_back(op_ms);
    }
    ++res.attempted;
    if (!out.ok || out.bytes != s->ref.bytes) {
      ++res.failed;
    } else if (!traced) {
      ++st.good_requests;
      st.good_ms += op_ms;
    }
    std::filesystem::remove(tree_path);
  }
  if (o.trace) serve_pass(*s, layers);
  report(o, st, layers, tr, res);
  return res;
}

}  // namespace

RunResult run_route_large(const RunOptions& o) {
  const RouteSpec spec = o.smoke ? RouteSpec{"route_large", 512, 32, 2000, 11}
                                 : RouteSpec{"route_large", 16384, 32, 8000, 11};
  return run_route(o, spec);
}

RunResult run_trace_long(const RunOptions& o) {
  const RouteSpec spec =
      o.smoke ? RouteSpec{"trace_long", 256, 64, 40000, 23}
              : RouteSpec{"trace_long", 1024, 64, 4000000, 23};
  return run_route(o, spec);
}

}  // namespace gcr::perfbench
