/// \file gcr_bench.cpp
/// Statistical benchmark driver for the library's hot paths. Benchmarks are
/// registered under groups -- activity, io, topology, zskew, reduction,
/// route, route_par, eco, scale, serve -- and run with warmup plus adaptive
/// repetitions until the median stabilizes (perf/runner.h). The heap hook
/// is on by default, so every result carries allocations/bytes per
/// repetition next to its timing statistics, and each group writes a
/// `BENCH_<group>.json` v2 sidecar (perf/report.h) suitable for
/// `gcr_benchdiff`.
///
/// Usage:
///   gcr_bench [--quick] [--filter SUBSTR] [--out DIR] [--list] [--no-mem]
///             [--threads N] [--profile]
///
///   --quick      small sizes + relaxed stabilization (also via
///                GCR_BENCH_QUICK=1); the CI perf-smoke tier
///   --filter     run only benchmarks whose name contains SUBSTR
///   --out DIR    sidecar directory (created if missing; default ".")
///   --list       print registered benchmark names and exit
///   --no-mem     leave the allocation hook off (timings only)
///   --threads N  route_par sweeps clustered-build widths {1, N} instead of
///                the default set
///   --profile    also write a `PROF_<group>.json` gcr.run_report per
///                group (sampled phase profile + hw counters, no route
///                options/result);
///                the PROF_ prefix keeps the sidecars out of gcr_benchdiff's
///                BENCH_*.json directory glob

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "activity/analyzer.h"
#include "activity/stream.h"
#include "benchdata/rbench.h"
#include "benchdata/workload.h"
#include "clocktree/zskew.h"
#include "core/router.h"
#include "cts/clustered.h"
#include "cts/greedy.h"
#include "eco/delta.h"
#include "eco/incremental.h"
#include "guard/status.h"
#include "gating/gate_reduction.h"
#include "log/logger.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/session.h"
#include "io/reqs_io.h"
#include "io/text_io.h"
#include "io/tree_io.h"
#include "perf/memhook.h"
#include "perf/report.h"
#include "perf/runner.h"
#include "serve/service.h"
#include "prof/hwcounters.h"
#include "prof/ticker.h"
#include "tech/params.h"

using namespace gcr;

namespace {

/// Evaluation workload in the spirit of bench/common.h, sized down so setup
/// does not dwarf the timed section on small instances.
benchdata::Workload make_workload(const benchdata::RBench& rb, int k,
                                  int stream_length, std::uint64_t seed) {
  benchdata::WorkloadSpec w;
  w.num_instructions = k;
  w.num_clusters = std::max(16, rb.spec.num_sinks / 32);
  w.target_activity = 0.4;
  w.in_cluster_use = 0.9;
  w.locality = 0.85;
  w.stream_length = stream_length;
  w.seed = seed;
  return benchdata::generate_workload(w, rb.sinks, rb.die);
}

benchdata::RBench synthetic_rbench(int n, std::uint64_t seed) {
  // Die side tracks sqrt(N) so sink density matches the published r1..r5.
  const double side = 1200.0 * std::sqrt(static_cast<double>(n));
  return benchdata::generate_rbench(
      benchdata::RBenchSpec{"s", n, side, 0.005, 0.08, seed});
}

struct Instance {
  benchdata::RBench rb;
  core::Design design;
};

std::shared_ptr<const Instance> make_instance(int n, std::uint64_t seed) {
  benchdata::RBench rb = synthetic_rbench(n, seed);
  benchdata::Workload wl = make_workload(rb, 32, 8000, seed);
  core::Design d{rb.die, rb.sinks, std::move(wl.rtl), std::move(wl.stream),
                 {}};
  return std::make_shared<Instance>(Instance{std::move(rb), std::move(d)});
}

using Groups = std::map<std::string, perf::Runner>;

// --- activity: table construction and probability queries ------------------

void register_activity(Groups& g, bool quick) {
  for (const int k : quick ? std::vector<int>{32} : std::vector<int>{32, 128}) {
    g["activity"].add(
        "activity/table_build/n=" + std::to_string(k), [k] {
          auto rb = std::make_shared<benchdata::RBench>(synthetic_rbench(64, 3));
          auto wl = std::make_shared<benchdata::Workload>(
              make_workload(*rb, k, 4000, 3));
          return [wl] {
            const activity::ActivityAnalyzer an(wl->rtl, wl->stream);
            perf::do_not_optimize(an);
          };
        });
    for (const bool transition : {false, true}) {
      const char* what = transition ? "transition_prob" : "signal_prob";
      g["activity"].add("activity/" + std::string(what) +
                            "/n=" + std::to_string(k),
                        [k, transition] {
                          auto rb = std::make_shared<benchdata::RBench>(
                              synthetic_rbench(64, 4));
                          auto wl = std::make_shared<benchdata::Workload>(
                              make_workload(*rb, k, 8000, 4));
                          auto an = std::make_shared<activity::ActivityAnalyzer>(
                              wl->rtl, wl->stream);
                          activity::ActivationMask mask(k);
                          for (int i = 0; i < k; i += 2) mask.set(i);
                          return [an, mask, transition] {
                            perf::do_not_optimize(
                                transition ? an->transition_prob(mask)
                                           : an->signal_prob(mask));
                          };
                        });
    }
  }
  // trace_long's shape (K = 64, 0.85 locality): the count pass over a long
  // stream, which `activity.ids_counted` shows happening once per build,
  // and strict validate_design's range check over the same stream.
  const int len = quick ? 400000 : 4000000;
  const auto long_workload = [len] {
    const benchdata::RBench rb = synthetic_rbench(1024, 5);
    return std::make_shared<benchdata::Workload>(make_workload(rb, 64, len, 5));
  };
  g["activity"].add("activity/table_build/len=" + std::to_string(len),
                    [long_workload] {
                      auto wl = long_workload();
                      return [wl] {
                        const activity::ActivityAnalyzer an(wl->rtl,
                                                            wl->stream);
                        perf::do_not_optimize(an);
                      };
                    });
  g["activity"].add("activity/scan_ids/len=" + std::to_string(len),
                    [long_workload] {
                      auto wl = long_workload();
                      return [wl] {
                        perf::do_not_optimize(
                            activity::scan_stream_ids(wl->stream, 64));
                      };
                    });
}

// --- io: the parsers' text front end (guard::Lexer + io readers) -----------

/// Serves a text in place, so a timed parse does not first copy it the way
/// an istringstream would.
class TextBuf : public std::streambuf {
 public:
  explicit TextBuf(std::string& text) {
    setg(text.data(), text.data(), text.data() + text.size());
  }
};

/// Adds an io row that parses `text` (made once, in setup) with `read`.
template <typename MakeText, typename Read>
void add_io_row(Groups& g, const std::string& name, MakeText make_text,
                Read read) {
  g["io"].add(name, [make_text, read] {
    auto text = std::make_shared<std::string>(make_text());
    return [text, read] {
      TextBuf buf(*text);
      std::istream is(&buf);
      guard::Diag diag;
      const auto parsed = read(is, diag, "bench");
      if (!parsed) std::abort();  // writer output must parse
      perf::do_not_optimize(parsed);
    };
  });
}

void register_io(Groups& g, bool quick) {
  // Inputs come from the library's own writers, at trace_long's shape
  // (1,024 sinks, K = 64) for the stream and route_large's sink count.
  const int len = quick ? 400000 : 4000000;
  add_io_row(
      g, "io/read_stream/len=" + std::to_string(len),
      [len] {
        const benchdata::RBench rb = synthetic_rbench(1024, 5);
        std::ostringstream os;
        io::write_stream(os, make_workload(rb, 64, len, 5).stream);
        return os.str();
      },
      [](std::istream& is, guard::Diag& d, const std::string& f) {
        return io::read_stream(is, d, f);
      });
  add_io_row(
      g, "io/read_sinks/n=16384",
      [] {
        const benchdata::RBench rb = synthetic_rbench(16384, 7);
        std::ostringstream os;
        io::write_sinks(os, rb.die, rb.sinks);
        return os.str();
      },
      [](std::istream& is, guard::Diag& d, const std::string& f) {
        return io::read_sinks(is, d, f);
      });
  add_io_row(
      g, "io/read_rtl/k=64",
      [] {
        const benchdata::RBench rb = synthetic_rbench(1024, 5);
        std::ostringstream os;
        io::write_rtl(os, make_workload(rb, 64, 1000, 5).rtl);
        return os.str();
      },
      [](std::istream& is, guard::Diag& d, const std::string& f) {
        return io::read_rtl(is, d, f);
      });

  // The writers, into an ostringstream as perfbench's tree_bytes does.
  g["io"].add("io/write_tree/n=16384", [] {
    // route_large's shape: 16,384 sinks, K = 32, reduced, one thread.
    const auto inst = make_instance(16384, 11);
    core::RouterOptions opts;
    opts.style = core::TreeStyle::GatedReduced;
    opts.num_threads = 1;
    auto tree = std::make_shared<const ct::RoutedTree>(
        core::GatedClockRouter(inst->design).route(opts).tree);
    return [tree] {
      std::ostringstream os;
      io::write_routed_tree(os, *tree);
      perf::do_not_optimize(os);
    };
  });
  g["io"].add("io/write_stream/len=" + std::to_string(len), [len] {
    auto stream = std::make_shared<const activity::InstructionStream>(
        make_workload(synthetic_rbench(1024, 5), 64, len, 5).stream);
    return [stream] {
      std::ostringstream os;
      io::write_stream(os, *stream);
      perf::do_not_optimize(os);
    };
  });
}

// --- topology: the Eq. 3 greedy construction -------------------------------

void register_topology(Groups& g, bool quick) {
  const std::vector<int> sizes =
      quick ? std::vector<int>{64, 128} : std::vector<int>{64, 128, 256, 512};
  for (const int n : sizes) {
    g["topology"].add("topology/build/n=" + std::to_string(n), [n] {
      auto rb = std::make_shared<benchdata::RBench>(synthetic_rbench(n, 9));
      auto wl =
          std::make_shared<benchdata::Workload>(make_workload(*rb, 32, 4000, 9));
      auto an = std::make_shared<activity::ActivityAnalyzer>(wl->rtl,
                                                             wl->stream);
      auto mods = std::make_shared<std::vector<int>>(cts::identity_modules(n));
      cts::BuildOptions opts;
      opts.cost = cts::MergeCost::SwitchedCapacitance;
      opts.control_point = rb->die.center();
      return [rb, wl, an, mods, opts] {
        auto r = cts::build_topology(rb->sinks, an.get(), *mods, opts);
        perf::do_not_optimize(r.topo.root());
      };
    });
  }
  if (!quick) {
    g["topology"].add("topology/clustered/n=2000", [] {
      auto rb = std::make_shared<benchdata::RBench>(synthetic_rbench(2000, 10));
      auto wl = std::make_shared<benchdata::Workload>(
          make_workload(*rb, 32, 4000, 10));
      auto an =
          std::make_shared<activity::ActivityAnalyzer>(wl->rtl, wl->stream);
      auto mods =
          std::make_shared<std::vector<int>>(cts::identity_modules(2000));
      cts::ClusterOptions copts;
      copts.build.cost = cts::MergeCost::SwitchedCapacitance;
      copts.build.control_point = rb->die.center();
      return [rb, wl, an, mods, copts] {
        auto r = cts::build_topology_clustered(rb->sinks, an.get(), *mods,
                                               copts);
        perf::do_not_optimize(r.topo.root());
      };
    });
  }
}

// --- scale: the Eq. 3 greedy on die sizes past the published r1..r5 --------
//
// The topology group pins the small-n regime; this group pins the *growth
// rate* of the partner-indexed build (docs/ALGORITHMS.md): synthetic dies
// at 3101 (r5-class), 10k and 100k sinks, one build per rep, timed with
// the default (indexed) engine. The committed baselines carry three
// n=<size> family members, so gcr_benchdiff and print_results' complexity
// fit can hold the near-linear slope, not just the absolute times. A
// 1M-sink member exists behind GCR_BENCH_SCALE_1M=1: at the runner's
// minimum rep count it costs minutes of single-core time, too much for
// the default full tier or CI's scale-smoke leg (docs/benchmarking.md).

void register_scale(Groups& g, bool quick) {
  std::vector<int> sizes =
      quick ? std::vector<int>{3101, 10000}
            : std::vector<int>{3101, 10000, 100000};
  if (const char* big = std::getenv("GCR_BENCH_SCALE_1M");
      big && *big && std::string_view(big) != "0") {
    sizes.push_back(1000000);
  }
  for (const int n : sizes) {
    g["scale"].add("scale/build/n=" + std::to_string(n), [n] {
      auto rb = std::make_shared<benchdata::RBench>(synthetic_rbench(n, 21));
      auto wl = std::make_shared<benchdata::Workload>(
          make_workload(*rb, 32, 4000, 21));
      auto an =
          std::make_shared<activity::ActivityAnalyzer>(wl->rtl, wl->stream);
      auto mods = std::make_shared<std::vector<int>>(cts::identity_modules(n));
      cts::BuildOptions opts;
      opts.cost = cts::MergeCost::SwitchedCapacitance;
      opts.control_point = rb->die.center();
      return [rb, wl, an, mods, opts] {
        auto r = cts::build_topology(rb->sinks, an.get(), *mods, opts);
        perf::do_not_optimize(r.topo.root());
      };
    });
  }
}

// --- zskew: one exact zero-skew merge (micro; the runner batches it) -------

void register_zskew(Groups& g, bool /*quick*/) {
  for (const bool gated : {false, true}) {
    g["zskew"].add(std::string("zskew/merge_") + (gated ? "gated" : "ungated"),
                   [gated] {
                     const tech::TechParams t;
                     ct::SubtreeTap a, b;
                     a.ms = geom::TiltedRect::from_point({1000.0, 2000.0});
                     a.delay = 120.0;
                     a.cap = 0.8;
                     b.ms = geom::TiltedRect::from_point({9000.0, 5000.0});
                     b.delay = 80.0;
                     b.cap = 1.1;
                     return [a, b, gated, t] {
                       const ct::MergeResult m =
                           ct::zero_skew_merge(a, gated, b, gated, t);
                       perf::do_not_optimize(m.delay);
                     };
                   });
  }
}

// --- reduction: the section 4.3 gate-removal pass --------------------------

void register_reduction(Groups& g, bool quick) {
  const std::vector<int> sizes =
      quick ? std::vector<int>{267} : std::vector<int>{267, 598};
  for (const int n : sizes) {
    g["reduction"].add("reduction/reduce_gates/n=" + std::to_string(n), [n] {
      auto inst = make_instance(n, 11);
      const core::GatedClockRouter router(inst->design);
      core::RouterOptions opts;
      opts.style = core::TreeStyle::Gated;  // fully-gated input tree
      auto res =
          std::make_shared<const core::RouterResult>(router.route(opts));
      const tech::TechParams tech;
      const gating::GateReductionParams params;
      return [res, tech, params] {
        auto gates =
            gating::reduce_gates(res->tree, res->activity.p_en, tech, params);
        perf::do_not_optimize(gates);
      };
    });
  }
}

// --- route: the full PROCEDURE GatedClockRouting flow ----------------------

void register_route(Groups& g, bool quick) {
  const std::vector<int> flat =
      quick ? std::vector<int>{64, 128} : std::vector<int>{64, 128, 267, 598};
  for (const int n : flat) {
    g["route"].add("route/reduced/n=" + std::to_string(n), [n] {
      auto inst = make_instance(n, 13);
      auto router =
          std::make_shared<const core::GatedClockRouter>(inst->design);
      return [router] {
        core::RouterOptions opts;
        opts.style = core::TreeStyle::GatedReduced;
        const core::RouterResult r = router->route(opts);
        perf::do_not_optimize(r.swcap.total_swcap());
      };
    });
  }
  if (!quick) {
    // r4/r5-scale designs route through the two-level clustered flow, as a
    // real large design would.
    for (const int n : {1903, 3101}) {
      g["route"].add("route/clustered/n=" + std::to_string(n), [n] {
        auto inst = make_instance(n, 17);
        auto router =
            std::make_shared<const core::GatedClockRouter>(inst->design);
        return [router] {
          core::RouterOptions opts;
          opts.style = core::TreeStyle::GatedReduced;
          opts.clustered = true;
          const core::RouterResult r = router->route(opts);
          perf::do_not_optimize(r.swcap.total_swcap());
        };
      });
    }
  }
}

// --- route_par: thread scaling of the clustered per-cell fan-out ---------

void register_route_par(Groups& g, bool quick, int threads_override) {
  // Routed gated through the two-level clustered builder (no reduction
  // pass, so the timed section is dominated by topology): the per-cell
  // greedy builds are what --threads fans out -- the flat greedy is
  // serial. The routed tree is identical at every width; only the time
  // may differ.
  const std::vector<int> sizes =
      quick ? std::vector<int>{2048} : std::vector<int>{8000, 16384};
  std::vector<int> widths = quick ? std::vector<int>{1, 4}
                                  : std::vector<int>{1, 2, 4};
  if (threads_override > 0) widths = {1, threads_override};
  for (const int n : sizes) {
    for (const int t : widths) {
      g["route_par"].add(
          "route_par/clustered/n=" + std::to_string(n) +
              "/t=" + std::to_string(t),
          [n, t] {
            auto inst = make_instance(n, 19);
            auto router =
                std::make_shared<const core::GatedClockRouter>(inst->design);
            return [router, t] {
              core::RouterOptions opts;
              opts.style = core::TreeStyle::Gated;
              opts.clustered = true;
              opts.num_threads = t;
              const core::RouterResult r = router->route(opts);
              perf::do_not_optimize(r.swcap.total_swcap());
            };
          });
    }
  }
}

// --- eco: incremental ECO re-route vs a full rebuild -----------------------

void register_eco(Groups& g, bool quick) {
  // Single-sink move: the canonical ECO. Setup routes the base design
  // once; the `move1` rows time eco::route_incremental (invalidation cone
  // + spine re-merge + re-embed) and the `rebuild` rows time a
  // from-scratch route of the *applied* design -- the cost the
  // incremental path avoids. Both use the fully-gated style so the timed
  // sections compare the same pipeline.
  const std::vector<int> sizes =
      quick ? std::vector<int>{512} : std::vector<int>{2048, 16384};
  for (const int n : sizes) {
    const auto make_delta = [](const core::Design& d) {
      eco::DesignDelta delta;
      const geom::Point c = d.die.center();
      delta.moves.push_back({0, {c.x * 0.75, c.y * 1.25}});
      return delta;
    };
    g["eco"].add("eco/move1/n=" + std::to_string(n), [n, make_delta] {
      auto inst = make_instance(n, 23);
      auto router =
          std::make_shared<const core::GatedClockRouter>(inst->design);
      core::RouterOptions opts;
      opts.style = core::TreeStyle::Gated;
      auto prev =
          std::make_shared<const core::RouterResult>(router->route(opts));
      auto delta = std::make_shared<const eco::DesignDelta>(
          make_delta(router->design()));
      return [router, prev, delta, opts] {
        const core::RouteOutcome out =
            eco::route_incremental(*router, *prev, *delta, opts);
        perf::do_not_optimize(out.result->swcap.total_swcap());
      };
    });
    g["eco"].add("eco/rebuild/n=" + std::to_string(n), [n, make_delta] {
      auto inst = make_instance(n, 23);
      const core::GatedClockRouter base(inst->design);
      auto router = std::make_shared<const core::GatedClockRouter>(
          eco::apply_delta(base.design(), make_delta(base.design())));
      return [router] {
        core::RouterOptions opts;
        opts.style = core::TreeStyle::Gated;
        const core::RouterResult r = router->route(opts);
        perf::do_not_optimize(r.swcap.total_swcap());
      };
    });
  }
}

// --- serve: batch service throughput, cache effect, admission -------------

/// Write `inst`'s design under a bench scratch dir and return a request
/// naming the files. File content is deterministic per (n, seed), so the
/// serve content-hash cache behaves identically run to run.
io::RouteRequest write_serve_design(const Instance& inst, int n,
                                    std::uint64_t seed) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "gcr_bench_serve";
  fs::create_directories(dir);
  const std::string stem =
      "d" + std::to_string(n) + "_" + std::to_string(seed);
  {
    std::ofstream os(dir / (stem + ".sinks"));
    io::write_sinks(os, inst.design.die, inst.design.sinks);
  }
  {
    std::ofstream os(dir / (stem + ".rtl"));
    io::write_rtl(os, inst.design.rtl);
  }
  {
    std::ofstream os(dir / (stem + ".stream"));
    io::write_stream(os, inst.design.stream);
  }
  io::RouteRequest req;
  req.id = stem;
  req.sinks = (dir / (stem + ".sinks")).string();
  req.rtl = (dir / (stem + ".rtl")).string();
  req.stream = (dir / (stem + ".stream")).string();
  return req;
}

/// One timed serve op: submit `batch` requests of the same design and
/// wait for all outcomes. `cold` disables the caches, so every request
/// pays file load + parse + route; warm requests pay hash + lookup only
/// (the cache-warm >= 2x cache-cold acceptance line in docs/serving.md).
void register_serve(Groups& g, bool quick) {
  const std::vector<int> sizes =
      quick ? std::vector<int>{256} : std::vector<int>{512, 2048};
  constexpr int kBatch = 8;
  for (const int n : sizes) {
    for (const bool cold : {true, false}) {
      const std::string name = std::string("serve/") +
                               (cold ? "cold" : "warm") +
                               "/n=" + std::to_string(n);
      g["serve"].add(name, [n, cold] {
        auto inst = make_instance(n, 31);
        const io::RouteRequest req = write_serve_design(*inst, n, 31);
        serve::ServeOptions sopts;
        sopts.workers = 2;
        if (cold) {
          sopts.design_cache_capacity = 0;
          sopts.result_cache_capacity = 0;
        }
        auto service = std::make_shared<serve::BatchService>(sopts);
        service->start();
        if (!cold) {  // pre-warm outside the timed section
          (void)service->submit(req);
          service->wait_idle();
          (void)service->take_outcomes();
        }
        return [service, req] {
          for (int i = 0; i < kBatch; ++i) (void)service->submit(req);
          service->wait_idle();
          perf::do_not_optimize(service->take_outcomes().size());
        };
      });
    }
  }

  // Admission-path ops/sec: a full queue with no lanes draining it, so
  // every timed submit walks the whole shed path (seq assignment, outcome
  // record, GCR_E_OVERLOAD event) and none routes.
  g["serve"].add("serve/shed/submit64", [] {
    auto inst = make_instance(64, 33);
    const io::RouteRequest req = write_serve_design(*inst, 64, 33);
    serve::ServeOptions sopts;
    sopts.queue_capacity = 1;
    auto service = std::make_shared<serve::BatchService>(sopts);
    (void)service->submit(req);  // plug the queue; lanes never start
    return [service, req] {
      for (int i = 0; i < 64; ++i) (void)service->submit(req);
      perf::do_not_optimize(service->take_outcomes().size());
    };
  });

  // Concurrent-submit stress: 4 racing submitters against 2 lanes on a
  // warm cache -- admission lock traffic plus cache lookups under real
  // contention, the --race shape of the CLI.
  const int race_n = quick ? 256 : 512;
  g["serve"].add("serve/race/n=" + std::to_string(race_n), [race_n] {
    auto inst = make_instance(race_n, 35);
    const io::RouteRequest req = write_serve_design(*inst, race_n, 35);
    serve::ServeOptions sopts;
    sopts.workers = 2;
    auto service = std::make_shared<serve::BatchService>(sopts);
    service->start();
    (void)service->submit(req);
    service->wait_idle();
    (void)service->take_outcomes();
    return [service, req] {
      std::vector<std::thread> racers;
      racers.reserve(4);
      for (int t = 0; t < 4; ++t)
        racers.emplace_back([&service, &req] {
          for (int i = 0; i < kBatch; ++i) (void)service->submit(req);
        });
      for (std::thread& t : racers) t.join();
      service->wait_idle();
      perf::do_not_optimize(service->take_outcomes().size());
    };
  });
}

void usage() {
  std::cerr << "usage: gcr_bench [--quick] [--filter SUBSTR] [--out DIR]"
               " [--list] [--no-mem] [--threads N] [--profile]\n"
               "exit codes: 0 ok, 1 usage/empty filter, 2 i/o error\n";
}

}  // namespace

int main(int argc, char** argv) {
  // A Warn floor by default: the route benchmarks fire route.start /
  // route.done per repetition, and admitting them would put event
  // construction inside the timed section. GCR_LOG_LEVEL / GCR_LOG still
  // opt a debugging run in.
  const log::CliLogger logger({}, log::Level::Warn);
  perf::RunnerOptions opts = perf::RunnerOptions::from_env();
  bool quick = false;
  std::string filter;
  std::string out_dir = ".";
  bool list = false;
  bool mem = true;
  bool profile = false;
  int threads_override = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      quick = true;
    } else if (flag == "--filter" && i + 1 < argc) {
      filter = argv[++i];
    } else if (flag == "--out" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (flag == "--list") {
      list = true;
    } else if (flag == "--no-mem") {
      mem = false;
    } else if (flag == "--threads" && i + 1 < argc) {
      threads_override = std::atoi(argv[++i]);
    } else if (flag == "--profile") {
      profile = true;
    } else {
      usage();
      return 1;
    }
  }
  // Applied after the loop so the result does not depend on flag order.
  if (quick) opts = perf::RunnerOptions::quick_tier();
  opts.filter = filter;

  Groups groups;
  register_activity(groups, opts.quick);
  register_io(groups, opts.quick);
  register_topology(groups, opts.quick);
  register_zskew(groups, opts.quick);
  register_reduction(groups, opts.quick);
  register_route(groups, opts.quick);
  register_route_par(groups, opts.quick, threads_override);
  register_eco(groups, opts.quick);
  register_scale(groups, opts.quick);
  register_serve(groups, opts.quick);

  if (list) {
    for (const auto& [group, runner] : groups)
      for (const auto& name : runner.names()) std::cout << name << '\n';
    return 0;
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    GCR_LOG_ERROR("bench.io").msg("cannot create " + out_dir + ": " +
                                  ec.message());
    return 2;
  }

  if (mem && perf::memhook::available()) perf::memhook::enable();
  obs::set_metrics_enabled(true);

  int written = 0;
  for (auto& [group, runner] : groups) {
    // Fresh session + metrics per group so each sidecar's phase tree and
    // counters describe exactly that group's run.
    obs::Registry::global().reset();
    obs::Session session;
    obs::Bind bind(&session);

    prof::Ticker ticker;
    prof::HwInfo hw;
    if (profile) {
      hw = prof::enable_hw_counters();
      ticker.start({});
    }

    std::cerr << "== " << group << " ==\n";
    const std::vector<perf::BenchResult> results = runner.run(opts, &std::cerr);
    if (results.empty()) {
      if (profile) {
        (void)ticker.stop();
        prof::disable_hw_counters();
      }
      continue;  // filter matched nothing in this group
    }
    perf::print_results(std::cout, results);

    const std::string path = out_dir + "/BENCH_" + group + ".json";
    std::ofstream os(path);
    if (!os) {
      GCR_LOG_ERROR("bench.io").msg("cannot open " + path);
      return 2;
    }
    perf::write_bench_report(os, group, results, opts, &session);
    std::cout << "wrote " << path << '\n';
    ++written;

    if (profile) {
      const prof::Ticker::Profile p = ticker.stop();
      const std::string ppath = out_dir + "/PROF_" + group + ".json";
      std::ofstream pos(ppath);
      if (!pos) {
        GCR_LOG_ERROR("bench.io").msg("cannot open " + ppath);
        return 2;
      }
      obs::RunReport rep;
      rep.tool = "gcr_bench/" + group;
      rep.profile = &p;
      rep.hw = hw;
      obs::write_run_report(pos, session, rep);
      prof::disable_hw_counters();
      std::cout << "wrote " << ppath << '\n';
    }
  }
  if (written == 0) {
    GCR_LOG_ERROR("bench.empty_filter")
        .msg("no benchmarks matched filter '" + opts.filter + "'");
    return 1;
  }
  return 0;
}
