/// \file gcr_route.cpp
/// Command-line front end of the library: route a design from files.
///
/// Usage:
///   gcr_route --sinks <file> --rtl <file> --stream <file>
///             [--style buffered|gated|reduced] [--partitions k]
///             [--threads n]
///             [--strength s | --auto-tune] [--svg out.svg]
///             [--tree out.tree] [--csv]
///             [--report out.json [--profile]] [--trace out.trace.json]
///             [--verbose]
///
/// Input formats are the library's text formats (see io/text_io.h); use
/// `gcr_route --demo <dir>` to emit a ready-to-route example design.
///
/// Exit codes (docs/robustness.md): 0 success, 1 usage, 2 invalid input,
/// 3 deadline/resource exhausted, 4 internal error or selftest violation.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "benchdata/rbench.h"
#include "benchdata/workload.h"
#include "core/router.h"
#include "eco/delta.h"
#include "eco/incremental.h"
#include "eval/table.h"
#include "guard/deadline.h"
#include "guard/postmortem.h"
#include "guard/status.h"
#include "guard/validate.h"
#include "io/delta_io.h"
#include "io/svg.h"
#include "io/text_io.h"
#include "io/tree_io.h"
#include "log/logger.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/report_util.h"
#include "obs/session.h"
#include "obs/timer.h"
#include "perf/memhook.h"
#include "prof/hwcounters.h"
#include "prof/recorder.h"
#include "prof/ticker.h"
#include "verify/invariants.h"

using namespace gcr;

namespace {

struct Args {
  std::string sinks, rtl, stream;
  std::string style = "reduced";
  std::string topology = "swcap";
  int partitions = 1;
  std::optional<double> strength;
  bool auto_tune = false;
  bool clustered = false;
  int threads = 0;
  bool sizing = false;
  double skew_bound = 0.0;
  std::string eco;  // .delta file: incremental re-route after the base route
  std::string svg, tree_out, demo_dir;
  bool csv = false;
  std::string report, trace;
  bool profile = false;  // adds the profile sections to the --report file
  bool verbose = false;
  bool mem_stats = false;
  bool selftest = false;
  long deadline_ms = -1;  // < 0 = unlimited; 0 = expire immediately
  std::string log_json;   // JSONL event log ("" = GCR_LOG env or none)
  std::string log_level;  // runtime floor ("" = GCR_LOG_LEVEL env or info)
  int telemetry_interval_ms = 0;  // <= 0 = no periodic snapshots
};

void usage() {
  std::cerr
      << "usage: gcr_route --sinks F --rtl F --stream F [options]\n"
         "       gcr_route --demo DIR   (write an example design to DIR)\n"
         "options:\n"
         "  --style buffered|gated|reduced   tree style (default reduced)\n"
         "  --topology swcap|nn|activity|mmm topology scheme (default swcap)\n"
         "  --partitions K                   distributed controllers (perfect square)\n"
         "  --strength S                     reduction aggressiveness in [0,1]\n"
         "  --auto-tune                      sweep reduction strength, keep best\n"
         "  --clustered                      two-level construction (large designs)\n"
         "  --threads N                      clustered per-cell threads\n"
         "                                   (0 = GCR_THREADS or hardware;\n"
         "                                   result identical at any N)\n"
         "  --size-gates                     per-merge gate sizing\n"
         "  --skew-bound PS                  skew budget (0 = exact zero skew)\n"
         "  --eco FILE                       apply the .delta file to the routed\n"
         "                                   design via incremental ECO re-route\n"
         "                                   (io/delta_io.h format); all outputs\n"
         "                                   describe the post-ECO tree\n"
         "  --svg FILE                       write layout drawing\n"
         "  --tree FILE                      write routed tree (text format)\n"
         "  --csv                            machine-readable report\n"
         "  --report FILE                    gcr.run_report JSON (options, phase\n"
         "                                   timings, counters, results)\n"
         "  --trace FILE                     Chrome trace-event JSON (open in\n"
         "                                   chrome://tracing or Perfetto)\n"
         "  --profile                        add a sampled self/total phase\n"
         "                                   profile and per-phase hw counters\n"
         "                                   to the --report FILE; on failure\n"
         "                                   dumps FILE.flightrec.json\n"
         "  --verbose                        phase/counter summary to stderr\n"
         "  --mem-stats                      heap bytes per phase + peak RSS\n"
         "                                   to stderr (implies the phase\n"
         "                                   summary; counts every new/delete)\n"
         "  --deadline-ms MS                 abort the route when the wall-clock\n"
         "                                   budget expires: prints the phases\n"
         "                                   that completed and exits 3\n"
         "  --selftest                       re-derive all paper invariants on\n"
         "                                   the result; exit 4 on violation\n"
         "  --log-json FILE                  structured gcr.event JSONL log\n"
         "                                   (also via GCR_LOG=FILE)\n"
         "  --log-level L                    trace|debug|info|warn|error|off\n"
         "                                   runtime floor (GCR_LOG_LEVEL env;\n"
         "                                   default info)\n"
         "  --telemetry-interval-ms MS       periodic gcr.snapshot telemetry\n"
         "                                   lines in the JSONL log (needs\n"
         "                                   --log-json or GCR_LOG)\n"
         "exit codes: 0 ok, 1 usage, 2 invalid input, 3 deadline/resource,\n"
         "            4 internal error or selftest violation\n";
}

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (flag == "--sinks") {
      if (const char* v = next()) a.sinks = v; else return std::nullopt;
    } else if (flag == "--rtl") {
      if (const char* v = next()) a.rtl = v; else return std::nullopt;
    } else if (flag == "--stream") {
      if (const char* v = next()) a.stream = v; else return std::nullopt;
    } else if (flag == "--style") {
      if (const char* v = next()) a.style = v; else return std::nullopt;
    } else if (flag == "--topology") {
      if (const char* v = next()) a.topology = v; else return std::nullopt;
    } else if (flag == "--clustered") {
      a.clustered = true;
    } else if (flag == "--threads") {
      if (const char* v = next()) a.threads = std::atoi(v); else return std::nullopt;
    } else if (flag == "--size-gates") {
      a.sizing = true;
    } else if (flag == "--skew-bound") {
      if (const char* v = next()) a.skew_bound = std::atof(v); else return std::nullopt;
    } else if (flag == "--eco") {
      if (const char* v = next()) a.eco = v; else return std::nullopt;
    } else if (flag == "--partitions") {
      if (const char* v = next()) a.partitions = std::atoi(v); else return std::nullopt;
    } else if (flag == "--strength") {
      if (const char* v = next()) a.strength = std::atof(v); else return std::nullopt;
    } else if (flag == "--auto-tune") {
      a.auto_tune = true;
    } else if (flag == "--svg") {
      if (const char* v = next()) a.svg = v; else return std::nullopt;
    } else if (flag == "--tree") {
      if (const char* v = next()) a.tree_out = v; else return std::nullopt;
    } else if (flag == "--demo") {
      if (const char* v = next()) a.demo_dir = v; else return std::nullopt;
    } else if (flag == "--csv") {
      a.csv = true;
    } else if (flag == "--report") {
      if (const char* v = next()) a.report = v; else return std::nullopt;
    } else if (flag == "--trace") {
      if (const char* v = next()) a.trace = v; else return std::nullopt;
    } else if (flag == "--profile") {
      a.profile = true;
    } else if (flag == "--verbose") {
      a.verbose = true;
    } else if (flag == "--mem-stats") {
      a.mem_stats = true;
    } else if (flag == "--selftest") {
      a.selftest = true;
    } else if (flag == "--deadline-ms") {
      if (const char* v = next()) a.deadline_ms = std::atol(v); else return std::nullopt;
    } else if (flag == "--log-json") {
      if (const char* v = next()) a.log_json = v; else return std::nullopt;
    } else if (flag == "--log-level") {
      if (const char* v = next()) a.log_level = v; else return std::nullopt;
    } else if (flag == "--telemetry-interval-ms") {
      if (const char* v = next()) a.telemetry_interval_ms = std::atoi(v); else return std::nullopt;
    } else {
      std::cerr << "unknown flag: " << flag << '\n';
      return std::nullopt;
    }
  }
  return a;
}

/// Writes `path` through `write(std::ostream&)`; throws GCR_E_IO (exit 2)
/// when the file cannot be opened or the write does not complete.
template <typename Write>
void write_file(const std::string& path, Write&& write) {
  std::ofstream os(path);
  if (!os)
    throw guard::GuardError(
        guard::make_error(guard::Code::Io, "cannot open " + path));
  write(os);
  os.close();
  if (!os)
    throw guard::GuardError(
        guard::make_error(guard::Code::Io, "cannot write " + path));
}

int write_demo(const std::string& dir) {
  benchdata::RBenchSpec spec{"demo", 64, 10000.0, 0.005, 0.06, 11};
  const benchdata::RBench rb = benchdata::generate_rbench(spec);
  benchdata::WorkloadSpec wspec;
  wspec.num_instructions = 16;
  wspec.target_activity = 0.35;
  wspec.locality = 0.85;
  wspec.stream_length = 5000;
  const benchdata::Workload wl =
      benchdata::generate_workload(wspec, rb.sinks, rb.die);

  write_file(dir + "/demo.sinks",
             [&](std::ostream& os) { io::write_sinks(os, rb.die, rb.sinks); });
  write_file(dir + "/demo.rtl",
             [&](std::ostream& os) { io::write_rtl(os, wl.rtl); });
  write_file(dir + "/demo.stream",
             [&](std::ostream& os) { io::write_stream(os, wl.stream); });
  std::cout << "wrote " << dir << "/demo.{sinks,rtl,stream}\n"
            << "try: gcr_route --sinks " << dir << "/demo.sinks --rtl " << dir
            << "/demo.rtl --stream " << dir << "/demo.stream --auto-tune\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse(argc, argv);
  if (!parsed) {
    usage();
    return guard::kExitUsage;
  }
  const Args& a = *parsed;
  if (a.demo_dir.empty() &&
      (a.sinks.empty() || a.rtl.empty() || a.stream.empty())) {
    usage();
    return guard::kExitUsage;
  }

  const log::CliLogger logger({a.log_json, a.log_level, a.verbose});
  if (!logger.ok()) {
    GCR_LOG_ERROR("cli.log_open_failed").kv("path", a.log_json);
  }
  // The profile rides in the run report, and snapshots only in a JSONL log
  // (the stderr sink never prints them).
  if (a.profile && a.report.empty()) {
    GCR_LOG_ERROR("cli.bad_flag")
        .kv("flag", "--profile")
        .msg("--profile needs --report FILE");
    return guard::kExitUsage;
  }
  if (a.telemetry_interval_ms > 0 && !logger.jsonl()) {
    GCR_LOG_ERROR("cli.bad_flag")
        .kv("flag", "--telemetry-interval-ms")
        .msg("--telemetry-interval-ms needs a JSONL log (--log-json FILE "
             "or GCR_LOG)");
    return guard::kExitUsage;
  }
  prof::Ticker ticker;  // declared after the logger: stops first

  try {
    if (!a.demo_dir.empty()) return write_demo(a.demo_dir);
    // Observability: bind a session before the inputs are read so the
    // phase tree covers parse, validation, routing and the tree write.
    const bool observed = !a.report.empty() || !a.trace.empty() ||
                          a.verbose || a.mem_stats;
    if (a.mem_stats) {
      if (perf::memhook::available())
        perf::memhook::enable();  // before any phase runs
      else
        GCR_LOG_WARN("route.memhook_unavailable")
            .msg("--mem-stats: allocation hook unavailable on this "
                 "platform; reporting peak RSS only");
    }
    obs::Session session;
    std::optional<prof::Capture> trace;
    std::optional<obs::Bind> bind;
    if (observed) {
      if (!a.trace.empty()) trace.emplace();
      obs::set_metrics_enabled(true);
      obs::Registry::global().reset();
      bind.emplace(&session);
    }
    // Profiling and telemetry start at the same point, so parsing is
    // sampled too.
    prof::HwInfo hw;
    const std::string flightrec = a.report + ".flightrec.json";
    if (a.profile) {
      hw = prof::enable_hw_counters();
      guard::install_postmortem(flightrec);
    }
    prof::Ticker::Options tick;
    if (!a.profile) tick.sample_us = 0;
    tick.snapshot_ms = a.telemetry_interval_ms;
    ticker.start(tick);

    guard::Diag diag;
    std::optional<io::SinksFile> sinks;
    std::optional<activity::RtlDescription> rtl;
    std::optional<activity::InstructionStream> stream;
    {
      const obs::ScopedTimer read_timer("io.read");
      std::ifstream sf(a.sinks);
      if (!sf) diag.error(guard::Code::Io, "cannot open " + a.sinks);
      else sinks = io::read_sinks(sf, diag, a.sinks);
      std::ifstream rf(a.rtl);
      if (!rf) diag.error(guard::Code::Io, "cannot open " + a.rtl);
      else rtl = io::read_rtl(rf, diag, a.rtl);
      std::ifstream tf(a.stream);
      if (!tf) diag.error(guard::Code::Io, "cannot open " + a.stream);
      else stream = io::read_stream(tf, diag, a.stream);
    }
    // The guard bridge has already turned every Diag entry into a stderr
    // line + structured event as it was reported; no diag.print here.
    if (!sinks || !rtl || !stream) return diag.exit_code();

    core::Design design{sinks->die, std::move(sinks->sinks), std::move(*rtl),
                        std::move(*stream), {}};
    // Strict validation runs before the router is constructed: it rejects
    // out-of-die, duplicate and zero-cap sinks, which the router's own
    // lenient check only warns about.
    {
      const obs::ScopedTimer validate_timer("validate");
      if (!guard::validate_design(design, diag)) return diag.exit_code();
    }

    const core::GatedClockRouter router(std::move(design));

    core::RouterOptions opts;
    if (a.style == "buffered") opts.style = core::TreeStyle::Buffered;
    else if (a.style == "gated") opts.style = core::TreeStyle::Gated;
    else if (a.style == "reduced") opts.style = core::TreeStyle::GatedReduced;
    else {
      GCR_LOG_ERROR("cli.bad_flag").kv("flag", "--style").kv("value", a.style);
      return guard::kExitUsage;
    }
    if (a.topology == "swcap") opts.topology = core::TopologyScheme::MinSwitchedCap;
    else if (a.topology == "nn") opts.topology = core::TopologyScheme::NearestNeighbor;
    else if (a.topology == "activity") opts.topology = core::TopologyScheme::ActivityOnly;
    else if (a.topology == "mmm") opts.topology = core::TopologyScheme::Mmm;
    else {
      GCR_LOG_ERROR("cli.bad_flag")
          .kv("flag", "--topology")
          .kv("value", a.topology);
      return guard::kExitUsage;
    }
    opts.controller_partitions = a.partitions;
    opts.auto_tune_reduction = a.auto_tune;
    opts.clustered = a.clustered;
    opts.num_threads = a.threads;
    opts.skew_bound = a.skew_bound;
    if (a.sizing) opts.gate_sizing = ct::GateSizing::MinWirelength;
    if (a.strength)
      opts.reduction = gating::GateReductionParams::from_strength(*a.strength);

    const guard::Deadline deadline =
        a.deadline_ms >= 0
            ? guard::Deadline::after_ms(static_cast<double>(a.deadline_ms))
            : guard::Deadline();
    core::RouteOutcome out = router.route_guarded(opts, deadline);
    if (!out.ok()) {
      if (a.profile && guard::postmortem_dump(flightrec))
        out.diag.warning(guard::Code::FlightRecorder,
                         "flight record written to " + flightrec);
      // Every diag entry already went through the bridge; add the partial
      // report so the truncated run stays diagnosable from the event log.
      if (out.cancelled) {
        std::string done;
        for (std::size_t i = 0; i < out.phases_completed.size(); ++i) {
          if (i) done += ' ';
          done += out.phases_completed[i];
        }
        GCR_LOG_WARN("route.partial")
            .kv("phases_completed", done)
            .kv("aborted_in", out.aborted_phase);
      }
      return out.exit_code();
    }

    // Incremental ECO: re-route the delta on top of the finished base
    // result; everything downstream (selftest, reports, drawings, the
    // metric table) describes the post-ECO tree.
    std::optional<core::GatedClockRouter> eco_router;
    std::optional<core::RouteOutcome> eco_out;
    eco::EcoInfo eco_info;
    if (!a.eco.empty()) {
      std::ifstream ef(a.eco);
      if (!ef) {
        GCR_LOG_ERROR("cli.io").msg("cannot open " + a.eco);
        return guard::kExitInvalidInput;
      }
      guard::Diag ediag;
      std::optional<eco::DesignDelta> delta;
      {
        const obs::ScopedTimer read_timer("io.read");
        delta = io::read_delta(ef, ediag, a.eco);
      }
      if (!delta) return ediag.exit_code();
      eco_out = eco::route_incremental(router, *out.result, *delta, opts,
                                       &eco_info, deadline);
      if (!eco_out->ok()) return eco_out->exit_code();
      eco_router.emplace(eco::apply_delta(router.design(), *delta));
    }
    const core::RouterResult& r = eco_out ? *eco_out->result : *out.result;
    const core::GatedClockRouter& result_router =
        eco_router ? *eco_router : router;

    if (a.selftest) {
      const verify::Report rep = verify::verify_result(result_router, opts, r);
      if (rep.ok())
        GCR_LOG_INFO("route.selftest").kv("ok", true).msg(rep.summary());
      else
        GCR_LOG_ERROR("route.selftest").kv("ok", false).msg(rep.summary());
      if (!rep.ok()) return guard::kExitInternal;
    }

    // Written before the reports so its phase is in them.
    if (!a.tree_out.empty()) {
      const obs::ScopedTimer write_timer("io.write");
      write_file(a.tree_out,
                 [&](std::ostream& os) { io::write_routed_tree(os, r.tree); });
    }
    if (!a.report.empty()) {
      obs::RunReport rep;
      rep.tool = "gcr_route";
      rep.options = &opts;
      rep.result = &r;
      prof::Ticker::Profile p;
      if (a.profile) {
        p = ticker.stop();
        rep.profile = &p;
        rep.hw = hw;
      }
      write_file(a.report, [&](std::ostream& os) {
        obs::write_run_report(os, session, rep);
      });
      if (a.profile) prof::disable_hw_counters();
    }
    if (!a.trace.empty()) {
      trace->stop();
      write_file(a.trace,
                 [&](std::ostream& os) { trace->write_chrome_json(os); });
    }
    if (a.verbose || a.mem_stats) obs::print_session_summary(std::cerr, session);
    if (a.mem_stats) {
      const perf::memhook::Stats m = perf::memhook::stats();
      char line[160];
      if (perf::memhook::available()) {
        std::snprintf(line, sizeof line,
                      "heap: %llu allocations, %.1f MiB allocated, "
                      "%.1f MiB peak live\n",
                      static_cast<unsigned long long>(m.allocs),
                      static_cast<double>(m.bytes_allocated) / (1024.0 * 1024.0),
                      static_cast<double>(m.peak_live_bytes) /
                          (1024.0 * 1024.0));
        std::cerr << line;
      }
      std::snprintf(line, sizeof line, "peak RSS: %.1f MiB\n",
                    static_cast<double>(perf::memhook::peak_rss_bytes()) /
                        (1024.0 * 1024.0));
      std::cerr << line;
    }

    eval::Table t({"metric", "value"});
    t.add_row({"style", a.style});
    t.add_row({"sinks", std::to_string(r.tree.num_leaves)});
    t.add_row({"W(T) clock swcap pF", eval::Table::num(r.swcap.clock_swcap)});
    t.add_row({"W(S) ctrl swcap pF", eval::Table::num(r.swcap.ctrl_swcap)});
    t.add_row({"W total pF", eval::Table::num(r.swcap.total_swcap())});
    t.add_row({"area lambda^2", eval::Table::num(r.swcap.total_area(), 0)});
    t.add_row({"clock wirelength", eval::Table::num(r.swcap.clock_wirelength, 0)});
    t.add_row({"star wirelength", eval::Table::num(r.swcap.star_wirelength, 0)});
    t.add_row({"gates", std::to_string(r.swcap.num_cells)});
    t.add_row({"gate reduction %", eval::Table::num(r.gate_reduction_pct(), 1)});
    t.add_row({"max delay", eval::Table::num(r.delays.max_delay, 2)});
    t.add_row({"skew", eval::Table::num(r.delays.skew(), 9)});
    if (eco_out) {
      t.add_row({"eco dirty sinks", std::to_string(eco_info.dirty_leaves)});
      t.add_row(
          {"eco preserved merges", std::to_string(eco_info.preserved_merges)});
      t.add_row({"eco spine merges", std::to_string(eco_info.spine_merges)});
    }
    if (a.csv) t.print_csv(std::cout); else t.print(std::cout);

    if (!a.svg.empty()) {
      const gating::ControllerPlacement ctrl(result_router.design().die,
                                             a.partitions);
      write_file(a.svg, [&](std::ostream& os) {
        io::write_svg(os, r.tree, result_router.design().die, ctrl);
      });
    }
  } catch (const guard::GuardError& e) {
    GCR_LOG_ERROR("cli.guard_error").msg(e.status().to_string());
    return guard::exit_code_for(e.status().code);
  } catch (const std::exception& e) {
    GCR_LOG_ERROR("cli.internal_error").msg(e.what());
    return guard::kExitInternal;
  }
  return guard::kExitOk;
}
