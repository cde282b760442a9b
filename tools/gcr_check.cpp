/// \file gcr_check.cpp
/// Verification front end: run the gcr::verify invariant checker, the
/// differential/metamorphic driver and the gcr::guard fault-injection
/// harness from the command line.
///
/// Modes:
///   gcr_check --random N [--seed S] [--dump DIR] [--verbose]
///       route N randomized designs through every topology scheme and
///       cross-check against the oracles; nonzero exit on any violation.
///   gcr_check --replay SEED|ARTIFACT.json [--dump DIR]
///       re-run one failing design, either by the seed a CI log recorded or
///       straight from the JSON artifact a failing run dumped.
///   gcr_check --tree FILE [--skew-bound B]
///       structural/geometric/electrical invariants of a routed-tree dump
///       (io/tree_io.h format, e.g. from gcr_route --tree).
///   gcr_check --faults [--seed S] [--verbose]
///       seeded fault-injection sweep: parse generated designs through
///       truncated/failing streams and with the arena/lexer fault injector
///       armed; every injected fault must surface as a structured
///       diagnostic, never a crash (docs/robustness.md).
///   gcr_check --index-diff N [--seed S] [--dump DIR] [--verbose]
///       partner-index differential: N random designs, every greedy
///       TopologyScheme x {flat, clustered at 1 and 4 threads} routed with
///       the dynamic partner index on and off; the trees must be
///       bit-identical (docs/ALGORITHMS.md).
///   gcr_check --eco-diff N [--seed S] [--dump DIR] [--verbose]
///       incremental-ECO differential: N random designs with random
///       deltas (moves/removals/adds/stream swaps); every scheme's
///       eco::route_incremental result must verify clean, preserve
///       out-of-cone nodes bit-identically, and match a from-scratch
///       route exactly or within the documented switched-cap bound
///       (docs/incremental.md).
///
/// To route one design from files and verify the full result, use
/// `gcr_route --selftest`.
///
/// Exit codes: 0 ok, 1 usage, 2 invalid input, 3 resource/deadline,
/// 4 internal error / invariant violation / harness failure.

#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/router.h"
#include "guard/fault.h"
#include "guard/lexer.h"
#include "guard/postmortem.h"
#include "guard/status.h"
#include "io/text_io.h"
#include "io/tree_io.h"
#include "log/flags.h"
#include "log/logger.h"
#include "verify/differential.h"
#include "verify/generator.h"
#include "verify/invariants.h"

using namespace gcr;

namespace {

struct Args {
  int random_designs = 0;
  int index_diff_designs = 0;
  int eco_diff_designs = 0;
  std::uint64_t seed = 2026;
  std::string replay;  // decimal seed or artifact path
  std::string dump_dir;
  bool verbose = false;
  bool faults = false;
  std::string tree_file;
  double skew_bound = 0.0;
  std::string log_json;   // JSONL event log ("" = GCR_LOG env or none)
  std::string log_level;  // runtime floor ("" = GCR_LOG_LEVEL env or info)
};

void usage() {
  std::cerr
      << "usage: gcr_check --random N [--seed S] [--dump DIR] [--verbose]\n"
         "       gcr_check --index-diff N [--seed S] [--dump DIR] [--verbose]\n"
         "       gcr_check --eco-diff N [--seed S] [--dump DIR] [--verbose]\n"
         "       gcr_check --replay SEED|ARTIFACT.json [--dump DIR]\n"
         "       gcr_check --tree FILE [--skew-bound B]\n"
         "       gcr_check --faults [--seed S] [--verbose]\n"
         "(to route and verify one design from files: gcr_route --selftest)\n"
         "options:\n"
         "  --skew-bound PS    skew budget of --tree (0 = exact)\n"
         "  --log-json FILE    structured gcr.event JSONL log\n"
         "                     (also via GCR_LOG=FILE)\n"
         "  --log-level L      trace|debug|info|warn|error|off\n"
         "exit codes: 0 ok, 1 usage, 2 invalid input, 3 resource/deadline,\n"
         "            4 internal error or invariant violation\n";
}

/// Flag values that fail their checks are left on `f` (see log/flags.h);
/// nullopt is a usage error.
std::optional<Args> parse(log::FlagReader& f) {
  Args a;
  const auto count = log::at_least(0);
  while (f.next()) {
    const std::string& flag = f.flag();
    bool have = true;  // false: the flag's value is missing
    if (flag == "--random") have = f.number(a.random_designs, count);
    else if (flag == "--index-diff")
      have = f.number(a.index_diff_designs, count);
    else if (flag == "--eco-diff") have = f.number(a.eco_diff_designs, count);
    else if (flag == "--seed") have = f.number(a.seed);
    else if (flag == "--replay") have = f.value(a.replay);
    else if (flag == "--dump") have = f.value(a.dump_dir);
    else if (flag == "--verbose") a.verbose = true;
    else if (flag == "--faults") a.faults = true;
    else if (flag == "--tree") have = f.value(a.tree_file);
    else if (flag == "--skew-bound")
      have = f.number(a.skew_bound, log::at_least(0.0));
    else if (flag == "--log-json") have = f.value(a.log_json);
    else if (flag == "--log-level") have = f.value(a.log_level);
    else {
      std::cerr << "unknown flag: " << flag << '\n';
      return std::nullopt;
    }
    if (!have) return std::nullopt;
  }
  return a;
}

int report_diff(const verify::DiffStats& stats, bool replayed) {
  std::cout << "designs " << stats.designs << ", routes " << stats.routes
            << ", activity cross-checks " << stats.activity_checks
            << ", failures " << stats.failures.size() << '\n';
  for (const verify::DiffFailure& f : stats.failures) {
    std::cout << "FAIL seed " << f.spec.seed << " [" << f.stage << "] "
              << f.message << '\n';
    if (!f.report.ok()) std::cout << f.report.summary();
    if (!replayed)
      std::cout << "  replay: gcr_check --replay " << f.spec.seed << '\n';
  }
  if (stats.ok()) std::cout << "all invariants hold\n";
  // A failed cross-check means what the tool verified is broken: internal.
  return stats.ok() ? guard::kExitOk : guard::kExitInternal;
}

int run_tree_mode(const Args& a) {
  std::ifstream is(a.tree_file);
  if (!is) {
    GCR_LOG_ERROR("check.io").msg("cannot open " + a.tree_file);
    return guard::kExitInvalidInput;
  }
  guard::Diag diag;
  const std::optional<ct::RoutedTree> tree =
      io::read_routed_tree(is, diag, a.tree_file);
  // Parse diagnostics already reached stderr + the event log through the
  // guard bridge as they were reported.
  if (!tree) return diag.exit_code();
  const verify::Report rep =
      verify::verify_tree(*tree, tech::TechParams{}, a.skew_bound);
  std::cout << rep.summary() << '\n';
  return rep.ok() ? guard::kExitOk : guard::kExitInternal;
}

// ---------------------------------------------------------------------------
// Fault-injection harness (--faults).

/// One reference payload in a known text format.
struct Payload {
  const char* name;
  std::string text;
};

/// Parse `text` through the matching reader into `diag`; which parser runs
/// is picked by the payload name.
void parse_payload(const Payload& p, std::istream& is, guard::Diag& diag) {
  if (std::strcmp(p.name, "sinks") == 0) {
    (void)io::read_sinks(is, diag, p.name);
  } else if (std::strcmp(p.name, "rtl") == 0) {
    (void)io::read_rtl(is, diag, p.name);
  } else if (std::strcmp(p.name, "stream") == 0) {
    (void)io::read_stream(is, diag, p.name);
  } else {
    (void)io::read_routed_tree(is, diag, p.name);
  }
}

/// Disarm the global injector on every exit path of the harness.
struct DisarmOnExit {
  ~DisarmOnExit() { guard::FaultInjector::global().disarm(); }
};

int run_faults_mode(std::uint64_t seed, bool verbose) {
  // The sweeps below report thousands of *intentional* diagnostics; with
  // the guard bridge live each one would become a warn/error event and a
  // stderr line. Detach the hook for the duration and restore it on exit
  // so only the harness's own findings reach the log.
  const guard::DiagHook prev_hook = guard::set_diag_hook(nullptr);
  struct RestoreHook {
    guard::DiagHook prev;
    ~RestoreHook() { guard::set_diag_hook(prev); }
  } restore_hook{prev_hook};

  // Reference payloads: a generated design's three text files plus a small
  // routed tree, all written by the library's own writers so every byte
  // offset is a legal cut point of a valid file.
  verify::DesignSpec spec = verify::random_spec(seed);
  if (spec.num_sinks < 24) spec.num_sinks = 24;  // keep payloads multi-line
  const core::Design design = verify::generate_design(spec);

  std::vector<Payload> payloads;
  {
    std::ostringstream os;
    io::write_sinks(os, design.die, design.sinks);
    payloads.push_back({"sinks", os.str()});
  }
  {
    std::ostringstream os;
    io::write_rtl(os, design.rtl);
    payloads.push_back({"rtl", os.str()});
  }
  {
    std::ostringstream os;
    io::write_stream(os, design.stream);
    payloads.push_back({"stream", os.str()});
  }
  {
    core::Design copy = design;
    const core::GatedClockRouter router(std::move(copy));
    core::RouterOptions opts;
    opts.style = core::TreeStyle::Gated;
    const core::RouterResult r = router.route(opts);
    std::ostringstream os;
    io::write_routed_tree(os, r.tree);
    payloads.push_back({"tree", os.str()});
  }

  std::uint64_t trials = 0;    // parse attempts under an injected fault
  std::uint64_t points = 0;    // injection points actually exercised
  std::uint64_t fired = 0;     // faults that fired
  std::uint64_t crashes = 0;   // exceptions escaping a hardened parser
  // payload -> fault sites the nth-visit sweep fired in it
  std::map<std::string, std::set<std::string>> fired_sites;
  const auto crash = [&](const char* kind, const Payload& p, std::size_t at,
                         const char* what) {
    ++crashes;
    GCR_LOG_ERROR("faults.crash")
        .kv("kind", kind)
        .kv("payload", p.name)
        .kv("at", static_cast<std::uint64_t>(at))
        .msg(what);
  };

  // Sweep 1+2: short reads. Cut each payload at evenly spaced byte offsets;
  // Truncate models a file that simply ends, Fail models a device error
  // mid-read (badbit). Both must come back as diagnostics.
  constexpr int kCuts = 25;
  for (const Payload& p : payloads) {
    for (const auto mode : {guard::ShortReadStreambuf::Mode::Truncate,
                            guard::ShortReadStreambuf::Mode::Fail}) {
      for (int k = 0; k < kCuts; ++k) {
        const std::size_t cut = p.text.size() * static_cast<std::size_t>(k) /
                                static_cast<std::size_t>(kCuts);
        guard::ShortReadStream is(p.text, cut, mode);
        guard::Diag diag;
        ++trials;
        ++points;
        try {
          parse_payload(p, is, diag);
        } catch (const std::exception& e) {
          crash(mode == guard::ShortReadStreambuf::Mode::Fail ? "short-read"
                                                              : "truncate",
                p, cut, e.what());
        }
        if (is.tripped()) {
          ++fired;
          if (mode == guard::ShortReadStreambuf::Mode::Fail &&
              !diag.has_code(guard::Code::Io))
            crash("short-read", p, cut,
                  "injected stream failure not reported as GCR_E_IO");
        }
      }
    }
  }

  // Sweep 3: deterministic nth-visit faults at the arena/lexer fault
  // points. Every fired fault must surface as GCR_E_RESOURCE or GCR_E_IO.
  guard::FaultInjector& inj = guard::FaultInjector::global();
  const DisarmOnExit disarm;
  constexpr std::uint64_t kNth = 48;
  for (std::uint64_t nth = 1; nth <= kNth; ++nth) {
    for (const Payload& p : payloads) {
      inj.arm({seed + nth, nth, 0.0});
      std::istringstream is(p.text);
      guard::Diag diag;
      ++trials;
      try {
        parse_payload(p, is, diag);
      } catch (const std::exception& e) {
        crash("inject-nth", p, nth, e.what());
      }
      points += inj.points_visited();
      if (inj.faults_fired() > 0) {
        ++fired;
        fired_sites[p.name].insert(inj.last_site());
        if (!diag.has_code(guard::Code::Resource) &&
            !diag.has_code(guard::Code::Io))
          crash("inject-nth", p, nth,
                "injected fault produced no resource/io diagnostic");
      }
    }
  }

  // Sweep 4: Bernoulli faults at a few probabilities -- the soak shape the
  // deterministic sweep cannot produce (multiple faults in one parse).
  for (const double prob : {0.02, 0.1, 0.5}) {
    for (const Payload& p : payloads) {
      inj.arm({seed ^ 0x9e3779b97f4a7c15ULL, 0, prob});
      std::istringstream is(p.text);
      guard::Diag diag;
      ++trials;
      try {
        parse_payload(p, is, diag);
      } catch (const std::exception& e) {
        crash("inject-prob", p, static_cast<std::size_t>(prob * 100),
              e.what());
      }
      points += inj.points_visited();
      fired += inj.faults_fired() > 0 ? 1 : 0;
    }
  }
  inj.disarm();

  if (verbose) {
    for (const Payload& p : payloads) {
      GCR_LOG_DEBUG("faults.payload")
          .kv("name", p.name)
          .kv("bytes", static_cast<std::uint64_t>(p.text.size()));
    }
  }

  // Every injected fault left a FaultHit event in the flight recorder;
  // dump the tail so a CI failure in this harness comes with the exact
  // fault sequence that led up to it (and CI asserts the file exists).
  {
    const std::string fr = "gcr_check_faults.flightrec.json";
    if (guard::postmortem_dump(fr)) {
      GCR_LOG_WARN("faults.flightrec").kv("path", fr);
    }
  }
  GCR_LOG_INFO("faults.summary")
      .kv("trials", trials)
      .kv("points", points)
      .kv("fired", fired)
      .kv("crashes", crashes);
  std::cout << "fault injection: " << trials << " trials, " << points
            << " injection points, " << fired << " faults fired, " << crashes
            << " crashes\n";
  if (crashes > 0) return guard::kExitInternal;
  if (points < 200) {
    GCR_LOG_ERROR("faults.coverage")
        .msg("fault harness exercised fewer than 200 injection points");
    return guard::kExitInternal;
  }
  // Each parser path must stay reachable by both in-process fault sites:
  // the file's one arena allocation and the per-line read.
  for (const Payload& p : payloads) {
    for (const char* site : {"arena.alloc", "lexer.read"}) {
      if (fired_sites[p.name].count(site) == 0) {
        GCR_LOG_ERROR("faults.coverage")
            .kv("payload", p.name)
            .kv("site", site)
            .msg("no nth-visit fault fired at this site");
        return guard::kExitInternal;
      }
    }
  }
  std::cout << "all injected faults surfaced as diagnostics\n";
  return guard::kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  log::FlagReader flags(argc, argv);
  const std::optional<Args> parsed = parse(flags);
  if (!parsed) {
    usage();
    return guard::kExitUsage;
  }
  const Args& a = *parsed;
  // Replay is an interactive diagnosis loop: per-design debug events are
  // the whole point, so it gets the verbose floor automatically.
  const bool debug_floor = a.verbose || !a.replay.empty();
  const log::CliLogger logger({a.log_json, a.log_level, debug_floor});
  if (!logger.ok()) {
    GCR_LOG_ERROR("cli.log_open_failed").kv("path", a.log_json);
  }
  if (flags.bad()) return flags.report_bad();
  try {
    if (a.faults) return run_faults_mode(a.seed, a.verbose);
    if (!a.tree_file.empty()) return run_tree_mode(a);
    if (!a.replay.empty()) {
      std::uint64_t seed = 0;
      if (!guard::parse_number(a.replay, seed)) {
        std::ifstream is(a.replay);
        if (!is) {
          GCR_LOG_ERROR("check.io")
              .msg("cannot open replay artifact " + a.replay);
          return guard::kExitInvalidInput;
        }
        const guard::Result<verify::DesignSpec> spec =
            verify::load_design_artifact(is, a.replay);
        if (!spec) {
          GCR_LOG_ERROR("check.replay_artifact")
              .msg(spec.status().to_string());
          return guard::exit_code_for(spec.status().code);
        }
        seed = spec.value().seed;
        GCR_LOG_INFO("check.replay")
            .kv("artifact", a.replay)
            .kv("seed", seed);
      }
      verify::DiffOptions opts;
      opts.explicit_seeds = {seed};
      opts.dump_dir = a.dump_dir;
      return report_diff(verify::run_differential(opts), true);
    }
    if (a.index_diff_designs > 0) {
      verify::IndexDiffOptions opts;
      opts.num_designs = a.index_diff_designs;
      opts.seed = a.seed;
      opts.dump_dir = a.dump_dir;
      return report_diff(verify::run_index_differential(opts), false);
    }
    if (a.eco_diff_designs > 0) {
      verify::EcoDiffOptions opts;
      opts.num_designs = a.eco_diff_designs;
      opts.seed = a.seed;
      opts.dump_dir = a.dump_dir;
      return report_diff(verify::run_eco_differential(opts), false);
    }
    if (a.random_designs > 0) {
      verify::DiffOptions opts;
      opts.num_designs = a.random_designs;
      opts.seed = a.seed;
      opts.dump_dir = a.dump_dir;
      return report_diff(verify::run_differential(opts), false);
    }
  } catch (const guard::GuardError& e) {
    GCR_LOG_ERROR("cli.guard_error").msg(e.status().to_string());
    return guard::exit_code_for(e.status().code);
  } catch (const std::exception& e) {
    GCR_LOG_ERROR("cli.internal_error").msg(e.what());
    return guard::kExitInternal;
  }
  usage();
  return guard::kExitUsage;
}
