/// \file gcr_serve.cpp
/// Batch routing service driver (docs/serving.md): drain a `.reqs` batch
/// through gcr::serve::BatchService -- bounded admission, per-request
/// deadlines and fault isolation, content-hash caching -- and report one
/// outcome line per request.
///
/// Usage:
///   gcr_serve --reqs FILE [options]
///   gcr_serve --stdin [options]      (read the batch from stdin)
///
/// SIGINT/SIGTERM stop admission: already-admitted requests complete, the
/// rest of the batch sheds with GCR_E_OVERLOAD, then the service drains
/// and exits under the normal contract.
///
/// Exit code: the worst per-request contract code across the batch --
/// 0 all served, 1 usage, 2 a request's input was invalid, 3 a request
/// was shed or expired, 4 an internal error was confined to a request.

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "guard/fault.h"
#include "guard/postmortem.h"
#include "guard/status.h"
#include "io/reqs_io.h"
#include "io/tree_io.h"
#include "log/flags.h"
#include "log/logger.h"
#include "serve/service.h"

using namespace gcr;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

struct Args {
  std::string reqs;
  bool from_stdin = false;
  int workers = 2;
  std::size_t queue_depth = 64;
  serve::AdmitPolicy policy = serve::AdmitPolicy::Shed;
  std::size_t cache_capacity = 64;
  double deadline_ms = -1.0;
  std::string base_dir;
  std::string trees_dir;
  std::optional<std::uint64_t> fault_seed;
  double fault_prob = 0.0;  // 0 with --faults = nth-visit mode, nth = seed
  int race = 0;             // > 0: N extra submitter threads, full batch each
  std::string log_json;
  std::string log_level;
  bool verbose = false;
};

void usage() {
  std::cerr
      << "usage: gcr_serve --reqs FILE [options]\n"
         "       gcr_serve --stdin [options]\n"
         "options:\n"
         "  --workers N          request lanes (default 2)\n"
         "  --queue-depth N      admission queue bound (default 64)\n"
         "  --policy shed|block  full-queue policy: reject with\n"
         "                       GCR_E_OVERLOAD or park the submitter\n"
         "                       (default shed)\n"
         "  --cache-capacity N   bounded LRU capacity for the design and\n"
         "                       result caches (default 64; 0 disables)\n"
         "  --deadline-ms MS     budget for requests without their own\n"
         "                       deadline_ms (< 0 = unlimited)\n"
         "  --base-dir DIR       resolve relative request paths against\n"
         "                       DIR (default: the --reqs file's directory)\n"
         "  --trees DIR          write each completed request's routed\n"
         "                       tree to DIR/<id>.tree\n"
         "  --faults SEED        arm deterministic fault injection for the\n"
         "                       whole batch (serve.enqueue, serve.read,\n"
         "                       lexer/arena sites); with no --fault-prob,\n"
         "                       fires exactly at visit number SEED\n"
         "  --fault-prob P       with --faults: fire each visited point\n"
         "                       with probability P instead\n"
         "  --race N             N extra threads each submit the full batch\n"
         "                       concurrently (admission stress; extra\n"
         "                       copies count toward shed/served totals)\n"
         "  --log-json FILE      structured gcr.event JSONL log\n"
         "  --log-level L        trace|debug|info|warn|error|off\n"
         "  --verbose            event mirror on stderr\n"
         "exit codes: 0 ok, 1 usage, 2 invalid input, 3 shed/deadline,\n"
         "            4 internal error\n";
}

/// Flag values that fail their checks are left on `f` (see log/flags.h);
/// nullopt is a usage error.
std::optional<Args> parse(log::FlagReader& f) {
  Args a;
  while (f.next()) {
    const std::string& flag = f.flag();
    bool have = true;  // false: the flag's value is missing
    if (flag == "--reqs") have = f.value(a.reqs);
    else if (flag == "--stdin") a.from_stdin = true;
    else if (flag == "--workers") have = f.number(a.workers, log::at_least(1));
    else if (flag == "--queue-depth") have = f.number(a.queue_depth);
    else if (flag == "--policy")
      have = f.value(a.policy, [](std::string_view v) {
        return v == "shed"    ? std::optional(serve::AdmitPolicy::Shed)
               : v == "block" ? std::optional(serve::AdmitPolicy::Block)
                              : std::nullopt;
      });
    else if (flag == "--cache-capacity") have = f.number(a.cache_capacity);
    else if (flag == "--deadline-ms") have = f.number(a.deadline_ms);
    else if (flag == "--base-dir") have = f.value(a.base_dir);
    else if (flag == "--trees") have = f.value(a.trees_dir);
    else if (flag == "--faults") have = f.number(a.fault_seed);
    else if (flag == "--fault-prob")
      have = f.number(a.fault_prob, log::between(0.0, 1.0));
    else if (flag == "--race") have = f.number(a.race, log::at_least(0));
    else if (flag == "--log-json") have = f.value(a.log_json);
    else if (flag == "--log-level") have = f.value(a.log_level);
    else if (flag == "--verbose") a.verbose = true;
    else {
      std::cerr << "unknown flag: " << flag << '\n';
      return std::nullopt;
    }
    if (!have) return std::nullopt;
  }
  return a;
}

struct DisarmOnExit {
  ~DisarmOnExit() { guard::FaultInjector::global().disarm(); }
};

void print_outcome(const serve::RequestOutcome& o) {
  std::ostringstream line;
  line << "req id=" << o.id << " seq=" << o.seq
       << " state=" << serve::state_name(o.state) << " code="
       << (o.code == guard::Code::Ok ? std::string_view("-")
                                     : guard::code_name(o.code))
       << " exit=" << o.exit_code() << " cache=" << (o.cache_hit ? 1 : 0)
       << " eco=" << (o.eco ? 1 : 0) << " elapsed_ms=" << o.elapsed_ms;
  if (!o.message.empty() && !o.ok()) line << "  # " << o.message;
  std::cout << line.str() << '\n';
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
  const bool one_source = a.reqs.empty() != !a.from_stdin;
  if (!one_source) {
    usage();
    return guard::kExitUsage;
  }

  const log::CliLogger logger({a.log_json, a.log_level, a.verbose});
  if (!logger.ok()) {
    GCR_LOG_ERROR("cli.log_open_failed").kv("path", a.log_json);
  }
  if (flags.bad()) return flags.report_bad();

  // Parse the batch before anything is armed or spawned: a malformed
  // batch is a submission error (exit 2), not a serving failure.
  guard::Diag diag;
  std::optional<std::vector<io::RouteRequest>> batch;
  if (a.from_stdin) {
    batch = io::read_reqs(std::cin, diag, "<stdin>");
  } else {
    std::ifstream is(a.reqs);
    if (!is) {
      diag.error(guard::Code::Io, "cannot open " + a.reqs);
    } else {
      batch = io::read_reqs(is, diag, a.reqs);
    }
  }
  if (!batch) return diag.exit_code();

  serve::ServeOptions sopts;
  sopts.workers = a.workers;
  sopts.queue_capacity = a.queue_depth;
  sopts.policy = a.policy;
  sopts.design_cache_capacity = a.cache_capacity;
  sopts.result_cache_capacity = a.cache_capacity;
  sopts.default_deadline_ms = a.deadline_ms;
  sopts.base_dir = a.base_dir;
  if (sopts.base_dir.empty() && !a.reqs.empty()) {
    const std::size_t slash = a.reqs.find_last_of('/');
    if (slash != std::string::npos) sopts.base_dir = a.reqs.substr(0, slash);
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  DisarmOnExit disarm;
  if (a.fault_seed) {
    guard::install_postmortem("gcr_serve.flightrec.json");
    guard::FaultPlan plan;
    plan.seed = *a.fault_seed;
    if (a.fault_prob > 0.0) {
      plan.probability = a.fault_prob;
    } else {
      plan.nth = *a.fault_seed == 0 ? 1 : *a.fault_seed;
    }
    guard::FaultInjector::global().arm(plan);
    GCR_LOG_INFO("serve.faults_armed")
        .kv("seed", *a.fault_seed)
        .kv("prob", a.fault_prob);
  }

  serve::BatchService service(sopts);
  service.start();

  // Submission: the main thread walks the batch once; --race adds N
  // threads doing the same concurrently, so admission, shedding and the
  // caches are exercised under real contention. A signal stops admission
  // mid-walk -- the rest of the batch sheds via the draining path.
  const auto submit_all = [&service, &batch] {
    for (const io::RouteRequest& r : *batch) {
      if (g_stop) {
        service.begin_drain();
        GCR_LOG_WARN("serve.signal").msg("admission stopped by signal");
      }
      (void)service.submit(r);
    }
  };
  std::vector<std::thread> racers;
  racers.reserve(static_cast<std::size_t>(a.race));
  for (int i = 0; i < a.race; ++i) racers.emplace_back(submit_all);
  submit_all();
  for (std::thread& t : racers) t.join();
  service.drain();

  const std::uint64_t faults_fired =
      guard::FaultInjector::global().faults_fired();
  guard::FaultInjector::global().disarm();

  std::vector<serve::RequestOutcome> outcomes = service.take_outcomes();
  std::sort(outcomes.begin(), outcomes.end(),
            [](const serve::RequestOutcome& x, const serve::RequestOutcome& y) {
              return x.seq < y.seq;
            });

  int worst = guard::kExitOk;
  if (!a.trees_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(a.trees_dir, ec);
    if (ec) {
      std::cerr << "cannot create " << a.trees_dir << ": " << ec.message()
                << '\n';
      worst = guard::kExitInvalidInput;
    }
  }
  std::unordered_set<std::string> trees_written;
  for (const serve::RequestOutcome& o : outcomes) {
    print_outcome(o);
    worst = std::max(worst, o.exit_code());
    if (o.ok() && !a.trees_dir.empty() && o.result != nullptr &&
        trees_written.insert(o.id).second) {
      const std::string path = a.trees_dir + "/" + o.id + ".tree";
      std::ofstream os(path);
      if (os) {
        io::write_routed_tree(os, o.result->tree);
      } else {
        std::cerr << "cannot write " << path << '\n';
        worst = std::max(worst, guard::kExitInvalidInput);
      }
    }
  }

  const serve::ServeStats st = service.stats();
  std::cout << "serve: " << st.submitted << " submitted: " << st.done
            << " done, " << st.shed << " shed, " << st.expired << " expired, "
            << st.invalid << " invalid, " << st.errors << " errors"
            << "; result cache " << st.result_cache.hits << "/"
            << (st.result_cache.hits + st.result_cache.misses) << " hits, "
            << st.result_cache.evictions << " evicted"
            << "; faults fired " << faults_fired << '\n';
  return worst;
}
