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
#include <cstdlib>
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
  std::string policy = "shed";
  std::size_t cache_capacity = 64;
  int threads = 1;
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
         "  --threads N          clustered-build width for requests with\n"
         "                       threads=0 (default 1). Serve requests\n"
         "                       route flat, so it has no effect\n"
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

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (flag == "--reqs") {
      if (const char* v = next()) a.reqs = v; else return std::nullopt;
    } else if (flag == "--stdin") {
      a.from_stdin = true;
    } else if (flag == "--workers") {
      if (const char* v = next()) a.workers = std::atoi(v); else return std::nullopt;
    } else if (flag == "--queue-depth") {
      if (const char* v = next()) a.queue_depth = static_cast<std::size_t>(std::atol(v)); else return std::nullopt;
    } else if (flag == "--policy") {
      if (const char* v = next()) a.policy = v; else return std::nullopt;
    } else if (flag == "--cache-capacity") {
      if (const char* v = next()) a.cache_capacity = static_cast<std::size_t>(std::atol(v)); else return std::nullopt;
    } else if (flag == "--threads") {
      if (const char* v = next()) a.threads = std::atoi(v); else return std::nullopt;
    } else if (flag == "--deadline-ms") {
      if (const char* v = next()) a.deadline_ms = std::atof(v); else return std::nullopt;
    } else if (flag == "--base-dir") {
      if (const char* v = next()) a.base_dir = v; else return std::nullopt;
    } else if (flag == "--trees") {
      if (const char* v = next()) a.trees_dir = v; else return std::nullopt;
    } else if (flag == "--faults") {
      if (const char* v = next()) a.fault_seed = std::strtoull(v, nullptr, 10); else return std::nullopt;
    } else if (flag == "--fault-prob") {
      if (const char* v = next()) a.fault_prob = std::atof(v); else return std::nullopt;
    } else if (flag == "--race") {
      if (const char* v = next()) a.race = std::atoi(v); else return std::nullopt;
    } else if (flag == "--log-json") {
      if (const char* v = next()) a.log_json = v; else return std::nullopt;
    } else if (flag == "--log-level") {
      if (const char* v = next()) a.log_level = v; else return std::nullopt;
    } else if (flag == "--verbose") {
      a.verbose = true;
    } else {
      std::cerr << "unknown flag: " << flag << '\n';
      return std::nullopt;
    }
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
  const std::optional<Args> parsed = parse(argc, argv);
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
  if (a.policy != "shed" && a.policy != "block") {
    std::cerr << "bad --policy: " << a.policy << " (shed|block)\n";
    return guard::kExitUsage;
  }

  const log::CliLogger logger({a.log_json, a.log_level, a.verbose});
  if (!logger.ok()) {
    GCR_LOG_ERROR("cli.log_open_failed").kv("path", a.log_json);
  }

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
  sopts.policy = a.policy == "block" ? serve::AdmitPolicy::Block
                                     : serve::AdmitPolicy::Shed;
  sopts.design_cache_capacity = a.cache_capacity;
  sopts.result_cache_capacity = a.cache_capacity;
  sopts.default_deadline_ms = a.deadline_ms;
  sopts.route_threads = a.threads;
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
  racers.reserve(static_cast<std::size_t>(std::max(0, a.race)));
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
