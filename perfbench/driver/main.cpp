/// \file main.cpp
/// gcr_perfbench: the end-to-end routing benchmark (perfbench/README.md).
///
/// Usage:
///   gcr_perfbench --workload route_large|trace_long|serve_eco --seed N
///                 --seconds S --trace 0|1 --work-dir DIR
///                 [--spans-out FILE] [--smoke]
///
/// Generates the workload's input files from the seed under DIR, sets up
/// (references, warm caches), runs closed-loop ops for S seconds and checks
/// every output against its reference. The last stdout line is one JSON
/// object: {"correct", "attempted", "failed", "metrics": {name: {value,
/// unit}}} -- the end-to-end metrics with --trace 0, the per-layer metrics
/// (from a run with spans around every layer call) with --trace 1. Exit 0
/// on success, 1 on usage errors, 2 when setup, a check or the traced
/// decomposition fails (no JSON is printed then).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>

#include "perfbench.h"

using namespace gcr::perfbench;

namespace {

void usage() {
  std::cerr << "usage: gcr_perfbench --workload route_large|trace_long|"
               "serve_eco --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--spans-out FILE] [--smoke]\n";
}

std::optional<RunOptions> parse(int argc, char** argv) {
  RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (v == nullptr) return std::nullopt;
    ++i;
    if (flag == "--workload") o.workload = v;
    else if (flag == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") o.seconds = std::atof(v);
    else if (flag == "--trace") o.trace = std::string(v) == "1";
    else if (flag == "--work-dir") o.work_dir = v;
    else if (flag == "--spans-out") o.spans_out = v;
    else return std::nullopt;
  }
  if (o.workload.empty() || o.work_dir.empty() || !(o.seconds > 0.0))
    return std::nullopt;
  return o;
}

void print_json(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<RunOptions> parsed = parse(argc, argv);
  if (!parsed) {
    usage();
    return 1;
  }
  const RunOptions& o = *parsed;
  RunResult (*run)(const RunOptions&) = nullptr;
  if (o.workload == "route_large") run = run_route_large;
  else if (o.workload == "trace_long") run = run_trace_long;
  else if (o.workload == "serve_eco") run = run_serve_eco;
  if (run == nullptr) {
    std::cerr << "unknown workload: " << o.workload << '\n';
    usage();
    return 1;
  }

  std::error_code ec;
  std::filesystem::create_directories(o.work_dir, ec);
  int rc = 0;
  try {
    const RunResult r = run(o);
    for (const Metric& m : r.metrics)
      if (!std::isfinite(m.value))
        throw std::runtime_error("metric " + m.name + " is not finite");
    for (const std::string& note : r.notes)
      std::cout << o.workload << ": " << note << '\n';
    print_json(r);
  } catch (const std::exception& e) {
    std::cerr << "gcr_perfbench: " << o.workload << ": " << e.what() << '\n';
    rc = 2;
  }
  std::filesystem::remove_all(o.work_dir, ec);
  return rc;
}
