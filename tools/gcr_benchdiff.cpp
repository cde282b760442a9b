/// \file gcr_benchdiff.cpp
/// Compare two sets of `BENCH_*.json` bench reports (perf/diff.h) or
/// validate bench reports and run reports against their v2 schemas.
///
/// Usage:
///   gcr_benchdiff OLD NEW [--threshold 5%] [--noise-mads K] [--report-only]
///   gcr_benchdiff --validate FILE...
///
/// OLD and NEW are directories holding `BENCH_*.json` sidecars (paired by
/// file name) or two individual report files. A benchmark regresses only
/// when its median slows by more than the threshold AND by more than K MADs
/// of either run's repetition scatter -- see perf/diff.h.
///
/// Exit codes follow the shared CLI contract (docs/robustness.md):
/// 0 no regression (or --report-only / all files valid), 1 usage,
/// 2 unreadable or invalid report files, 4 regression found.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "log/logger.h"
#include "obs/json.h"
#include "obs/report.h"
#include "perf/diff.h"

namespace fs = std::filesystem;
using namespace gcr;

namespace {

std::optional<std::string> read_file(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  if (!is) return std::nullopt;
  std::ostringstream ss;
  ss << is.rdbuf();
  return std::move(ss).str();
}

/// BENCH_*.json files directly in `dir`, sorted by file name.
std::vector<fs::path> report_files(const fs::path& dir) {
  std::vector<fs::path> out;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (!e.is_regular_file()) continue;
    const std::string name = e.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
        name.substr(name.size() - 5) == ".json")
      out.push_back(e.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// "5%" -> 0.05, "0.05" -> 0.05; nullopt on junk.
std::optional<double> parse_threshold(const std::string& s) {
  if (s.empty()) return std::nullopt;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str()) return std::nullopt;
  if (*end == '%') {
    v /= 100.0;
    ++end;
  }
  if (*end != '\0' || v < 0.0) return std::nullopt;
  return v;
}

void usage() {
  std::cerr
      << "usage: gcr_benchdiff OLD NEW [--threshold P%] [--noise-mads K]"
         " [--min-delta MS] [--report-only]\n"
         "       gcr_benchdiff --validate FILE...\n"
         "OLD/NEW: directories of BENCH_*.json sidecars, or two files.\n"
         "exit codes: 0 ok, 1 usage, 2 bad report file, 4 regression\n";
}

int validate_mode(const std::vector<std::string>& files) {
  int bad = 0;
  for (const std::string& f : files) {
    const std::optional<std::string> text = read_file(f);
    if (!text) {
      GCR_LOG_ERROR("benchdiff.invalid_report").kv("file", f).msg("cannot read");
      ++bad;
      continue;
    }
    const std::optional<obs::json::Value> doc = obs::json::parse(*text);
    if (!doc) {
      GCR_LOG_ERROR("benchdiff.invalid_report")
          .kv("file", f)
          .msg("not valid JSON");
      ++bad;
      continue;
    }
    // Dispatch on the document's own "schema" field so bench reports and
    // run reports (gcr_route --report, gcr_bench's PROF_ sidecars) ride the
    // same --validate invocation; an unknown or missing schema falls through
    // to the bench validator, whose first problem names the mismatch.
    const obs::json::Value* schema =
        doc->is_object() ? doc->find("schema") : nullptr;
    const bool is_run = schema && schema->is_string() &&
                        schema->as_string() == "gcr.run_report";
    const std::vector<std::string> problems =
        is_run ? obs::validate_run_report(*doc)
               : perf::validate_bench_report(*doc);
    if (problems.empty()) {
      // Valid shape; still surface hygiene warnings (a "-dirty" fingerprint
      // means no commit reproduces the numbers -- fine for a local run, a
      // bug in a committed baseline).
      std::cout << f << ": ok\n";
      for (const std::string& w : perf::report_fingerprint_warnings(*doc))
        GCR_LOG_WARN("benchdiff.fingerprint").kv("file", f).msg(w);
    } else {
      for (const std::string& p : problems)
        GCR_LOG_ERROR("benchdiff.invalid_report").kv("file", f).msg(p);
      ++bad;
    }
  }
  return bad > 0 ? 2 : 0;  // malformed report files are invalid input
}

std::optional<perf::LoadedReport> load(const fs::path& p) {
  const std::optional<std::string> text = read_file(p);
  if (!text) {
    GCR_LOG_ERROR("benchdiff.invalid_report")
        .kv("file", p.string())
        .msg("cannot read");
    return std::nullopt;
  }
  std::string error;
  std::optional<perf::LoadedReport> r = perf::load_bench_report(*text, &error);
  if (!r) {
    GCR_LOG_ERROR("benchdiff.invalid_report").kv("file", p.string()).msg(error);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // Same posture as gcr_bench: Warn floor, GCR_LOG / GCR_LOG_LEVEL opt in.
  const log::CliLogger logger({}, log::Level::Warn);
  std::vector<std::string> positional;
  perf::DiffOptions opts;
  bool report_only = false;
  bool validate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--threshold" && i + 1 < argc) {
      const std::optional<double> t = parse_threshold(argv[++i]);
      if (!t) {
        std::cerr << "bad threshold: " << argv[i] << '\n';
        return 1;
      }
      opts.threshold = *t;
    } else if (flag == "--noise-mads" && i + 1 < argc) {
      opts.noise_mads = std::atof(argv[++i]);
    } else if (flag == "--min-delta" && i + 1 < argc) {
      opts.min_delta_ms = std::atof(argv[++i]);
    } else if (flag == "--report-only") {
      report_only = true;
    } else if (flag == "--validate") {
      validate = true;
    } else if (!flag.empty() && flag[0] == '-') {
      usage();
      return 1;
    } else {
      positional.push_back(flag);
    }
  }

  if (validate) {
    if (positional.empty()) {
      usage();
      return 1;
    }
    return validate_mode(positional);
  }

  if (positional.size() != 2) {
    usage();
    return 1;
  }
  const fs::path old_path = positional[0];
  const fs::path new_path = positional[1];

  // Pair up the reports: directory mode matches by file name, file mode
  // compares the two files directly.
  std::vector<std::pair<fs::path, fs::path>> pairs;
  if (fs::is_directory(old_path) && fs::is_directory(new_path)) {
    const std::vector<fs::path> old_files = report_files(old_path);
    if (old_files.empty()) {
      GCR_LOG_ERROR("benchdiff.invalid_report")
          .kv("file", old_path.string())
          .msg("no BENCH_*.json files");
      return 2;
    }
    for (const fs::path& of : old_files) {
      const fs::path nf = new_path / of.filename();
      if (fs::exists(nf)) {
        pairs.emplace_back(of, nf);
      } else {
        std::cout << of.filename().string() << ": missing on the new side\n";
      }
    }
    for (const fs::path& nf : report_files(new_path))
      if (!fs::exists(old_path / nf.filename()))
        std::cout << nf.filename().string() << ": new report (no baseline)\n";
  } else if (fs::is_regular_file(old_path) && fs::is_regular_file(new_path)) {
    pairs.emplace_back(old_path, new_path);
  } else {
    GCR_LOG_ERROR("benchdiff.invalid_report")
        .msg("OLD and NEW must both be directories or both files");
    return 2;
  }

  int regressions = 0;
  bool io_error = false;
  for (const auto& [of, nf] : pairs) {
    const std::optional<perf::LoadedReport> older = load(of);
    const std::optional<perf::LoadedReport> newer = load(nf);
    if (!older || !newer) {
      io_error = true;
      continue;
    }
    std::cout << "== " << of.filename().string() << "  (old " << older->git_sha
              << " -> new " << newer->git_sha << ") ==\n";
    const perf::DiffReport d = perf::diff_reports(*older, *newer, opts);
    perf::print_diff(std::cout, d);
    regressions += d.regressions;
  }
  if (io_error) return 2;
  if (regressions > 0) {
    std::cout << (report_only
                      ? "regressions found (report-only: exit 0)\n"
                      : "regressions found\n");
    return report_only ? 0 : 4;  // a regression means the checked build broke
  }
  return 0;
}
