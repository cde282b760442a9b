/// \file gcr_events.cpp
/// Consumer for the structured JSONL logs gcr tools emit with --log-json /
/// GCR_LOG: filter, validate and summarize `gcr.event` / `gcr.snapshot`
/// lines (src/log/schema.h, docs/observability.md).
///
/// Usage:
///   gcr_events [FILE|-] [--level L] [--event SUBSTR] [--phase SUBSTR]
///              [--validate] [--summary]
///
///   FILE          JSONL log ("-" or no positional = stdin)
///   --level L     keep events at level L or above (snapshots always pass)
///   --event S     keep events whose name contains S
///   --phase S     keep lines whose phase path contains S
///   --validate    check every line against the v2 schemas; exit 2 on any
///                 violation (malformed log = invalid input)
///   --summary     per-event-name counts, level totals, suppression and
///                 drop accounting, snapshot count and time span
///
/// Default output is the matching lines verbatim (so invocations pipe).
/// With --validate or --summary alone, lines are consumed silently.
///
/// Exit codes: 0 ok, 1 usage, 2 unreadable input or schema violation.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "log/logger.h"
#include "log/schema.h"
#include "obs/json.h"

using namespace gcr;

namespace {

struct Args {
  std::string file;  // "" or "-" = stdin
  std::optional<log::Level> level;
  std::string event_substr;
  std::string phase_substr;
  bool validate = false;
  bool summary = false;
};

void usage() {
  std::cerr
      << "usage: gcr_events [FILE|-] [--level L] [--event SUBSTR]\n"
         "                  [--phase SUBSTR] [--validate] [--summary]\n"
         "FILE is a gcr.event/gcr.snapshot JSONL log (gcr_route --log-json,\n"
         "GCR_LOG=...); no FILE or \"-\" reads stdin. Matching lines print\n"
         "verbatim unless only --validate/--summary are requested.\n"
         "exit codes: 0 ok, 1 usage, 2 unreadable input or invalid line\n";
}

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (flag == "--level") {
      const char* v = next();
      if (!v) return std::nullopt;
      a.level = log::parse_level(v);
      if (!a.level) {
        std::cerr << "bad level: " << v << '\n';
        return std::nullopt;
      }
    } else if (flag == "--event") {
      if (const char* v = next()) a.event_substr = v; else return std::nullopt;
    } else if (flag == "--phase") {
      if (const char* v = next()) a.phase_substr = v; else return std::nullopt;
    } else if (flag == "--validate") {
      a.validate = true;
    } else if (flag == "--summary") {
      a.summary = true;
    } else if (!flag.empty() && flag[0] == '-' && flag != "-") {
      std::cerr << "unknown flag: " << flag << '\n';
      return std::nullopt;
    } else if (a.file.empty()) {
      a.file = flag;
    } else {
      std::cerr << "more than one input file\n";
      return std::nullopt;
    }
  }
  return a;
}

/// Aggregates for --summary, fed line by line.
struct Summary {
  std::uint64_t lines = 0;
  std::uint64_t events = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t suppressed = 0;  // emissions amortized onto kept records
  double first_ms = 0.0;
  double last_ms = 0.0;
  std::map<std::string, std::uint64_t> by_event;
  std::map<std::string, std::uint64_t> by_level;

  void add(const log::LineInfo& info) {
    if (lines == 0) first_ms = info.t_ms;
    ++lines;
    last_ms = info.t_ms;
    if (info.kind == log::LineKind::Snapshot) {
      ++snapshots;
      return;
    }
    ++events;
    ++by_event[info.event];
    ++by_level[info.level];
    suppressed += info.suppressed;
  }

  void print(std::ostream& os) const {
    os << lines << " line(s): " << events << " event(s), " << snapshots
       << " snapshot(s), span " << (last_ms - first_ms) << " ms\n";
    if (!by_level.empty()) {
      os << "by level:\n";
      for (const auto& [level, n] : by_level)
        os << "  " << level << ": " << n << '\n';
    }
    if (!by_event.empty()) {
      os << "by event:\n";
      for (const auto& [event, n] : by_event)
        os << "  " << event << ": " << n << '\n';
    }
    if (suppressed > 0)
      os << suppressed << " rate-limited emission(s) accounted on kept "
            "records\n";
  }
};

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse(argc, argv);
  if (!parsed) {
    usage();
    return 1;
  }
  const Args& a = *parsed;

  std::ifstream file;
  if (!a.file.empty() && a.file != "-") {
    file.open(a.file);
    if (!file) {
      std::cerr << "error: cannot open " << a.file << '\n';
      return 2;
    }
  }
  std::istream& in = file.is_open() ? file : std::cin;

  // Print matches only when the caller didn't reduce the run to a check
  // or a summary (both compose with printing when given alongside a
  // filter-less invocation piped somewhere, but the common CI shape is
  // `--validate --summary` with no line output wanted).
  const bool print_lines = !a.validate && !a.summary;

  Summary summary;
  std::uint64_t invalid = 0;
  std::uint64_t lineno = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::optional<obs::json::Value> doc = obs::json::parse(line);
    if (!doc) {
      std::cerr << "line " << lineno << ": not valid JSON\n";
      ++invalid;
      continue;
    }
    if (a.validate) {
      const std::vector<std::string> problems = log::validate_line(*doc);
      if (!problems.empty()) {
        for (const std::string& p : problems)
          std::cerr << "line " << lineno << ": " << p << '\n';
        ++invalid;
        continue;
      }
    }
    const std::optional<log::LineInfo> info = log::parse_line(*doc);
    if (!info) {
      // Without --validate a malformed-but-parseable line is skipped, not
      // fatal: tail a live log without racing its writer.
      if (a.validate) {
        std::cerr << "line " << lineno << ": unrecognized line shape\n";
        ++invalid;
      }
      continue;
    }

    if (info->kind == log::LineKind::Event) {
      if (a.level) {
        const std::optional<log::Level> l = log::parse_level(info->level);
        if (!l || static_cast<int>(*l) < static_cast<int>(*a.level)) continue;
      }
      if (!a.event_substr.empty() &&
          info->event.find(a.event_substr) == std::string::npos)
        continue;
    }
    if (!a.phase_substr.empty() &&
        info->phase.find(a.phase_substr) == std::string::npos)
      continue;

    summary.add(*info);
    if (print_lines) std::cout << line << '\n';
  }

  if (a.summary) summary.print(std::cout);
  if (a.validate) {
    if (invalid > 0) {
      std::cerr << invalid << " invalid line(s)\n";
      return 2;
    }
    std::cout << lineno << " line(s) valid\n";
  }
  return invalid > 0 ? 2 : 0;
}
