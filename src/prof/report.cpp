#include "prof/report.h"

#include <ostream>
#include <string_view>

#include "obs/report_util.h"
#include "obs/session.h"

namespace gcr::prof {

namespace {

using obs::json::Value;

void require(std::vector<std::string>& problems, bool ok, const char* what) {
  if (!ok) problems.emplace_back(what);
}

bool is_number_field(const Value& obj, std::string_view key) {
  const Value* v = obj.find(key);
  return v && v->is_number();
}

}  // namespace

void write_profile_report(std::ostream& os, const ProfileReportOptions& opts) {
  obs::json::Writer w(os);
  w.begin_object();
  w.field("schema", "gcr.profile_report");
  w.field("version", kProfileReportVersion);
  w.field("tool", opts.tool);
  w.key("generated").begin_object();
  w.field("timestamp_utc", obs::utc_timestamp());
  w.field("hostname", obs::host_name());
  w.end_object();

  w.key("sampler").begin_object();
  if (opts.profile != nullptr) {
    w.field("interval_us", opts.profile->interval_us);
    w.field("ticks", opts.profile->ticks);
    w.field("torn", opts.profile->torn);
    w.key("profile").begin_array();
    for (const Sampler::Entry& e : opts.profile->entries) {
      w.begin_object();
      w.field("phase", e.phase);
      w.field("self", e.self);
      w.field("total", e.total);
      w.end_object();
    }
    w.end_array();
  } else {
    w.field("interval_us", 0);
    w.field("ticks", std::uint64_t{0});
    w.field("torn", std::uint64_t{0});
    w.key("profile").begin_array().end_array();
  }
  w.end_object();

  // The explicit fallback marker: consumers must not read rusage deltas as
  // PMU counts (see report.h).
  w.field("hw", opts.hw.perf_event ? "perf_event" : "unavailable");
  w.field("hw_source", opts.hw.source);
  w.key("hw_counters").begin_array();
  for (const char* name : opts.hw.names) w.value(name);
  w.end_array();

  if (opts.session != nullptr) obs::write_phase_forest(w, *opts.session);
  obs::write_metrics(w);
  w.end_object();
  os << '\n';
}

std::vector<std::string> validate_profile_report(const Value& doc) {
  std::vector<std::string> problems;
  if (!doc.is_object()) {
    problems.emplace_back("document is not a JSON object");
    return problems;
  }
  const Value* schema = doc.find("schema");
  require(problems, schema && schema->is_string() &&
                        schema->as_string() == "gcr.profile_report",
          "schema != \"gcr.profile_report\"");
  const Value* version = doc.find("version");
  require(problems,
          version && version->is_number() &&
              static_cast<int>(version->as_number()) == kProfileReportVersion,
          "version != 2");
  const Value* tool = doc.find("tool");
  require(problems, tool && tool->is_string() && !tool->as_string().empty(),
          "missing tool name");
  // Provenance stamp arrived in a later revision: optional, type-checked
  // when present so old reports stay valid.
  const Value* generated = doc.find("generated");
  if (generated) {
    if (generated->is_object()) {
      for (const char* key : {"timestamp_utc", "hostname"}) {
        const Value* g = generated->find(key);
        if (g && !g->is_string())
          problems.push_back(std::string("generated.") + key +
                             " is not a string");
      }
    } else {
      problems.emplace_back("generated is not an object");
    }
  }

  const Value* sampler = doc.find("sampler");
  if (sampler && sampler->is_object()) {
    require(problems, is_number_field(*sampler, "interval_us"),
            "sampler.interval_us missing");
    require(problems, is_number_field(*sampler, "ticks"),
            "sampler.ticks missing");
    require(problems, is_number_field(*sampler, "torn"),
            "sampler.torn missing");
    const Value* profile = sampler->find("profile");
    if (profile && profile->is_array()) {
      int idx = 0;
      for (const Value& e : profile->as_array()) {
        const std::string at = "sampler.profile[" + std::to_string(idx++) + "]";
        if (!e.is_object()) {
          problems.push_back(at + " is not an object");
          continue;
        }
        const Value* phase = e.find("phase");
        if (!phase || !phase->is_string() || phase->as_string().empty())
          problems.push_back(at + ".phase missing or empty");
        if (!is_number_field(e, "self"))
          problems.push_back(at + ".self missing");
        if (!is_number_field(e, "total"))
          problems.push_back(at + ".total missing");
      }
    } else {
      problems.emplace_back("missing sampler.profile array");
    }
  } else {
    problems.emplace_back("missing sampler object");
  }

  const Value* hw = doc.find("hw");
  require(problems,
          hw && hw->is_string() &&
              (hw->as_string() == "perf_event" ||
               hw->as_string() == "unavailable"),
          "hw must be \"perf_event\" or \"unavailable\"");
  const Value* hw_counters = doc.find("hw_counters");
  if (hw_counters && hw_counters->is_array()) {
    require(problems, hw_counters->as_array().size() == 4,
            "hw_counters must have 4 slots");
    for (const Value& n : hw_counters->as_array())
      if (!n.is_string()) {
        problems.emplace_back("hw_counters entries must be strings");
        break;
      }
  } else {
    problems.emplace_back("missing hw_counters array");
  }

  const Value* counters = doc.find("counters");
  require(problems, counters && counters->is_object(),
          "missing counters object");
  return problems;
}

}  // namespace gcr::prof
