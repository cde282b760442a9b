#include "obs/report.h"

#include <ostream>
#include <string_view>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report_util.h"

namespace gcr::obs {

namespace {

const char* style_name(core::TreeStyle s) {
  switch (s) {
    case core::TreeStyle::Buffered: return "buffered";
    case core::TreeStyle::Gated: return "gated";
    case core::TreeStyle::GatedReduced: return "reduced";
  }
  return "?";
}

const char* topology_name(core::TopologyScheme t) {
  switch (t) {
    case core::TopologyScheme::MinSwitchedCap: return "swcap";
    case core::TopologyScheme::NearestNeighbor: return "nn";
    case core::TopologyScheme::ActivityOnly: return "activity";
    case core::TopologyScheme::Mmm: return "mmm";
  }
  return "?";
}

void write_options(json::Writer& w, const core::RouterOptions& o) {
  w.key("options").begin_object();
  w.field("style", style_name(o.style));
  w.field("topology", topology_name(o.topology));
  w.field("clustered", o.clustered);
  w.field("auto_tune_reduction", o.auto_tune_reduction);
  w.field("gate_sizing",
          o.gate_sizing == ct::GateSizing::Unit ? "unit" : "min_wirelength");
  w.field("skew_bound", o.skew_bound);
  w.field("controller_partitions", o.controller_partitions);
  w.field("num_threads", o.num_threads);
  w.key("reduction").begin_object();
  w.field("theta_activity", o.reduction.theta_activity);
  w.field("theta_swcap", o.reduction.theta_swcap);
  w.field("theta_parent", o.reduction.theta_parent);
  w.field("force_cap_multiple", o.reduction.force_cap_multiple);
  w.end_object();
  w.key("tech").begin_object();
  w.field("unit_res", o.tech.unit_res);
  w.field("unit_cap", o.tech.unit_cap);
  w.field("wire_width", o.tech.wire_width);
  w.field("gate_input_cap", o.tech.gate_input_cap);
  w.field("gate_enable_cap", o.tech.gate_enable_cap);
  w.field("gate_output_res", o.tech.gate_output_res);
  w.field("gate_delay", o.tech.gate_delay);
  w.field("gate_area", o.tech.gate_area);
  w.field("or_gate_area", o.tech.or_gate_area);
  w.field("or_output_cap", o.tech.or_output_cap);
  w.end_object();
  w.end_object();
}

void write_result(json::Writer& w, const core::RouterResult& r) {
  w.key("result").begin_object();
  w.field("sinks", r.tree.num_leaves);
  w.field("nodes", r.tree.num_nodes());
  w.field("num_gates", r.tree.num_gates());
  w.field("gates_before_reduction", r.gates_before_reduction);
  w.field("gate_reduction_pct", r.gate_reduction_pct());
  w.key("swcap").begin_object();
  w.field("clock_swcap", r.swcap.clock_swcap);
  w.field("ctrl_swcap", r.swcap.ctrl_swcap);
  w.field("total_swcap", r.swcap.total_swcap());
  w.field("ungated_swcap", r.swcap.ungated_swcap);
  w.field("clock_wirelength", r.swcap.clock_wirelength);
  w.field("star_wirelength", r.swcap.star_wirelength);
  w.field("wire_area", r.swcap.wire_area);
  w.field("cell_area", r.swcap.cell_area);
  w.field("total_area", r.swcap.total_area());
  w.field("num_cells", r.swcap.num_cells);
  w.end_object();
  w.key("delays").begin_object();
  w.field("max_delay", r.delays.max_delay);
  w.field("min_delay", r.delays.min_delay);
  w.field("skew", r.delays.skew());
  w.end_object();
  w.end_object();
}

void write_sampler(json::Writer& w, const prof::Ticker::Profile& p,
                   const prof::HwInfo& hw) {
  w.key("sampler").begin_object();
  w.field("interval_us", p.interval_us);
  w.field("ticks", p.ticks);
  w.field("torn", p.torn);
  w.key("profile").begin_array();
  for (const prof::Ticker::Entry& e : p.entries) {
    w.begin_object();
    w.field("phase", e.phase);
    w.field("self", e.self);
    w.field("total", e.total);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  // The explicit fallback marker: consumers must not read rusage deltas as
  // PMU counts (see report.h).
  w.field("hw", hw.perf_event ? "perf_event" : "unavailable");
  w.field("hw_source", hw.source);
  w.key("hw_counters").begin_array();
  for (const char* name : hw.names) w.value(name);
  w.end_array();
}

using json::Value;

bool is_number_field(const Value& obj, std::string_view key) {
  const Value* v = obj.find(key);
  return v && v->is_number();
}

bool is_string_field(const Value& obj, std::string_view key) {
  const Value* v = obj.find(key);
  return v && v->is_string();
}

bool is_object_field(const Value& obj, std::string_view key) {
  const Value* v = obj.find(key);
  return v && v->is_object();
}

void validate_sampler(const Value& doc, std::vector<std::string>& problems) {
  const Value& sampler = *doc.find("sampler");
  if (!sampler.is_object()) {
    problems.emplace_back("sampler is not an object");
    return;
  }
  for (const char* key : {"interval_us", "ticks", "torn"})
    if (!is_number_field(sampler, key))
      problems.push_back(std::string("sampler.") + key + " missing");
  const Value* profile = sampler.find("profile");
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
      if (!is_number_field(e, "self")) problems.push_back(at + ".self missing");
      if (!is_number_field(e, "total"))
        problems.push_back(at + ".total missing");
    }
  } else {
    problems.emplace_back("missing sampler.profile array");
  }

  const Value* hw = doc.find("hw");
  if (!hw || !hw->is_string() ||
      (hw->as_string() != "perf_event" && hw->as_string() != "unavailable"))
    problems.emplace_back("hw must be \"perf_event\" or \"unavailable\"");
  if (!is_string_field(doc, "hw_source"))
    problems.emplace_back("missing hw_source string");
  const Value* hw_counters = doc.find("hw_counters");
  if (hw_counters && hw_counters->is_array()) {
    if (hw_counters->as_array().size() != 4)
      problems.emplace_back("hw_counters must have 4 slots");
    for (const Value& n : hw_counters->as_array())
      if (!n.is_string()) {
        problems.emplace_back("hw_counters entries must be strings");
        break;
      }
  } else {
    problems.emplace_back("missing hw_counters array");
  }
}

}  // namespace

void write_run_report(std::ostream& os, const Session& session,
                      const RunReport& report) {
  json::Writer w(os);
  w.begin_object();
  w.field("schema", "gcr.run_report");
  w.field("version", kReportVersion);
  w.field("tool", report.tool);
  w.key("generated").begin_object();
  w.field("timestamp_utc", utc_timestamp());
  w.field("hostname", host_name());
  w.end_object();
  if (report.options != nullptr) write_options(w, *report.options);
  write_phase_forest(w, session);
  write_metrics(w);
  if (report.result != nullptr) write_result(w, *report.result);
  if (report.profile != nullptr) write_sampler(w, *report.profile, report.hw);
  w.end_object();
  os << '\n';
}

std::vector<std::string> validate_run_report(const Value& doc) {
  std::vector<std::string> problems;
  if (!doc.is_object()) {
    problems.emplace_back("document is not a JSON object");
    return problems;
  }
  const Value* schema = doc.find("schema");
  if (!schema || !schema->is_string() ||
      schema->as_string() != "gcr.run_report")
    problems.emplace_back("schema != \"gcr.run_report\"");
  const Value* version = doc.find("version");
  if (!version || !version->is_number() ||
      static_cast<int>(version->as_number()) != kReportVersion)
    problems.push_back("version != " + std::to_string(kReportVersion));
  const Value* tool = doc.find("tool");
  if (!tool || !tool->is_string() || tool->as_string().empty())
    problems.emplace_back("missing tool name");
  const Value* generated = doc.find("generated");
  if (generated && generated->is_object()) {
    for (const char* key : {"timestamp_utc", "hostname"})
      if (!is_string_field(*generated, key))
        problems.push_back(std::string("generated.") + key +
                           " missing or not a string");
  } else {
    problems.emplace_back("missing generated object");
  }
  const Value* phases = doc.find("phases");
  if (!phases || !phases->is_array())
    problems.emplace_back("missing phases array");
  for (const char* key : {"counters", "gauges", "histograms"})
    if (!is_object_field(doc, key))
      problems.push_back(std::string("missing ") + key + " object");

  // The routed-run group: both objects or neither.
  const bool options = doc.find("options") != nullptr;
  const bool result = doc.find("result") != nullptr;
  if (options != result)
    problems.emplace_back("options and result must appear together");
  else if (options &&
           !(is_object_field(doc, "options") && is_object_field(doc, "result")))
    problems.emplace_back("options and result must be objects");

  // The profiled-run group: the hw keys ride with the sampler.
  if (doc.find("sampler") != nullptr) validate_sampler(doc, problems);
  return problems;
}

}  // namespace gcr::obs
