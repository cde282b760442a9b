#include "log/schema.h"

#include "log/logger.h"

namespace gcr::log {

namespace {

using obs::json::Value;

void require(std::vector<std::string>& problems, bool ok, const char* what) {
  if (!ok) problems.emplace_back(what);
}

bool is_string_field(const Value& obj, std::string_view key) {
  const Value* v = obj.find(key);
  return v && v->is_string();
}

bool is_number_field(const Value& obj, std::string_view key) {
  const Value* v = obj.find(key);
  return v && v->is_number();
}

void validate_event(std::vector<std::string>& problems, const Value& doc) {
  const Value* v = doc.find("v");
  require(problems,
          v && v->is_number() &&
              static_cast<int>(v->as_number()) == kEventSchemaVersion,
          "event v != 2");
  require(problems, is_string_field(doc, "run"), "missing run id");
  require(problems, is_number_field(doc, "t_ms"), "missing t_ms");
  require(problems, is_string_field(doc, "wall"), "missing wall timestamp");
  const Value* level = doc.find("level");
  require(problems,
          level && level->is_string() &&
              parse_level(level->as_string()).has_value() &&
              level->as_string() != "off",
          "level missing or not trace/debug/info/warn/error");
  const Value* event = doc.find("event");
  require(problems,
          event && event->is_string() && !event->as_string().empty(),
          "missing event name");
  require(problems, is_string_field(doc, "phase"), "missing phase");
  require(problems, is_number_field(doc, "tid"), "missing tid");
  const Value* data = doc.find("data");
  require(problems, data && data->is_object(), "missing data object");
  const Value* sup = doc.find("suppressed");
  require(problems, sup == nullptr || sup->is_number(),
          "suppressed must be a number");
}

void validate_snapshot(std::vector<std::string>& problems, const Value& doc) {
  const Value* v = doc.find("v");
  require(problems,
          v && v->is_number() &&
              static_cast<int>(v->as_number()) == kSnapshotSchemaVersion,
          "snapshot v != 2");
  require(problems, is_string_field(doc, "run"), "missing run id");
  require(problems, is_number_field(doc, "seq"), "missing seq");
  require(problems, is_number_field(doc, "t_ms"), "missing t_ms");
  require(problems, is_string_field(doc, "wall"), "missing wall timestamp");
  require(problems, is_number_field(doc, "interval_ms"),
          "missing interval_ms");
  for (const char* key : {"counters", "gauges", "histograms"}) {
    const Value* section = doc.find(key);
    if (!section || !section->is_object()) {
      problems.push_back(std::string("missing ") + key + " object");
      continue;
    }
    if (std::string_view(key) != "histograms") {
      for (const auto& [name, val] : section->as_object())
        if (!val.is_number()) {
          problems.push_back(std::string(key) + "." + name +
                             " is not a number");
          break;
        }
    } else {
      for (const auto& [name, val] : section->as_object()) {
        if (!val.is_object() || !is_number_field(val, "count") ||
            !is_number_field(val, "sum")) {
          problems.push_back("histograms." + name +
                             " must carry count and sum");
          break;
        }
      }
    }
  }
  require(problems, is_number_field(doc, "rss_bytes"), "missing rss_bytes");
}

}  // namespace

std::vector<std::string> validate_line(const Value& doc) {
  std::vector<std::string> problems;
  if (!doc.is_object()) {
    problems.emplace_back("line is not a JSON object");
    return problems;
  }
  const Value* schema = doc.find("schema");
  if (!schema || !schema->is_string()) {
    problems.emplace_back("missing schema field");
    return problems;
  }
  const std::string& s = schema->as_string();
  if (s == "gcr.event") {
    validate_event(problems, doc);
  } else if (s == "gcr.snapshot") {
    validate_snapshot(problems, doc);
  } else {
    problems.push_back("unknown schema \"" + s + "\"");
  }
  return problems;
}

std::optional<LineInfo> parse_line(const Value& doc) {
  if (!doc.is_object()) return std::nullopt;
  const Value* schema = doc.find("schema");
  if (!schema || !schema->is_string()) return std::nullopt;
  LineInfo info;
  info.t_ms = doc.number_or("t_ms", 0.0);
  if (schema->as_string() == "gcr.event") {
    info.kind = LineKind::Event;
    if (const Value* level = doc.find("level"))
      if (level->is_string()) info.level = level->as_string();
    if (const Value* event = doc.find("event"))
      if (event->is_string()) info.event = event->as_string();
    if (const Value* phase = doc.find("phase"))
      if (phase->is_string()) info.phase = phase->as_string();
    info.suppressed =
        static_cast<std::uint64_t>(doc.number_or("suppressed", 0.0));
    return info;
  }
  if (schema->as_string() == "gcr.snapshot") {
    info.kind = LineKind::Snapshot;
    info.seq = static_cast<std::uint64_t>(doc.number_or("seq", 0.0));
    return info;
  }
  return std::nullopt;
}

}  // namespace gcr::log
