#include "report/schema.h"

#include <fstream>
#include <sstream>

#include "report/json.h"

namespace kkt::report {

const RunRecord* ResultFile::find(std::string_view name) const noexcept {
  for (const RunRecord& r : records) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

std::string serialize_results(const ResultFile& f) {
  JsonValue::Array records;
  records.reserve(f.records.size());
  for (const RunRecord& r : f.records) {
    JsonValue counters{JsonValue::Object{}};
    for (const auto& [k, v] : r.counters) counters.set(k, v);  // sorted: map
    JsonValue rec{JsonValue::Object{}};
    rec.set("name", r.name);
    rec.set("counters", std::move(counters));
    // v2 wall data: emitted only when measured, so counter-only artifacts
    // serialize byte-identically to their v1 bodies.
    if (r.iters != 0) rec.set("iters", static_cast<double>(r.iters));
    if (r.wall_ns != 0) rec.set("wall_ns", static_cast<double>(r.wall_ns));
    if (r.peak_rss_kb != 0) {
      rec.set("peak_rss_kb", static_cast<double>(r.peak_rss_kb));
    }
    records.push_back(std::move(rec));
  }
  JsonValue root{JsonValue::Object{}};
  root.set("kkt_result_schema", f.schema_version);
  root.set("tool", f.tool);
  root.set("records", JsonValue(std::move(records)));
  return json_serialize(root, 2);
}

void write_results(std::ostream& os, const ResultFile& f) {
  os << serialize_results(f);
}

bool write_results_file(const std::string& path, const ResultFile& f) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  write_results(os, f);
  return static_cast<bool>(os);
}

namespace {

bool set_error(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
  return false;
}

bool parse_unified(const JsonValue& root, ResultFile& out,
                   std::string* error) {
  const JsonValue* version = root.find("kkt_result_schema");
  if (version == nullptr) {
    return set_error(error,
                     "missing 'kkt_result_schema': not a unified result "
                     "artifact (docs/RESULT_SCHEMA.md)");
  }
  if (!version->is_number() ||
      version->as_number() < static_cast<double>(kMinResultSchemaVersion) ||
      version->as_number() > static_cast<double>(kResultSchemaVersion)) {
    return set_error(error, "unsupported kkt_result_schema version");
  }
  out.schema_version = static_cast<int>(version->as_number());
  const JsonValue* tool = root.find("tool");
  if (!tool || !tool->is_string()) {
    return set_error(error, "missing or non-string 'tool'");
  }
  out.tool = tool->as_string();
  const JsonValue* records = root.find("records");
  if (!records || !records->is_array()) {
    return set_error(error, "missing or non-array 'records'");
  }
  out.records.reserve(records->as_array().size());
  for (const JsonValue& rec : records->as_array()) {
    if (!rec.is_object()) {
      return set_error(error, "record is not an object");
    }
    const JsonValue* name = rec.find("name");
    if (!name || !name->is_string()) {
      return set_error(error, "record missing string 'name'");
    }
    const JsonValue* counters = rec.find("counters");
    if (!counters || !counters->is_object()) {
      return set_error(error, "record missing object 'counters'");
    }
    RunRecord r;
    r.name = name->as_string();
    for (const auto& [k, v] : counters->as_object()) {
      if (!v.is_number()) {
        return set_error(error, "counter '" + k + "' is not a number");
      }
      r.counters[k] = v.as_number();
    }
    // Optional v2 wall data (absent in v1 files and counter-only records).
    if (const JsonValue* wall = rec.find("wall_ns")) {
      if (!wall->is_number() || wall->as_number() < 0) {
        return set_error(error, "record 'wall_ns' is not a number");
      }
      r.wall_ns = static_cast<std::uint64_t>(wall->as_number());
    }
    if (const JsonValue* iters = rec.find("iters")) {
      if (!iters->is_number() || iters->as_number() < 0) {
        return set_error(error, "record 'iters' is not a number");
      }
      r.iters = static_cast<std::uint64_t>(iters->as_number());
    }
    if (const JsonValue* rss = rec.find("peak_rss_kb")) {
      if (!rss->is_number() || rss->as_number() < 0) {
        return set_error(error, "record 'peak_rss_kb' is not a number");
      }
      r.peak_rss_kb = static_cast<std::uint64_t>(rss->as_number());
    }
    out.records.push_back(std::move(r));
  }
  return true;
}

}  // namespace

std::optional<ResultFile> parse_results(std::string_view text,
                                        std::string* error) {
  std::optional<JsonValue> root = json_parse(text, error);
  if (!root) return std::nullopt;
  if (!root->is_object()) {
    set_error(error, "top-level value is not an object");
    return std::nullopt;
  }
  ResultFile out;
  if (!parse_unified(*root, out, error)) return std::nullopt;
  return out;
}

std::optional<ResultFile> read_results(std::istream& is, std::string* error) {
  std::ostringstream buf;
  buf << is.rdbuf();
  if (is.bad()) {
    set_error(error, "read failure");
    return std::nullopt;
  }
  return parse_results(buf.str(), error);
}

std::optional<ResultFile> read_results_file(const std::string& path,
                                            std::string* error) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    set_error(error, "cannot open " + path);
    return std::nullopt;
  }
  return read_results(is, error);
}

}  // namespace kkt::report
