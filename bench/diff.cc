#include "bench/diff.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/json.h"

namespace acs::bench {
namespace {

/// Host-timing / host-rate leaves: the only trajectory content that is
/// allowed to differ between two runs of the same build (docs/
/// bench-output.md). Matched against the final path segment.
const char* const kDefaultIgnoredKeys[] = {
    "wall_seconds", "threads", "ips_interpreter", "ips_decoded",
    "speedup",      "forks_per_sec",
};

bool is_ignored(const std::string& path, const DiffOptions& options) {
  const std::size_t dot = path.rfind('.');
  const std::string leaf = dot == std::string::npos ? path
                                                    : path.substr(dot + 1);
  for (const char* key : kDefaultIgnoredKeys) {
    if (leaf == key) return true;
  }
  return std::find(options.ignored_keys.begin(), options.ignored_keys.end(),
                   leaf) != options.ignored_keys.end();
}

void flatten(const json::Value& value, const std::string& path,
             std::map<std::string, double>& out) {
  if (value.is_number()) {
    out[path] = value.number();
    return;
  }
  if (const json::Object* object = value.object()) {
    for (const auto& [key, child] : *object) {
      flatten(child, path.empty() ? key : path + "." + key, out);
    }
    return;
  }
  if (const json::Array* array = value.array()) {
    // Arrays of named records (the "metrics" section) key by name so a
    // reordering is not a diff; anything else keys by index.
    for (std::size_t i = 0; i < array->size(); ++i) {
      const json::Value& element = (*array)[i];
      std::string segment = "[";
      segment += std::to_string(i);
      segment += ']';
      if (const json::Object* record = element.object()) {
        if (const json::Value* name = json::find(*record, "name");
            name != nullptr && name->is_string()) {
          segment = name->string();
        }
      }
      flatten(element, path.empty() ? segment : path + "." + segment, out);
    }
  }
  // Strings/bools/nulls carry no comparable magnitude; skipped.
}

/// Symmetric relative change, defined at zero: 0 when both are 0.
double relative_change(double baseline, double current) {
  const double scale = std::max(std::fabs(baseline), std::fabs(current));
  if (scale == 0) return 0;
  return std::fabs(current - baseline) / scale;
}

}  // namespace

std::map<std::string, double> flatten_numeric_leaves(const json::Value& root) {
  std::map<std::string, double> out;
  flatten(root, "", out);
  return out;
}

std::string first_nonfinite_leaf(const json::Value& root) {
  for (const auto& [path, value] : flatten_numeric_leaves(root)) {
    if (!std::isfinite(value)) return path;
  }
  return {};
}

DiffResult diff_documents(const json::Value& baseline,
                          const json::Value& current,
                          const DiffOptions& options) {
  const auto base_leaves = flatten_numeric_leaves(baseline);
  const auto cur_leaves = flatten_numeric_leaves(current);

  DiffResult result;
  for (const auto& [path, base_value] : base_leaves) {
    if (is_ignored(path, options)) {
      ++result.ignored;
      continue;
    }
    const auto it = cur_leaves.find(path);
    if (it == cur_leaves.end()) {
      result.regressions.push_back(Regression{
          .key = path,
          .baseline = base_value,
          .current = 0,
          .relative_change = 1,
          .missing = true,
      });
      continue;
    }
    ++result.compared;
    // Defense in depth behind diff_files' input check: a NaN comparison
    // must never pass silently (NaN > threshold is false), so any
    // non-finite operand is flagged outright.
    if (!std::isfinite(base_value) || !std::isfinite(it->second)) {
      result.regressions.push_back(Regression{
          .key = path,
          .baseline = base_value,
          .current = it->second,
          .relative_change = 1,
          .missing = false,
      });
      continue;
    }
    const double change = relative_change(base_value, it->second);
    if (change > options.threshold) {
      result.regressions.push_back(Regression{
          .key = path,
          .baseline = base_value,
          .current = it->second,
          .relative_change = change,
          .missing = false,
      });
    }
  }
  for (const auto& [path, value] : cur_leaves) {
    (void)value;
    if (!is_ignored(path, options) && base_leaves.count(path) == 0) {
      ++result.added;
    }
  }
  return result;
}

std::string verdict_json(const DiffResult& result,
                         const DiffOptions& options) {
  std::ostringstream out;
  out << "{\n"
      << "  \"verdict\": \"" << (result.ok() ? "ok" : "regression") << "\",\n"
      << "  \"threshold\": " << format_double(options.threshold) << ",\n"
      << "  \"compared\": " << result.compared << ",\n"
      << "  \"ignored\": " << result.ignored << ",\n"
      << "  \"added\": " << result.added << ",\n"
      << "  \"regressions\": [";
  for (std::size_t i = 0; i < result.regressions.size(); ++i) {
    const Regression& r = result.regressions[i];
    out << (i == 0 ? "\n" : ",\n")
        << "    {\"key\": \"" << json_escape(r.key) << "\", "
        << "\"baseline\": " << format_double(r.baseline) << ", "
        << "\"current\": " << format_double(r.current) << ", "
        << "\"relative_change\": " << format_double(r.relative_change) << ", "
        << "\"missing\": " << (r.missing ? "true" : "false") << "}";
  }
  out << (result.regressions.empty() ? "]\n" : "\n  ]\n") << "}\n";
  return out.str();
}

int diff_files(const std::string& baseline_path,
               const std::string& current_path, const DiffOptions& options,
               std::string* out) {
  json::Value documents[2];
  const std::string* paths[2] = {&baseline_path, &current_path};
  for (int i = 0; i < 2; ++i) {
    std::ifstream file(*paths[i], std::ios::in | std::ios::binary);
    if (!file) {
      if (out != nullptr) *out = *paths[i] + ": cannot open";
      return 2;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    try {
      documents[i] = json::Parser(buffer.str()).parse();
    } catch (const std::exception& e) {
      if (out != nullptr) {
        *out = *paths[i] + ": JSON parse error: " + e.what();
      }
      return 2;
    }
    // A trajectory carrying NaN/Inf is not a usable baseline or candidate:
    // refuse it with the offending path instead of comparing garbage.
    if (const std::string bad = first_nonfinite_leaf(documents[i]);
        !bad.empty()) {
      if (out != nullptr) {
        *out = *paths[i] + ": non-finite numeric leaf '" + bad +
               "' (NaN/Inf — the producing bench emitted a poisoned value)";
      }
      return 2;
    }
  }
  const DiffResult result = diff_documents(documents[0], documents[1], options);
  if (out != nullptr) *out = verdict_json(result, options);
  return result.ok() ? 0 : 1;
}

}  // namespace acs::bench
