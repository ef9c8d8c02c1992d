// bench_json_check — validates machine-readable observability/bench output.
// Used by the bench_smoke and obs ctest targets; exits 0 iff every file
// passes. No third-party JSON dependency: the shared ~150-line parser in
// bench/json_view.h covers the full JSON grammar. Trajectory rules live in
// check_trajectory (bench/harness.h), beside the writer they validate.
//
//   bench_json_check PATH [PATH...]            BENCH_*.json trajectories
//                                              (schema: docs/bench-output.md,
//                                               incl. the optional "obs"
//                                               metrics section)
//   bench_json_check --trace-file PATH [...]   Chrome trace-event JSON files
//                                              (docs/observability.md)
//   bench_json_check --folded-file PATH [...]  folded-stack profiles
//                                              ("frame;frame cycles" lines)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench/harness.h"
#include "bench/json_view.h"

namespace {

using acs::bench::json::Array;
using acs::bench::json::Object;
using acs::bench::json::Parser;
using acs::bench::json::Value;
using acs::bench::json::find;
using acs::bench::json::find_nonfinite;

/// Validate a Chrome trace-event JSON document (the --trace output of the
/// benches and acs-run): {"traceEvents": [...]} where every event carries
/// a string name/ph, integer pid/tid, and — except for "M" metadata — a
/// numeric ts; complete events ("X") also need a numeric dur.
std::string check_trace_schema(const Value& root, std::size_t& n_events) {
  const Object* top = root.object();
  if (top == nullptr) return "top level is not an object";
  if (std::string bad = find_nonfinite(root); !bad.empty()) {
    return "non-finite numeric leaf '" + bad + "' (NaN/Inf)";
  }
  const Value* events = find(*top, "traceEvents");
  if (events == nullptr) return "missing key 'traceEvents'";
  const Array* list = events->array();
  if (list == nullptr) return "'traceEvents' is not an array";
  n_events = list->size();
  for (std::size_t i = 0; i < list->size(); ++i) {
    const std::string where = "traceEvents[" + std::to_string(i) + "]";
    const Object* event = (*list)[i].object();
    if (event == nullptr) return where + " is not an object";
    const Value* name = find(*event, "name");
    if (name == nullptr || !name->is_string()) {
      return where + " lacks string 'name'";
    }
    const Value* ph = find(*event, "ph");
    if (ph == nullptr || !ph->is_string()) return where + " lacks string 'ph'";
    const std::string& phase = std::get<std::string>(ph->data);
    for (const char* key : {"pid", "tid"}) {
      const Value* v = find(*event, key);
      if (v == nullptr || !v->is_number()) {
        return where + " lacks numeric '" + key + "'";
      }
    }
    if (phase == "M") continue;  // metadata events carry no timestamp
    const Value* ts = find(*event, "ts");
    if (ts == nullptr || !ts->is_number()) {
      return where + " lacks numeric 'ts'";
    }
    if (phase == "X") {
      const Value* dur = find(*event, "dur");
      if (dur == nullptr || !dur->is_number()) {
        return where + " (complete event) lacks numeric 'dur'";
      }
    }
  }
  return {};
}

bool slurp(const char* path, std::string& out) {
  std::ifstream file(path, std::ios::in | std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "%s: cannot open\n", path);
    return false;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  out = buffer.str();
  return true;
}

int check_file(const char* path) {
  std::string body;
  if (!slurp(path, body)) return 1;

  std::string error;
  try {
    const Value root = Parser(body).parse();
    error = acs::bench::check_trajectory(root);
    if (error.empty()) {
      const std::size_t metric_count = root.object()
                                           ->find("metrics")
                                           ->second.array()
                                           ->size();
      std::printf("%s: ok (%zu metrics)\n", path, metric_count);
      return 0;
    }
  } catch (const std::exception& e) {
    error = std::string("JSON parse error: ") + e.what();
  }
  std::fprintf(stderr, "%s: %s\n", path, error.c_str());
  return 1;
}

int check_trace_file(const char* path) {
  std::string body;
  if (!slurp(path, body)) return 1;

  std::string error;
  std::size_t n_events = 0;
  try {
    const Value root = Parser(body).parse();
    error = check_trace_schema(root, n_events);
    if (error.empty()) {
      std::printf("%s: ok (%zu trace events)\n", path, n_events);
      return 0;
    }
  } catch (const std::exception& e) {
    error = std::string("JSON parse error: ") + e.what();
  }
  std::fprintf(stderr, "%s: %s\n", path, error.c_str());
  return 1;
}

/// Folded-stack profile: every non-empty line is "frame[;frame...] cycles"
/// with a non-empty stack and an unsigned integer sample count — exactly
/// what flamegraph.pl / speedscope accept.
int check_folded_file(const char* path) {
  std::string body;
  if (!slurp(path, body)) return 1;

  std::istringstream lines(body);
  std::string line;
  std::size_t line_no = 0, n_stacks = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) {
      std::fprintf(stderr, "%s:%zu: no 'stack cycles' separator\n", path,
                   line_no);
      return 1;
    }
    const std::string count = line.substr(space + 1);
    if (count.empty() ||
        count.find_first_not_of("0123456789") != std::string::npos) {
      std::fprintf(stderr, "%s:%zu: sample count '%s' is not an unsigned "
                   "integer\n",
                   path, line_no, count.c_str());
      return 1;
    }
    ++n_stacks;
  }
  std::printf("%s: ok (%zu folded stacks)\n", path, n_stacks);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int (*check)(const char*) = check_file;
  int first = 1;
  if (argc >= 2 && std::strcmp(argv[1], "--trace-file") == 0) {
    check = check_trace_file;
    first = 2;
  } else if (argc >= 2 && std::strcmp(argv[1], "--folded-file") == 0) {
    check = check_folded_file;
    first = 2;
  }
  if (first >= argc) {
    std::fprintf(stderr,
                 "usage: bench_json_check [--trace-file|--folded-file] "
                 "PATH [PATH...]\n");
    return 2;
  }
  int rc = 0;
  for (int i = first; i < argc; ++i) rc |= check(argv[i]);
  return rc;
}
