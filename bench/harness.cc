#include "bench/harness.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <type_traits>
#include <utility>

#include "bench/json_view.h"
#include "common/json.h"

namespace acs::bench {
namespace {

[[nodiscard]] long long now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void print_usage(const char* bench_name, const char* extra_usage,
                 bool obs_flags) {
  std::cout << "usage: " << bench_name << " [options]\n"
            << "  --threads=N   host threads for Monte-Carlo campaigns\n"
            << "                (0 = all hardware threads, default 1;\n"
            << "                 results are bitwise identical for any N)\n"
            << "  --json=PATH   also write machine-readable results to PATH\n"
            << "                (schema: docs/bench-output.md)\n"
            << "  --smoke       tiny trial counts (CI smoke mode)\n"
            << "  --help        this message\n";
  if (obs_flags) {
    std::cout
        << "  --trace=PATH    write a Chrome trace-event JSON file\n"
        << "                  (open in https://ui.perfetto.dev)\n"
        << "  --profile=PATH  write a folded-stack (flamegraph) profile\n";
  }
  if (extra_usage != nullptr) std::cout << extra_usage;
}

/// Consume `--flag=value` or `--flag value`; returns nullptr if argv[i]
/// is not this flag, otherwise the value (advancing i for the two-token
/// form). Exits(2) when the value is missing.
[[nodiscard]] const char* flag_value(int argc, char** argv, int& i,
                                     const char* flag,
                                     const char* bench_name) {
  const std::size_t flag_len = std::strlen(flag);
  if (std::strncmp(argv[i], flag, flag_len) != 0) return nullptr;
  const char* rest = argv[i] + flag_len;
  if (*rest == '=') return rest + 1;
  if (*rest != '\0') return nullptr;  // e.g. --threadsX
  if (i + 1 >= argc) {
    std::cerr << bench_name << ": " << flag << " requires a value\n";
    std::exit(2);
  }
  return argv[++i];
}

[[nodiscard]] unsigned parse_threads(const char* value,
                                     const char* bench_name) {
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(value, &end, 10);
  if (end == value || *end != '\0' || parsed > 4096) {
    std::cerr << bench_name << ": bad --threads value '" << value << "'\n";
    std::exit(2);
  }
  return static_cast<unsigned>(parsed);
}

}  // namespace

BenchOptions parse_bench_args(int argc, char** argv, const char* bench_name,
                              const char* extra_usage, bool obs_flags) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      print_usage(bench_name, extra_usage, obs_flags);
      std::exit(0);
    }
    if (std::strcmp(argv[i], "--smoke") == 0) {
      options.smoke = true;
      continue;
    }
    if (const char* v = flag_value(argc, argv, i, "--threads", bench_name)) {
      options.threads = parse_threads(v, bench_name);
      continue;
    }
    if (const char* v = flag_value(argc, argv, i, "--json", bench_name)) {
      options.json_path = v;
      continue;
    }
    if (const char* v = flag_value(argc, argv, i, "--trace", bench_name)) {
      if (!obs_flags) {
        std::cerr << bench_name
                  << ": --trace is not supported by this bench\n";
        std::exit(2);
      }
      options.trace_path = v;
      continue;
    }
    if (const char* v = flag_value(argc, argv, i, "--profile", bench_name)) {
      if (!obs_flags) {
        std::cerr << bench_name
                  << ": --profile is not supported by this bench\n";
        std::exit(2);
      }
      options.profile_path = v;
      continue;
    }
    std::cerr << bench_name << ": unknown flag '" << argv[i]
              << "' (see --help)\n";
    std::exit(2);
  }
  return options;
}

bool write_file(const std::string& path, const std::string& body,
                const std::string& context) {
  std::ofstream file(path, std::ios::out | std::ios::trunc | std::ios::binary);
  if (!file) {
    std::cerr << context << ": cannot open '" << path << "' for writing\n";
    return false;
  }
  file << body;
  file.flush();
  if (!file) {
    std::cerr << context << ": write to '" << path << "' failed\n";
    return false;
  }
  return true;
}

namespace {

// --- Field-list walking, shared by the writer and the checker. ---

/// Calls f(key, const member&) for every field in `s`'s fields() list.
/// The list is written once, non-const; this adapter only hands out const
/// references, so nothing is ever written through the cast.
template <class S, class F>
void for_each_field(const S& s, F&& f) {
  const_cast<S&>(s).fields(
      [&](const char* key, auto& value) { f(key, std::as_const(value)); });
}

template <class T>
constexpr bool kIsNumber = std::is_same_v<T, u64> || std::is_same_v<T, double>;

template <class T>
constexpr bool kIsKeyedMap = false;
template <class V>
constexpr bool kIsKeyedMap<std::map<std::string, V>> = true;

template <class S>
void write_block(std::string& out, const S& s, int indent);

/// One field's value. Counter maps and nested structs are written inline;
/// an entry map writes each entry as a block at `indent` + 2.
template <class T>
void write_value(std::string& out, const T& value, int indent) {
  if constexpr (std::is_same_v<T, u64>) {
    out += std::to_string(value);
  } else if constexpr (std::is_same_v<T, double>) {
    out += format_double(value);
  } else if constexpr (std::is_same_v<T, Hex64>) {
    char hex[32];
    std::snprintf(hex, sizeof hex, "\"0x%016llx\"",
                  static_cast<unsigned long long>(value.value));
    out += hex;
  } else if constexpr (std::is_same_v<T, std::map<std::string, u64>>) {
    const char* sep = "";
    out += '{';
    for (const auto& [name, count] : value) {
      out += sep;
      sep = ", ";
      out += '"' + json_escape(name) + "\": " + std::to_string(count);
    }
    out += '}';
  } else if constexpr (kIsKeyedMap<T>) {
    const char* sep = "\n";
    out += '{';
    for (const auto& [tag, entry] : value) {
      out += sep;
      sep = ",\n";
      out += std::string(indent + 2, ' ') + '"' + json_escape(tag) + "\": ";
      write_block(out, entry, indent + 2);
    }
    if (!value.empty()) out += '\n' + std::string(indent, ' ');
    out += '}';
  } else {
    const char* sep = "";
    out += '{';
    for_each_field(value, [&](const char* key, const auto& field) {
      out += sep;
      sep = ", ";
      out += '"' + std::string(key) + "\": ";
      write_value(out, field, indent);
    });
    out += '}';
  }
}

/// `s` as an object with one field per line, closing brace at `indent`.
template <class S>
void write_block(std::string& out, const S& s, int indent) {
  const char* sep = "\n";
  out += '{';
  for_each_field(s, [&](const char* key, const auto& field) {
    out += sep;
    sep = ",\n";
    out += std::string(indent + 2, ' ') + '"' + key + "\": ";
    write_value(out, field, indent + 2);
  });
  out += '\n' + std::string(indent, ' ') + '}';
}

}  // namespace

std::string to_json(const std::string& bench_name,
                    const BenchOptions& options, u64 base_seed,
                    const std::vector<Metric>& metrics,
                    double wall_seconds, const obs::Metrics* obs_metrics,
                    const std::vector<Section>& sections) {
  std::string out;
  out += "{\n";
  out += "  \"bench\": \"" + json_escape(bench_name) + "\",\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"threads\": " + std::to_string(options.threads) + ",\n";
  out += "  \"seed\": " + std::to_string(base_seed) + ",\n";
  out += std::string("  \"smoke\": ") + (options.smoke ? "true" : "false") +
         ",\n";
  out += "  \"wall_seconds\": " + format_double(wall_seconds) + ",\n";
  if (obs_metrics != nullptr) {
    // Deterministic (integer counters, std::map order, fixed merge order):
    // this section is bitwise identical for every --threads value.
    out += "  \"obs\": " + obs_metrics->to_json(2) + ",\n";
  }
  for (const Section& section : sections) {
    std::visit(
        [&](const auto& s) {
          out += "  \"" + std::string(s.kName) + "\": ";
          write_block(out, s, 2);
          out += ",\n";
        },
        section);
  }
  out += "  \"metrics\": [";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "\n" : ",\n");
    out += "    {\"name\": \"" + json_escape(m.name) + "\", ";
    out += "\"value\": " + format_double(m.value) + ", ";
    out += "\"units\": \"" + json_escape(m.units) + "\", ";
    out += "\"trials\": " + std::to_string(m.trials) + ", ";
    out += "\"stddev\": " + format_double(m.stddev) + "}";
  }
  out += metrics.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

namespace {

using json::Array;
using json::find;
using json::Object;
using json::Value;

/// Array of numbers check; returns the element count via `n`.
bool numeric_array(const Value* v, std::size_t& n) {
  const Array* list = v == nullptr ? nullptr : v->array();
  if (list == nullptr) return false;
  for (const Value& e : *list) {
    if (!e.is_number()) return false;
  }
  n = list->size();
  return true;
}

/// Validate the optional "obs" section (src/obs metrics registry dump):
/// {"counters": {name: number}, "histograms": {name: {"edges": [...],
/// "counts": [...]}}} with counts one longer than edges (overflow bucket).
std::string check_obs_section(const Value& obs) {
  const Object* top = obs.object();
  if (top == nullptr) return "'obs' is not an object";

  const Value* counters = find(*top, "counters");
  if (counters == nullptr || counters->object() == nullptr) {
    return "'obs.counters' missing or not an object";
  }
  for (const auto& [name, value] : *counters->object()) {
    if (!value.is_number()) {
      return "'obs.counters." + name + "' is not a number";
    }
  }

  const Value* histograms = find(*top, "histograms");
  if (histograms == nullptr || histograms->object() == nullptr) {
    return "'obs.histograms' missing or not an object";
  }
  for (const auto& [name, value] : *histograms->object()) {
    const std::string where = "'obs.histograms." + name + "'";
    const Object* hist = value.object();
    if (hist == nullptr) return where + " is not an object";
    std::size_t n_edges = 0, n_counts = 0;
    if (!numeric_array(find(*hist, "edges"), n_edges)) {
      return where + " lacks numeric array 'edges'";
    }
    if (!numeric_array(find(*hist, "counts"), n_counts)) {
      return where + " lacks numeric array 'counts'";
    }
    if (n_counts != n_edges + 1) {
      return where + " counts/edges size mismatch (want edges+1 buckets)";
    }
  }
  return {};
}

/// The hex fingerprint format: "0x" and 16 lower-case hex digits.
bool is_hex64(const std::string& s) {
  return s.size() == 18 && s.compare(0, 2, "0x") == 0 &&
         s.find_first_not_of("0123456789abcdef", 2) == std::string::npos;
}

template <class S>
std::string check_fields(const Object& object, const S& s,
                         const std::string& path);

/// Presence and type of the value `v` (nullptr = absent) at `path`, by
/// the kind of `field`.
template <class T>
std::string check_value(const Value* v, const T& field,
                        const std::string& path) {
  const std::string where = "'" + path + "'";
  if constexpr (kIsNumber<T>) {
    if (v == nullptr || !v->is_number()) {
      return where + " missing or not a number";
    }
  } else if constexpr (std::is_same_v<T, Hex64>) {
    if (v == nullptr || !v->is_string()) {
      return where + " missing or not a string";
    }
    if (!is_hex64(v->string())) {
      return where + " is not an 0x-prefixed 64-bit hex string";
    }
  } else {
    const Object* object = v == nullptr ? nullptr : v->object();
    if (object == nullptr) return where + " missing or not an object";
    if constexpr (kIsKeyedMap<T>) {
      const typename T::mapped_type entry{};
      for (const auto& [key, child] : *object) {
        std::string error = check_value(&child, entry, path + "." + key);
        if (!error.empty()) return error;
      }
    } else {
      return check_fields(*object, field, path);
    }
  }
  return {};
}

template <class S>
std::string check_fields(const Object& object, const S& s,
                         const std::string& path) {
  std::string error;
  for_each_field(s, [&](const char* key, const auto& field) {
    if (error.empty()) {
      error = check_value(find(object, key), field, path + "." + key);
    }
  });
  return error;
}

/// A field already checked to be a number.
double num(const Object& object, const char* key) {
  return find(object, key)->number();
}

/// The identities between fields, which no field kind expresses. Called
/// after check_fields accepted the section, so every field is present and
/// typed. Faults, fuzz and sim have none.
template <class S>
std::string check_identities(const S&, const Object&) {
  return {};
}

/// Replayed witness verdicts must add up to the witness count (every
/// witness gets exactly one verdict) when any replay counter is non-zero.
std::string check_identities(const LintSection&, const Object& top) {
  const double replays = num(top, "replays_confirmed") +
                         num(top, "replays_refuted") +
                         num(top, "replays_unconfirmed");
  if (replays != 0 && replays != num(top, "witnesses")) {
    return "'lint' replay verdicts do not cover every witness";
  }
  return {};
}

/// Totals: completed + dropped + failed == requests; goodput +
/// deadline_missed == completed; faults_delivered <= plan_entries_drawn;
/// attempts_run >= forks; cow_pages_run >= cow_pages_copied; the drop
/// causes sum to dropped + failed. Per config: goodput <= arrivals per
/// phase and a monotone latency summary.
std::string check_identities(const TopologySection&, const Object& top) {
  if (num(top, "completed") + num(top, "dropped") + num(top, "failed") !=
      num(top, "requests")) {
    return "'topology' terminal accounting broken "
           "(completed + dropped + failed != requests)";
  }
  if (num(top, "goodput") + num(top, "deadline_missed") !=
      num(top, "completed")) {
    return "'topology' goodput accounting broken "
           "(goodput + deadline_missed != completed)";
  }
  if (num(top, "faults_delivered") > num(top, "plan_entries_drawn")) {
    return "'topology' fault accounting broken "
           "(faults_delivered > plan_entries_drawn)";
  }
  if (num(top, "attempts_run") < num(top, "forks")) {
    return "'topology' attempt accounting broken (attempts_run < forks)";
  }
  if (num(top, "cow_pages_run") < num(top, "cow_pages_copied")) {
    return "'topology' CoW accounting broken "
           "(cow_pages_run < cow_pages_copied)";
  }
  double drop_sum = 0;
  for (const auto& [cause, value] : *find(top, "drops")->object()) {
    drop_sum += value.number();
  }
  if (drop_sum != num(top, "dropped") + num(top, "failed")) {
    return "'topology.drops' causes do not sum to dropped + failed";
  }

  for (const auto& [tag, value] : *find(top, "configs")->object()) {
    const std::string where = "'topology.configs." + tag + "'";
    const Object& phases = *find(*value.object(), "phases")->object();
    for (const char* phase : {"pre_storm", "storm", "post_storm"}) {
      const Object& counts = *find(phases, phase)->object();
      if (num(counts, "goodput") > num(counts, "arrivals")) {
        return where + " phase '" + phase + "' goodput exceeds arrivals";
      }
    }
    const Object& latency = *find(*value.object(), "latency")->object();
    const double p999 = num(latency, "p999");
    const double max = num(latency, "max");
    if (num(latency, "count") > 0 &&
        !(num(latency, "p50") <= num(latency, "p90") &&
          num(latency, "p90") <= num(latency, "p99") &&
          num(latency, "p99") <= p999)) {
      return where + " latency percentiles are not monotone";
    }
    if (num(latency, "count") > 0 && p999 > max + max / 32 + 1) {
      return where + " latency p999 exceeds max beyond bucket rounding";
    }
  }
  return {};
}

/// len(entries) == kernels x schemes, keys "<family>/<point>/<scheme>";
/// per entry instructions <= cycles, calls <= instructions and
/// cycles_per_instruction == cycles / instructions within rounding;
/// total_cycles sums the entries.
std::string check_identities(const KernelsSection&, const Object& top) {
  const Object& entries = *find(top, "entries")->object();
  if (static_cast<double>(entries.size()) !=
      num(top, "kernels") * num(top, "schemes")) {
    return "'kernels.entries' size != kernels x schemes";
  }
  double cycle_sum = 0;
  for (const auto& [tag, value] : entries) {
    const std::string where = "'kernels.entries." + tag + "'";
    if (tag.find('/') == std::string::npos) {
      return where + " key is not <family>/<point>/<scheme>";
    }
    const Object& entry = *value.object();
    const double cycles = num(entry, "cycles");
    const double instructions = num(entry, "instructions");
    if (instructions > cycles) {
      return where + " instructions exceed cycles (costs are >= 1/instr)";
    }
    if (num(entry, "calls") > instructions) {
      return where + " dynamic calls exceed retired instructions";
    }
    const double cpi = num(entry, "cycles_per_instruction");
    if (instructions > 0 && std::fabs(cpi - cycles / instructions) > 1e-9) {
      return where + " cycles_per_instruction != cycles / instructions";
    }
    cycle_sum += cycles;
  }
  if (cycle_sum != num(top, "total_cycles")) {
    return "'kernels.total_cycles' does not sum the entries";
  }
  return {};
}

/// One default-constructed value of every Section alternative.
template <std::size_t... I>
std::vector<Section> every_section(std::index_sequence<I...>) {
  return {Section(std::in_place_index<I>)...};
}

}  // namespace

std::string check_trajectory(const Value& root) {
  const Object* top = root.object();
  if (top == nullptr) return "top level is not an object";

  if (std::string bad = json::find_nonfinite(root); !bad.empty()) {
    return "non-finite numeric leaf '" + bad + "' (NaN/Inf)";
  }

  const struct {
    const char* key;
    bool (Value::*check)() const;
    const char* type;
  } required[] = {
      {"bench", &Value::is_string, "string"},
      {"schema_version", &Value::is_number, "number"},
      {"threads", &Value::is_number, "number"},
      {"seed", &Value::is_number, "number"},
      {"smoke", &Value::is_bool, "bool"},
      {"wall_seconds", &Value::is_number, "number"},
  };
  for (const auto& field : required) {
    const Value* v = find(*top, field.key);
    if (v == nullptr) return std::string("missing key '") + field.key + "'";
    if (!(v->*(field.check))()) {
      return std::string("key '") + field.key + "' is not a " + field.type;
    }
  }

  if (const Value* obs = find(*top, "obs")) {
    std::string error = check_obs_section(*obs);
    if (!error.empty()) return error;
  }

  static const std::vector<Section> kSections =
      every_section(std::make_index_sequence<std::variant_size_v<Section>>{});
  for (const Section& kind : kSections) {
    std::string error;
    std::visit(
        [&](const auto& s) {
          const Value* section = find(*top, s.kName);
          if (section == nullptr) return;
          error = check_value(section, s, s.kName);
          if (error.empty()) error = check_identities(s, *section->object());
        },
        kind);
    if (!error.empty()) return error;
  }

  const Value* metrics = find(*top, "metrics");
  if (metrics == nullptr) return "missing key 'metrics'";
  const Array* list = metrics->array();
  if (list == nullptr) return "'metrics' is not an array";
  std::set<std::string> names;  // acs-bench-diff keys records by name
  for (std::size_t i = 0; i < list->size(); ++i) {
    const Object* metric = (*list)[i].object();
    const std::string where = "metrics[" + std::to_string(i) + "]";
    if (metric == nullptr) return where + " is not an object";
    for (const char* key : {"name", "units"}) {
      const Value* v = find(*metric, key);
      if (v == nullptr || !v->is_string()) {
        return where + " lacks string '" + key + "'";
      }
    }
    for (const char* key : {"value", "trials", "stddev"}) {
      const Value* v = find(*metric, key);
      if (v == nullptr || !v->is_number()) {
        return where + " lacks numeric '" + key + "'";
      }
    }
    const std::string& name = find(*metric, "name")->string();
    if (!names.insert(name).second) {
      return where + " repeats metric name '" + name + "'";
    }
  }
  return {};
}

BenchReporter::BenchReporter(std::string bench_name, BenchOptions options,
                             u64 base_seed)
    : bench_name_(std::move(bench_name)),
      options_(std::move(options)),
      base_seed_(base_seed),
      start_ns_(now_ns()) {}

void BenchReporter::record(std::string name, double value, std::string units,
                           u64 trials, double stddev) {
  metrics_.push_back(Metric{.name = std::move(name),
                            .value = value,
                            .units = std::move(units),
                            .trials = trials,
                            .stddev = stddev});
}

void BenchReporter::set_obs_metrics(obs::Metrics metrics) {
  obs_metrics_ = std::move(metrics);
  has_obs_metrics_ = true;
}

void BenchReporter::set_section(Section section) {
  for (Section& existing : sections_) {
    if (existing.index() == section.index()) {
      existing = std::move(section);
      return;
    }
  }
  sections_.push_back(std::move(section));
}

bool BenchReporter::finish() {
  if (finished_) return true;
  finished_ = true;
  if (options_.json_path.empty()) return true;
  const double wall_seconds =
      static_cast<double>(now_ns() - start_ns_) * 1e-9;
  const std::string body =
      to_json(bench_name_, options_, base_seed_, metrics_, wall_seconds,
              has_obs_metrics_ ? &obs_metrics_ : nullptr, sections_);
  if (!write_file(options_.json_path, body, bench_name_)) return false;
  std::cout << "[json] wrote " << options_.json_path << "\n";
  return true;
}

}  // namespace acs::bench
