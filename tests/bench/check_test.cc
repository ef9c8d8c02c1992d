// check_trajectory: every presence and type rule, every hand-written
// identity, the writer/checker round trip and the docs coverage of every
// field listed in a section's fields().
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/json_view.h"

namespace acs::bench {
namespace {

// One clean section per kind, consistent with every identity.
const char kFaults[] =
    R"("faults": {"injected": {"chain-corrupt": 574, "instr-skip": 9},
       "crashes": {"translation": 497}, "restarts": 509,
       "guess_attempts": 574, "guess_successes": 81,
       "backoff_cycles": 101900000},)";
const char kFuzz[] =
    R"("fuzz": {"candidates": 48, "viable": 41, "executions": 301,
       "rounds": 3, "corpus_size": 29, "features_covered": 574,
       "coverage_fingerprint": "0x6fb9666a1a272f22",
       "findings": {"differential": 1}},)";
const char kSim[] =
    R"("sim": {"instructions": 1195528, "ips_interpreter": 7.2e7,
       "ips_decoded": 1.6e8, "speedup": 2.2, "forks_per_sec": 1.2e6,
       "cow_private_pages": 2, "equivalence_runs": 64,
       "equivalence_fingerprint": "0x45167c46c0dcf052"},)";
const char kLint[] =
    R"("lint": {"programs": 22, "functions_verified": 147,
       "diagnostics": 120, "witnesses": 6, "replays_confirmed": 5,
       "replays_refuted": 1, "replays_unconfirmed": 0,
       "findings_by_code": {"ACS003": 120},
       "findings_by_function": {"cf$a": 1}},)";
const char kTopology[] =
    R"("topology": {"requests": 400, "completed": 335, "dropped": 64,
       "failed": 1, "goodput": 320, "deadline_missed": 15,
       "crashed_attempts": 14, "retries": 4, "retry_budget_denied": 0,
       "hedges": 0, "breaker_trips": 1, "breaker_probes": 2, "forks": 800,
       "cow_pages_copied": 1600, "backoff_cycles": 0, "gauge_samples": 10,
       "attempts_run": 820, "cow_pages_run": 1640,
       "plan_entries_drawn": 90, "faults_delivered": 30,
       "drops": {"expired": 64, "retry-exhausted": 1},
       "configs": {"pacstack_load90": {
         "requests": 400, "completed": 335, "dropped": 64, "failed": 1,
         "goodput": 320, "deadline_missed": 15, "crashed_attempts": 14,
         "retries": 4, "breaker_trips": 1,
         "phases": {"pre_storm": {"arrivals": 60, "goodput": 60},
                    "storm": {"arrivals": 240, "goodput": 171},
                    "post_storm": {"arrivals": 100, "goodput": 89}},
         "latency": {"p50": 18943, "p90": 38911, "p99": 49151,
                     "p999": 53247, "max": 52703, "count": 335}}}},)";
const char kKernels[] =
    R"("kernels": {"kernels": 1, "schemes": 1, "runs": 1,
       "total_cycles": 14269, "total_instructions": 4143,
       "entries": {"ladder/depth16/pacstack": {
         "functions": 35, "static_calls": 47, "static_depth": 32,
         "cycles": 14269, "instructions": 4143, "calls": 185,
         "pa_instructions": 516, "chain_pushes": 129,
         "overhead_percent": 15.688341170747533,
         "cycles_per_call": 77.12972972972973,
         "cycles_per_instruction": 3.4441226164615015}}},)";

/// A whole trajectory around `sections` (each ending in a comma).
std::string trajectory(const std::string& sections) {
  return R"({"bench": "b", "schema_version": 1, "threads": 1, "seed": 0,
             "smoke": true, "wall_seconds": 0.5, )" +
         sections +
         R"("metrics": [{"name": "m", "value": 1, "units": "u",
                         "trials": 0, "stddev": 0}]})";
}

std::string check_text(const std::string& text) {
  return check_trajectory(json::Parser(text).parse());
}

/// The object holding the last segment of the dotted `path`.
json::Object& parent_of(json::Value& root, const std::string& path,
                        std::string& leaf) {
  json::Value* value = &root;
  std::size_t start = 0;
  while (true) {
    json::Object& object =
        *std::get<std::shared_ptr<json::Object>>(value->data);
    const std::size_t dot = path.find('.', start);
    if (dot == std::string::npos) {
      leaf = path.substr(start);
      return object;
    }
    value = &object.at(path.substr(start, dot - start));
    start = dot + 1;
  }
}

/// check_trajectory of `text` with the value at `path` removed.
std::string check_erased(const std::string& text, const std::string& path) {
  json::Value root = json::Parser(text).parse();
  std::string leaf;
  json::Object& parent = parent_of(root, path, leaf);
  EXPECT_EQ(parent.erase(leaf), 1U) << path;
  return check_trajectory(root);
}

/// check_trajectory of `text` with the value at `path` replaced.
std::string check_replaced(const std::string& text, const std::string& path,
                           json::Value value) {
  json::Value root = json::Parser(text).parse();
  std::string leaf;
  json::Object& parent = parent_of(root, path, leaf);
  EXPECT_EQ(parent.count(leaf), 1U) << path;
  parent[leaf] = std::move(value);
  return check_trajectory(root);
}

json::Value number(double v) { return json::Value{v}; }
json::Value text(const char* s) { return json::Value{std::string(s)}; }

TEST(CheckTrajectory, AcceptsACleanDocumentPerSection) {
  for (const char* section :
       {kFaults, kFuzz, kSim, kLint, kTopology, kKernels}) {
    EXPECT_EQ(check_text(trajectory(section)), "") << section;
  }
  EXPECT_EQ(check_text(trajectory(std::string(kFaults) + kFuzz + kSim +
                                  kLint + kTopology + kKernels)),
            "");
}

/// A field path, dotted from the document root, and a value of the wrong
/// kind for it. Entries of keyed maps may be absent, so they are only
/// replaced, never erased.
struct FieldCase {
  std::string path;
  json::Value wrong;
  bool erasable = true;
};

/// Collects a FieldCase for every field in a fields() list, descending
/// into nested structs and into the one entry `tag` of a keyed map.
struct CaseCollector {
  std::string prefix;
  std::string tag;
  std::vector<FieldCase>* out;

  void add(const std::string& key, json::Value wrong, bool erasable = true) {
    out->push_back({prefix + key, std::move(wrong), erasable});
  }
  void operator()(const char* key, u64&) { add(key, text("1")); }
  void operator()(const char* key, double&) { add(key, text("1.5")); }
  void operator()(const char* key, Hex64&) { add(key, number(1)); }
  void operator()(const char* key, std::map<std::string, u64>&) {
    add(key, number(1));
  }
  template <class E>
  void operator()(const char* key, std::map<std::string, E>&) {
    add(key, number(1));
    add(std::string(key) + "." + tag, number(1), /*erasable=*/false);
    E entry;
    CaseCollector inner{prefix + key + "." + tag + ".", tag, out};
    entry.fields(inner);
  }
  template <class S>
  void operator()(const char* key, S& nested) {
    add(key, number(1));
    CaseCollector inner{prefix + key + ".", tag, out};
    nested.fields(inner);
  }
};

template <class S>
std::vector<FieldCase> field_cases(const std::string& tag = "") {
  std::vector<FieldCase> cases;
  CaseCollector collector{std::string(S::kName) + ".", tag, &cases};
  S section;
  section.fields(collector);
  return cases;
}

/// Every field missing, and every field of the wrong kind, is rejected
/// with a message that names it.
template <class S>
void expect_every_field_checked(const char* section,
                                const std::string& tag = "") {
  const std::string doc = trajectory(section);
  ASSERT_EQ(check_text(doc), "");
  for (const FieldCase& c : field_cases<S>(tag)) {
    const std::string key = c.path.substr(c.path.rfind('.') + 1);
    if (c.erasable) {
      const std::string error = check_erased(doc, c.path);
      EXPECT_NE(error.find(key), std::string::npos)
          << "missing " << c.path << ": '" << error << "'";
    }
    const std::string error = check_replaced(doc, c.path, c.wrong);
    EXPECT_NE(error.find(key), std::string::npos)
        << "wrong type " << c.path << ": '" << error << "'";
  }
}

TEST(CheckTrajectory, RejectsEveryMissingOrMistypedFaultsField) {
  expect_every_field_checked<FaultSection>(kFaults);
}
TEST(CheckTrajectory, RejectsEveryMissingOrMistypedFuzzField) {
  expect_every_field_checked<FuzzSection>(kFuzz);
}
TEST(CheckTrajectory, RejectsEveryMissingOrMistypedSimField) {
  expect_every_field_checked<SimSection>(kSim);
}
TEST(CheckTrajectory, RejectsEveryMissingOrMistypedLintField) {
  expect_every_field_checked<LintSection>(kLint);
}
TEST(CheckTrajectory, RejectsEveryMissingOrMistypedTopologyField) {
  const auto cases = field_cases<TopologySection>("pacstack_load90");
  // 20 totals, drops, configs; one entry: itself, 9 counters, phases
  // (3 phases of 2 counters) and latency (6 counters).
  EXPECT_EQ(cases.size(), 22U + 1 + 9 + (1 + 3 + 6) + (1 + 6));
  expect_every_field_checked<TopologySection>(kTopology, "pacstack_load90");
}
TEST(CheckTrajectory, RejectsEveryMissingOrMistypedKernelsField) {
  expect_every_field_checked<KernelsSection>(kKernels,
                                             "ladder/depth16/pacstack");
}

TEST(CheckTrajectory, RejectsMistypedCounterMapValues) {
  for (const auto& [section, path] :
       std::vector<std::pair<const char*, std::string>>{
           {kFaults, "faults.injected.instr-skip"},
           {kFaults, "faults.crashes.translation"},
           {kFuzz, "fuzz.findings.differential"},
           {kLint, "lint.findings_by_code.ACS003"},
           {kLint, "lint.findings_by_function.cf$a"},
           {kTopology, "topology.drops.expired"}}) {
    const std::string error =
        check_replaced(trajectory(section), path, text("1"));
    EXPECT_NE(error.find(path.substr(path.rfind('.') + 1)),
              std::string::npos)
        << path << ": '" << error << "'";
  }
}

struct IdentityCase {
  const char* section;
  std::string path;
  double value;
  const char* message;  ///< substring the rejection must carry
};

TEST(CheckTrajectory, RejectsEveryBrokenIdentity) {
  const std::string entry = "topology.configs.pacstack_load90.";
  const std::string kernel = "kernels.entries.ladder/depth16/pacstack.";
  const std::vector<IdentityCase> cases = {
      {kLint, "lint.replays_refuted", 0, "do not cover every witness"},
      {kTopology, "topology.requests", 401, "terminal accounting broken"},
      {kTopology, "topology.deadline_missed", 14, "goodput accounting"},
      {kTopology, "topology.faults_delivered", 91, "fault accounting"},
      {kTopology, "topology.attempts_run", 799, "attempts_run < forks"},
      {kTopology, "topology.cow_pages_run", 1599,
       "cow_pages_run < cow_pages_copied"},
      {kTopology, "topology.drops.expired", 63,
       "do not sum to dropped + failed"},
      {kTopology, entry + "phases.storm.goodput", 241,
       "goodput exceeds arrivals"},
      {kTopology, entry + "latency.p90", 18000, "not monotone"},
      {kTopology, entry + "latency.max", 40000, "p999 exceeds max"},
      {kKernels, "kernels.kernels", 2, "size != kernels x schemes"},
      {kKernels, kernel + "instructions", 14270, "instructions exceed cycles"},
      {kKernels, kernel + "calls", 4144, "calls exceed retired"},
      {kKernels, kernel + "cycles_per_instruction", 3.5,
       "cycles_per_instruction != cycles / instructions"},
      {kKernels, "kernels.total_cycles", 14268, "does not sum the entries"},
  };
  for (const IdentityCase& c : cases) {
    const std::string error =
        check_replaced(trajectory(c.section), c.path, number(c.value));
    EXPECT_NE(error.find(c.message), std::string::npos)
        << c.path << " = " << c.value << ": '" << error << "'";
  }

  std::string untagged = kKernels;
  untagged.replace(untagged.find("ladder/depth16/pacstack"), 23,
                   "ladder-depth16-pacstack");
  EXPECT_NE(check_text(trajectory(untagged)).find("key is not"),
            std::string::npos);

  for (const char* bad : {"0x6FB9666A1A272F22", "0x6fb9666a1a272f2",
                          "6fb9666a1a272f22ab", "0x6fb9666a1a272f2g"}) {
    EXPECT_NE(check_replaced(trajectory(kFuzz), "fuzz.coverage_fingerprint",
                             text(bad))
                  .find("0x-prefixed 64-bit hex"),
              std::string::npos)
        << bad;
    EXPECT_NE(check_replaced(trajectory(kSim), "sim.equivalence_fingerprint",
                             text(bad))
                  .find("0x-prefixed 64-bit hex"),
              std::string::npos)
        << bad;
  }
}

TEST(CheckTrajectory, RejectsBrokenTopLevelAndMetrics) {
  const std::string doc = trajectory("");
  for (const char* key : {"bench", "schema_version", "threads", "seed",
                          "smoke", "wall_seconds", "metrics"}) {
    EXPECT_NE(check_erased(doc, key).find(key), std::string::npos) << key;
  }
  EXPECT_NE(check_replaced(doc, "smoke", number(1)).find("smoke"),
            std::string::npos);
  EXPECT_NE(check_replaced(doc, "bench", number(1)).find("bench"),
            std::string::npos);
  EXPECT_NE(check_text(R"({"bench": "b", "schema_version": 1,
      "threads": 1, "seed": 0, "smoke": true, "wall_seconds": nan,
      "metrics": []})")
                .find("non-finite"),
            std::string::npos);
  EXPECT_NE(check_text(R"({"bench": "b", "schema_version": 1,
      "threads": 1, "seed": 0, "smoke": true, "wall_seconds": 0,
      "metrics": [{"name": "m", "value": 1, "units": "u",
                   "trials": "0", "stddev": 0}]})")
                .find("trials"),
            std::string::npos);
}

TEST(CheckTrajectory, RejectsDuplicateMetricNames) {
  // acs-bench-diff keys records by name, so a repeated name would hide
  // every record before the last from the comparison.
  const std::string head = R"({"bench": "b", "schema_version": 1,
      "threads": 1, "seed": 0, "smoke": true, "wall_seconds": 0,
      "metrics": [{"name": "x", "value": 1, "units": "u", "trials": 0,
                   "stddev": 0}, )";
  EXPECT_EQ(check_text(head + R"({"name": "y", "value": 900, "units": "u",
      "trials": 0, "stddev": 0}]})"),
            "");
  EXPECT_NE(check_text(head + R"({"name": "x", "value": 900, "units": "u",
      "trials": 0, "stddev": 0}]})")
                .find("metrics[1] repeats metric name 'x'"),
            std::string::npos);
}

// --- Round trip: to_json -> parse -> check_trajectory and compare. ---

/// Fills every field with a distinct non-zero value; keyed maps get two
/// entries.
struct Filler {
  u64 next = 1;
  void operator()(const char*, u64& v) { v = next++; }
  void operator()(const char*, double& v) {
    v = static_cast<double>(next++) + 0.25;
  }
  void operator()(const char*, Hex64& v) {
    v.value = 0x9e3779b97f4a7c15ULL * next++;
  }
  void operator()(const char*, std::map<std::string, u64>& m) {
    m["a-cause"] = next++;
    m["b-cause"] = next++;
  }
  template <class E>
  void operator()(const char*, std::map<std::string, E>& m) {
    m["fam/p1/s"].fields(*this);
    m["fam/p2/s"].fields(*this);
  }
  template <class S>
  void operator()(const char*, S& nested) {
    nested.fields(*this);
  }
};

/// Expects every field to equal its value in the parsed `object`.
struct Matches {
  const json::Object* object;
  std::string where;

  const json::Value* at(const char* key) {
    const json::Value* v = json::find(*object, key);
    EXPECT_NE(v, nullptr) << where << key;
    return v;
  }
  void operator()(const char* key, u64& v) {
    const json::Value* got = at(key);
    ASSERT_TRUE(got != nullptr && got->is_number()) << where << key;
    EXPECT_EQ(got->number(), static_cast<double>(v)) << where << key;
  }
  void operator()(const char* key, double& v) {
    const json::Value* got = at(key);
    ASSERT_TRUE(got != nullptr && got->is_number()) << where << key;
    EXPECT_EQ(got->number(), v) << where << key;
  }
  void operator()(const char* key, Hex64& v) {
    const json::Value* got = at(key);
    ASSERT_TRUE(got != nullptr && got->is_string()) << where << key;
    EXPECT_EQ(std::stoull(got->string(), nullptr, 16), v.value)
        << where << key;
  }
  void operator()(const char* key, std::map<std::string, u64>& m) {
    const json::Value* got = at(key);
    ASSERT_TRUE(got != nullptr && got->object() != nullptr) << where << key;
    ASSERT_EQ(got->object()->size(), m.size()) << where << key;
    for (const auto& [name, count] : m) {
      const json::Value* v = json::find(*got->object(), name);
      ASSERT_TRUE(v != nullptr && v->is_number()) << where << key << name;
      EXPECT_EQ(v->number(), static_cast<double>(count));
    }
  }
  template <class E>
  void operator()(const char* key, std::map<std::string, E>& m) {
    const json::Value* got = at(key);
    ASSERT_TRUE(got != nullptr && got->object() != nullptr) << where << key;
    ASSERT_EQ(got->object()->size(), m.size()) << where << key;
    for (auto& [tag, entry] : m) {
      const json::Value* v = json::find(*got->object(), tag);
      ASSERT_TRUE(v != nullptr && v->object() != nullptr) << where << tag;
      Matches inner{v->object(), where + key + "." + tag + "."};
      entry.fields(inner);
    }
  }
  template <class S>
  void operator()(const char* key, S& nested) {
    const json::Value* got = at(key);
    ASSERT_TRUE(got != nullptr && got->object() != nullptr) << where << key;
    Matches inner{got->object(), where + key + "."};
    nested.fields(inner);
  }
};

template <class S>
void expect_round_trip(S section) {
  const std::string body =
      to_json("bench_round_trip", BenchOptions{}, 3, {}, 0.0, nullptr,
              {Section{section}});
  const json::Value root = json::Parser(body).parse();
  EXPECT_EQ(check_trajectory(root), "") << body;
  const json::Value* written = json::find(*root.object(), S::kName);
  ASSERT_TRUE(written != nullptr && written->object() != nullptr) << body;
  Matches matches{written->object(), std::string(S::kName) + "."};
  section.fields(matches);
}

template <class S>
S filled() {
  S section;
  Filler filler;
  section.fields(filler);
  return section;
}

TEST(RoundTrip, FaultsFuzzAndSimSectionsParseBackExactly) {
  expect_round_trip(filled<FaultSection>());
  expect_round_trip(filled<FuzzSection>());
  expect_round_trip(filled<SimSection>());
}

TEST(RoundTrip, LintSectionParsesBackExactly) {
  auto lint = filled<LintSection>();
  lint.witnesses =
      lint.replays_confirmed + lint.replays_refuted + lint.replays_unconfirmed;
  expect_round_trip(lint);
}

TEST(RoundTrip, TopologySectionParsesBackExactly) {
  auto t = filled<TopologySection>();
  t.completed = t.goodput + t.deadline_missed;
  t.requests = t.completed + t.dropped + t.failed;
  t.faults_delivered = t.plan_entries_drawn - 1;
  t.drops = {{"expired", t.dropped}, {"retry-exhausted", t.failed}};
  for (auto& [tag, entry] : t.configs) {
    for (PhaseCounts* phase : {&entry.phases.pre_storm, &entry.phases.storm,
                               &entry.phases.post_storm}) {
      phase->goodput = phase->arrivals - 1;
    }
  }
  expect_round_trip(t);
}

TEST(RoundTrip, KernelsSectionParsesBackExactly) {
  auto k = filled<KernelsSection>();
  k.kernels = 2;
  k.schemes = 1;
  k.total_cycles = 0;
  for (auto& [tag, entry] : k.entries) {
    entry.cycles = 3 * entry.instructions + 1;
    entry.calls = entry.instructions - 1;
    entry.cycles_per_instruction = static_cast<double>(entry.cycles) /
                                   static_cast<double>(entry.instructions);
    k.total_cycles += entry.cycles;
  }
  expect_round_trip(k);
}

// --- Every listed key is documented. ---

/// Collects every key of a fields() list, nested and entry keys included.
struct AllKeys {
  std::vector<std::string>* keys;
  template <class T>
  void operator()(const char* key, T& value) {
    keys->push_back(key);
    if constexpr (requires { value.fields(*this); }) {
      value.fields(*this);
    } else if constexpr (requires { value.begin()->second.fields(*this); }) {
      typename T::mapped_type entry;
      entry.fields(*this);
    }
  }
};

TEST(Docs, EveryListedKeyIsDocumented) {
  std::ifstream file(ACS_DOCS_DIR "/bench-output.md");
  ASSERT_TRUE(file.good());
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string docs = buffer.str();

  std::vector<Section> sections = {FaultSection{}, FuzzSection{},
                                   SimSection{},   LintSection{},
                                   TopologySection{}, KernelsSection{}};
  ASSERT_EQ(sections.size(), std::variant_size_v<Section>);
  for (Section& section : sections) {
    std::visit(
        [&](auto& s) {
          EXPECT_NE(docs.find(std::string("## Optional `") + s.kName +
                              "` section"),
                    std::string::npos)
              << s.kName;
          std::vector<std::string> keys;
          AllKeys collect{&keys};
          s.fields(collect);
          for (const std::string& key : keys) {
            EXPECT_TRUE(docs.find('"' + key + '"') != std::string::npos ||
                        docs.find('`' + key + '`') != std::string::npos)
                << s.kName << "." << key << " is not in bench-output.md";
          }
        },
        section);
  }
}

}  // namespace
}  // namespace acs::bench
