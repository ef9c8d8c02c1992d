#include "obs/metrics.h"

#include <stdexcept>

#include "common/json.h"

namespace acs::obs {

Histogram::Histogram(std::vector<u64> edges)
    : edges_(std::move(edges)), counts_(edges_.size() + 1, 0) {
  for (std::size_t i = 1; i < edges_.size(); ++i) {
    if (edges_[i] <= edges_[i - 1]) {
      throw std::invalid_argument{"Histogram: edges must strictly increase"};
    }
  }
}

void Histogram::observe(u64 value) noexcept {
  if (counts_.empty()) return;  // default-constructed: nothing to count into
  std::size_t bucket = edges_.size();  // overflow bucket
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (value <= edges_[i]) {
      bucket = i;
      break;
    }
  }
  ++counts_[bucket];
}

void Histogram::merge(const Histogram& other) {
  if (other.counts_.empty()) return;
  if (counts_.empty()) {
    *this = other;
    return;
  }
  if (edges_ != other.edges_) {
    throw std::invalid_argument{"Histogram::merge: mismatched bucket edges"};
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
}

u64 Histogram::total() const noexcept {
  u64 sum = 0;
  for (const u64 c : counts_) sum += c;
  return sum;
}

const std::vector<u64>& depth_edges() {
  static const std::vector<u64> edges{1, 2, 4, 8, 16, 32, 64, 128, 256};
  return edges;
}

void Metrics::add(const std::string& name, u64 delta) {
  counters_[name] += delta;
}

u64 Metrics::counter(const std::string& name) const noexcept {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

Histogram& Metrics::histogram(const std::string& name,
                              const std::vector<u64>& edges) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, Histogram{edges}).first->second;
}

void Metrics::observe(const std::string& name, const std::vector<u64>& edges,
                      u64 value) {
  histogram(name, edges).observe(value);
}

void Metrics::merge(const Metrics& other, const std::string& prefix) {
  for (const auto& [name, value] : other.counters_) {
    counters_[prefix + name] += value;
  }
  for (const auto& [name, hist] : other.histograms_) {
    const auto it = histograms_.find(prefix + name);
    if (it == histograms_.end()) {
      histograms_.emplace(prefix + name, hist);
    } else {
      it->second.merge(hist);
    }
  }
}

namespace {

[[nodiscard]] std::string list_json(const std::vector<u64>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(values[i]);
  }
  out += "]";
  return out;
}

}  // namespace

std::string Metrics::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out = "{\n";
  out += pad + "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += pad + "    \"" + json_escape(name) + "\": " + std::to_string(value);
  }
  out += counters_.empty() ? "},\n" : "\n" + pad + "  },\n";
  out += pad + "  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += pad + "    \"" + json_escape(name) + "\": {\"edges\": " +
           list_json(hist.edges()) + ", \"counts\": " +
           list_json(hist.counts()) + "}";
  }
  out += histograms_.empty() ? "}\n" : "\n" + pad + "  }\n";
  out += pad + "}";
  return out;
}

}  // namespace acs::obs
