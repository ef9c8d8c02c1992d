// Clocks, the span recorder and the pin-file reader.
#include <time.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

int Tracer::begin(std::string name, u64 op) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{std::move(name), op, parent, wall_now(), 0});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end = wall_now();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"acs_perfbench\"}}";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                  "\"span\":%zu,\"parent\":%d}}",
                  s.name.c_str(), s.name.substr(0, s.name.find('.')).c_str(),
                  (s.start - origin) * 1e6, (s.end - s.start) * 1e6,
                  static_cast<unsigned long long>(s.op), i, s.parent);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end - spans_[i].start;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end - spans_[i].start;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_layer[spans_[i].name.substr(0, spans_[i].name.find('.'))] += self[i];
  }
  return by_layer;
}

void Pins::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pin file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, key, value;
    fields >> workload >> key;
    std::vector<std::string> values;
    while (fields >> value) values.push_back(value);
    entries_[workload + ' ' + key] = std::move(values);
  }
}

const std::vector<std::string>* Pins::find(const std::string& workload,
                                           const std::string& key) const {
  const auto it = entries_.find(workload + ' ' + key);
  return it == entries_.end() ? nullptr : &it->second;
}

}  // namespace perfbench
