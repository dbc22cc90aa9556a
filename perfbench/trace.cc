#include <algorithm>
#include <fstream>
#include <utility>

#include "bench.h"

namespace perfbench {

int64_t Tracer::Begin(const std::string& name, const std::string& layer,
                      int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, layer, now, now - 1, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  if (!enabled_ || id < 0) return;
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = now;
}

int64_t Tracer::Add(const std::string& name, const std::string& layer,
                    double start, double end, int64_t parent,
                    uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, layer, start, end, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::Event(const std::string& name, const std::string& layer,
                   double at, int64_t parent, uint64_t request) {
  Add(name, layer, at, at, parent, request);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end > s.start) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < s.start) continue;  // still open
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = s.start;
    for (const auto& [lo, hi] : kids) {
      const double a = std::max(lo, reach);
      const double b = std::min(hi, s.end);
      if (b > a) covered += b - a;
      reach = std::max(reach, std::min(hi, s.end));
    }
    self[s.layer] += (s.end - s.start) - covered;
  }
  return self;
}

bool Tracer::Write(const std::string& path, const std::string& stamp) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"stamp\": \"";
  for (char c : stamp) out << (c == '"' ? '\'' : c);
  out << "\"}\n";
  std::lock_guard<std::mutex> lock(mu_);
  char buf[128];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "\"id\": %zu, \"parent\": %lld, \"request\": %llu, "
                  "\"start\": %.9f, \"end\": %.9f",
                  i, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.start, s.end);
    out << "{\"name\": \"" << s.name << "\", \"layer\": \"" << s.layer
        << "\", " << buf << "}\n";
  }
  return static_cast<bool>(out);
}

void FinishTrace(const Tracer& tracer, const std::string& path,
                 Report* report) {
  const std::map<std::string, double> self = tracer.SelfSecondsByLayer();
  for (const char* layer :
       {"gen", "api", "core", "parallel", "serve", "client"}) {
    auto it = self.find(layer);
    report->Add(std::string("trace.self_") + layer + "_s",
                it == self.end() ? 0 : it->second, "s", 1);
  }
  report->Add("trace.spans", static_cast<double>(tracer.size()), "count", 1);
  if (!tracer.Write(path, HostStamp())) {
    report->Fail("could not write the trace to " + path);
  }
}

}  // namespace perfbench
