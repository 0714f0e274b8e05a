#include <cstdio>
#include <fstream>

#include "bench.hpp"

namespace e2e {

int Tracer::begin(std::string name, int cell) {
  Span s;
  s.name = std::move(name);
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  s.parent = open_.empty() ? -1 : open_.back();
  s.cell = cell >= 0 ? cell + cell_base_ : cell;
  s.round = round_;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

double Tracer::end(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - origin_)
                 .count();
  // Spans close innermost-first (ScopedSpan lifetimes nest).
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

double Tracer::total(const std::string& name, int round) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.round == round && s.name == name && s.end_ns >= 0) {
      ns += s.end_ns - s.start_ns;
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

std::map<std::string, double> Tracer::self_by_layer(int round) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.round == round && s.parent >= 0 && s.end_ns >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.round != round || s.end_ns < 0) {
      continue;
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) {
      continue;
    }
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"cell\":%d,"
                  "\"round\":%d}}",
                  first ? "" : ",\n", s.name.c_str(),
                  s.name.substr(0, s.name.find('.')).c_str(),
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent, s.cell, s.round);
    out << buf;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace e2e
