#include "trace.h"

#include <cstdio>

#include "bench.h"

namespace slimbench {

Tracer::Tracer() : origin_(NowSeconds()) {}

int Tracer::Begin(std::string_view name) {
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = NowSeconds() - origin_;
  spans_.push_back(std::move(span));
  cpu_start_.push_back(CpuSeconds());
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end = NowSeconds() - origin_;
  span.cpu = CpuSeconds() - cpu_start_[static_cast<size_t>(id)];
  // Spans close in LIFO order (Scope guarantees it).
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Tracer::Seconds(std::string_view name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.duration();
  }
  return total;
}

double Tracer::Cpu(std::string_view name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.cpu;
  }
  return total;
}

double Tracer::SelfSeconds(int id) const {
  double self = spans_[static_cast<size_t>(id)].duration();
  for (const Span& span : spans_) {
    if (span.parent == id) self -= span.duration();
  }
  return self;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"traceEvents\": [\n");
  for (size_t id = 0; id < spans_.size(); ++id) {
    const Span& span = spans_[id];
    std::fprintf(out,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"parent\": %d, \"cpu_s\": %.6f}}",
                 id == 0 ? "" : ",\n", span.name.c_str(), span.start * 1e6,
                 span.duration() * 1e6, id, span.parent, span.cpu);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace slimbench
