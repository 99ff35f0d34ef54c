// In-memory span recorder of the traced run.
//
// A span is (name, start, end, parent, CPU seconds). Spans are recorded by
// the benchmark around its calls into the library's layers, kept in memory,
// and written out once as Chrome trace-event JSON when the run ends.
#ifndef SLIMBENCH_TRACE_H_
#define SLIMBENCH_TRACE_H_

#include <string>
#include <string_view>
#include <vector>

namespace slimbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;  // seconds since the tracer was created
    double end = 0.0;
    double cpu = 0.0;    // process CPU seconds spent inside the span

    double duration() const { return end - start; }
  };

  Tracer();

  /// Opens a span whose parent is the innermost open span.
  int Begin(std::string_view name);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration / CPU seconds of every span called `name`.
  double Seconds(std::string_view name) const;
  double Cpu(std::string_view name) const;

  /// A span's duration minus the part of it its child spans cover.
  double SelfSeconds(int id) const;

  bool WriteChromeJson(const std::string& path) const;

 private:
  double origin_;
  std::vector<Span> spans_;
  std::vector<double> cpu_start_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* tracer, std::string_view name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~Scope() { tracer_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace slimbench

#endif  // SLIMBENCH_TRACE_H_
