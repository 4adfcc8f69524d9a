// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its calls into the
// library's public API (never inside src/). They are kept in memory and
// written out once, at the end, as Chrome trace-event JSON. A layer's
// self time is the duration of its spans minus the part covered by their
// child spans; the layer of a span is the prefix of its name before the
// first '.'.

#ifndef AUBENCH_TRACE_H_
#define AUBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace aubench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    size_t thread = 0;
    bool aggregate = false;  // duration reported by the library, laid end to end
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  // Opens a span; returns its id (-1 when tracing is off).
  int Begin(const std::string& name, int parent = -1) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.parent = parent;
    span.thread = std::hash<std::thread::id>()(std::this_thread::get_id());
    span.start_ns = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int id) {
    if (id < 0) return;
    int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }

  // Records a child span whose duration the library measured itself
  // (JoinStats phase times). Consecutive calls for one parent are laid
  // end to end from the parent's start.
  int AddAggregate(const std::string& name, double seconds, int parent) {
    if (!enabled_ || parent < 0) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    int64_t start = spans_[static_cast<size_t>(parent)].start_ns;
    for (const Span& s : spans_) {
      if (s.parent == parent && s.aggregate) start = std::max(start, s.end_ns);
    }
    Span span;
    span.name = name;
    span.parent = parent;
    span.thread = spans_[static_cast<size_t>(parent)].thread;
    span.start_ns = start;
    span.end_ns = start + static_cast<int64_t>(seconds * 1e9);
    span.aggregate = true;
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  // Self seconds per layer (name prefix before the first '.').
  std::map<std::string, double> LayerSelfSeconds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      int64_t self = s.end_ns - s.start_ns - child_ns[i];
      out[s.name.substr(0, s.name.find('.'))] +=
          static_cast<double>(std::max<int64_t>(self, 0)) * 1e-9;
    }
    return out;
  }

  // Writes the spans as Chrome trace-event JSON ("X" complete events,
  // microsecond timestamps), with `metadata` as top-level string fields.
  bool WriteChrome(const std::string& path,
                   const std::vector<std::pair<std::string, std::string>>&
                       metadata) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<size_t, int> tids;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      int tid = tids.emplace(s.thread, static_cast<int>(tids.size())).first->second;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}\n",
                   i == 0 ? "" : ",", s.name.c_str(),
                   s.aggregate ? "aggregate" : "call", tid,
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   s.parent);
    }
    std::fprintf(f, "]");
    for (const auto& [key, value] : metadata) {
      std::fprintf(f, ",\"%s\":\"%s\"", key.c_str(), value.c_str());
    }
    std::fprintf(f, "}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// RAII span: opens on construction, closes on destruction or End().
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int parent = -1)
      : tracer_(tracer), id_(tracer->Begin(name, parent)) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  void End() {
    tracer_->End(id_);
    id_ = -1;
  }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace aubench

#endif  // AUBENCH_TRACE_H_
