#pragma once
// In-memory span recorder of the benchmark. Spans are opened by the
// benchmark's own code around each call into a layer's public API, never
// inside the program under test. A span has a name, a start and end on
// the steady clock (seconds since the tracer was made), the index of the
// span that was open on the same thread when it started (-1 for none),
// and a request id shared by every span of one request (a span opened
// with id 0 inherits its parent's; 0 when it belongs to no request). Nothing is written until write_chrome_json(),
// which the benchmark calls once the run has ended.
//
// A disabled tracer records nothing: Scope then costs one branch.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    std::uint64_t request = 0;
    std::uint32_t thread = 0;
  };

  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Switches recording on or off (spans already open still close). Safe
  /// to call while other threads open spans.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Wall seconds since the scope opened (valid when not recording too).
    double elapsed() const;

   private:
    Tracer& tracer_;
    int index_ = -1;
    std::chrono::steady_clock::time_point start_;
  };

  /// Snapshot of every recorded span, in start order per thread.
  std::vector<Span> spans() const;
  /// Durations (seconds) of every closed span called `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Writes the spans as Chrome trace-event JSON. Returns false on I/O
  /// failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  double now() const;
  int open(const char* name, std::uint64_t request);
  void close(int index);

  std::atomic<bool> enabled_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
