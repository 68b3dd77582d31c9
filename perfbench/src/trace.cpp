#include "trace.hpp"

#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {

namespace {

/// Per-thread stack of open span indices (the parent of a new span).
thread_local std::vector<int> t_open;

std::uint32_t thread_tag() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffu);
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int Tracer::open(const char* name, std::uint64_t request) {
  Span s;
  s.name = name;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.request = request;
  s.thread = thread_tag();
  std::lock_guard<std::mutex> lock(mu_);
  if (s.request == 0 && s.parent >= 0) {
    s.request = spans_[static_cast<std::size_t>(s.parent)].request;
  }
  s.start_s = now();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  t_open.push_back(index);
  return index;
}

void Tracer::close(int index) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_s = now();
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request)
    : tracer_(tracer), start_(std::chrono::steady_clock::now()) {
  if (tracer_.enabled()) index_ = tracer_.open(name, request);
}

Tracer::Scope::~Scope() {
  if (index_ >= 0) tracer_.close(index_);
}

double Tracer::Scope::elapsed() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_s >= s.start_s) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"request\":%llu}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.thread, s.start_s * 1e6,
                 (s.end_s - s.start_s) * 1e6, i, s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
