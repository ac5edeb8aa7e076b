#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

struct Record {
  const char* name;
  int64_t t0_ns, t1_ns, self_ns;
  std::size_t tid;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<Record> g_records;  // guarded by g_mu
thread_local Span* tl_top = nullptr;

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

void spans_enable(bool on) { g_enabled.store(on); }
bool spans_enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name) {
  if (!spans_enabled()) return;
  name_ = name;
  parent_ = tl_top;
  tl_top = this;
  t0_ns_ = now_ns();
}

Span::~Span() {
  if (name_ == nullptr) return;
  const int64_t t1 = now_ns();
  const int64_t dur = t1 - t0_ns_;
  tl_top = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += dur;
  const std::size_t tid = std::hash<std::thread::id>()(std::this_thread::get_id());
  std::lock_guard<std::mutex> lk(g_mu);
  g_records.push_back({name_, t0_ns_, t1, dur - child_ns_, tid});
}

std::map<std::string, SpanStats> span_summary() {
  std::map<std::string, std::vector<double>> durs;
  std::map<std::string, SpanStats> out;
  std::lock_guard<std::mutex> lk(g_mu);
  for (const Record& r : g_records) {
    SpanStats& s = out[r.name];
    const double ms = static_cast<double>(r.t1_ns - r.t0_ns) * 1e-6;
    ++s.count;
    s.total_ms += ms;
    s.self_ms += static_cast<double>(r.self_ns) * 1e-6;
    durs[r.name].push_back(ms);
  }
  for (auto& [name, s] : out) s.median_ms = median(durs[name]);
  return out;
}

bool spans_write_chrome(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lk(g_mu);
  int64_t base = INT64_MAX;
  for (const Record& r : g_records) base = std::min(base, r.t0_ns);
  std::map<std::size_t, int> tids;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    const int tid = tids.emplace(r.tid, static_cast<int>(tids.size())).first->second;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"self_us\":%.3f}}\n",
                 i == 0 ? "" : ",", r.name, tid,
                 static_cast<double>(r.t0_ns - base) * 1e-3,
                 static_cast<double>(r.t1_ns - r.t0_ns) * 1e-3,
                 static_cast<double>(r.self_ns) * 1e-3);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
