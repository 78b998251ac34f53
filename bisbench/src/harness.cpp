#include "harness.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "util/error.hpp"

namespace bisbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

ProcStatus proc_status() {
  ProcStatus s;
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      s.vm_hwm_mb = std::stod(line.substr(6)) / 1024.0;  // kB
    else if (line.rfind("Threads:", 0) == 0)
      s.threads = std::stoi(line.substr(8));
  }
  return s;
}

bool reset_peak_rss() {
  const int fd = ::open("/proc/self/clear_refs", O_WRONLY);
  if (fd < 0) return false;
  const bool ok = ::write(fd, "5", 1) == 1;
  ::close(fd);
  return ok;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

// --- Recorder ----------------------------------------------------------------

Recorder::Recorder(bool enabled)
    : enabled_(enabled),
      peak_per_span_(enabled && reset_peak_rss()),
      epoch_(Clock::now()) {}

ProcStatus Recorder::sample_peak() {
  const ProcStatus st = proc_status();
  for (int i : open_) {
    double& peak = events_[static_cast<std::size_t>(i)].peak_rss_mb;
    peak = std::max(peak, st.vm_hwm_mb);
  }
  if (peak_per_span_) reset_peak_rss();
  return st;
}

Recorder::Span::Span(Recorder& rec, const char* name) {
  if (!rec.enabled_) return;
  const Clock::time_point t0 = Clock::now();
  rec_ = &rec;
  rec.sample_peak();  // close the enclosing spans' peak so far
  Event e;
  e.name = name;
  e.parent = rec.open_.empty() ? -1 : rec.open_.back();
  event_ = rec.events_.size();
  rec.events_.push_back(std::move(e));
  rec.open_.push_back(static_cast<int>(event_));
  cpu0_ = process_cpu_s();
  start_ = Clock::now();
  rec.pending_overhead_s_ +=
      std::chrono::duration<double>(start_ - t0).count();
}

Recorder::Span::~Span() {
  if (rec_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  const double cpu = process_cpu_s() - cpu0_;
  const ProcStatus st = rec_->sample_peak();  // still open: folds into e
  Event& e = rec_->events_[event_];
  e.start_us = std::chrono::duration<double, std::micro>(start_ - rec_->epoch_)
                   .count();
  e.dur_us = std::chrono::duration<double, std::micro>(end - start_).count();
  e.cpu_s = cpu;
  e.threads = st.threads;
  rec_->open_.pop_back();
  if (e.parent < 0) rec_->pending_top_level_s_ += e.dur_us * 1e-6;
  Pending& p = rec_->pending_[e.name];
  p.wall_s += e.dur_us * 1e-6;
  p.cpu_s += cpu;
  p.peak_rss_mb = std::max(p.peak_rss_mb, e.peak_rss_mb);
  CallStats& c = rec_->calls_[e.name];
  c.threads = std::max(c.threads, st.threads);
  rec_->pending_overhead_s_ +=
      std::chrono::duration<double>(Clock::now() - end).count();
}

void Recorder::end_op() {
  if (!enabled_) return;
  for (const auto& [name, p] : pending_) {
    CallStats& c = calls_[name];
    c.wall_s.push_back(p.wall_s);
    c.cpu_s.push_back(p.cpu_s);
    c.peak_rss_mb.push_back(p.peak_rss_mb);
  }
  pending_.clear();
  overhead_s_.push_back(pending_overhead_s_);
  top_level_s_.push_back(pending_top_level_s_);
  pending_overhead_s_ = 0;
  pending_top_level_s_ = 0;
}

void Recorder::set(const std::string& name, double v) {
  if (enabled_) counters_[name] = v;
}

std::string Recorder::chrome_trace_json() const {
  bisram::JsonWriter j;
  j.begin_object();
  j.key("displayTimeUnit").value("ms");
  j.key("traceEvents").begin_array();
  for (const Event& e : events_) {
    const std::string layer = e.name.substr(0, e.name.find('.'));
    j.begin_object();
    j.key("name").value(e.name);
    j.key("cat").value(layer);
    j.key("ph").value("X");
    j.key("ts").value(e.start_us);
    j.key("dur").value(e.dur_us);
    j.key("pid").value(1);
    j.key("tid").value(1);
    j.key("args").begin_object();
    j.key("parent").value(
        e.parent < 0 ? std::string()
                     : events_[static_cast<std::size_t>(e.parent)].name);
    j.key("cpu_s").value(e.cpu_s);
    j.key("peak_rss_mb").value(e.peak_rss_mb);
    j.key("threads").value(e.threads);
    j.end_object();
    j.end_object();
  }
  j.end_array();
  j.end_object();
  return j.str();
}

// --- Ledger ------------------------------------------------------------------

void Ledger::begin_op() {
  ++attempted_;
  current_failed_ = false;
}

bool Ledger::check(bool ok, const std::string& what) {
  if (attempted_ == 0) begin_op();
  ++checks_;
  if (!ok) {
    failures_.push_back(what);
    if (!current_failed_) ++failed_;
    current_failed_ = true;
  }
  return ok;
}

void Ledger::fail(const std::string& what) { check(false, what); }

// --- files -------------------------------------------------------------------

std::string fresh_dir(const std::string& parent, const std::string& stem) {
  namespace fs = std::filesystem;
  fs::create_directories(parent);
  for (int i = 0;; ++i) {
    const fs::path p = fs::path(parent) / (stem + "." + std::to_string(i));
    if (fs::create_directory(p)) return p.string();
  }
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

const bisram::JsonValue& need(const bisram::JsonValue& obj,
                              const std::string& key) {
  const bisram::JsonValue* v = obj.find(key);
  if (v == nullptr)
    throw bisram::Error("expected-results file: missing key \"" + key + "\"");
  return *v;
}

double need_num(const bisram::JsonValue& obj, const std::string& key) {
  return need(obj, key).as_double();
}

std::int64_t need_int(const bisram::JsonValue& obj, const std::string& key) {
  return need(obj, key).as_i64();
}

}  // namespace bisbench
