#include "harness.hpp"

#include <signal.h>
#include <stdlib.h>
#include <sys/time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/hex.hpp"

namespace perfbench {

namespace {

Samples& history() {
  static Samples samples;
  return samples;
}

volatile std::uint32_t loop_sink = 0;

/// SHA-256-style rounds (rotates, adds and boolean mixing with
/// instruction-level parallelism) on registers only. Of the loops tried,
/// its speed tracked block-validation time best on a shared host
/// (correlation 0.88 over 300 blocks; a multiply chain reached 0.46). No
/// memory and no locks, so the SIGPROF handler may run it.
double run_loop() {
  const auto start = Clock::now();
  std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  for (std::uint32_t i = 0; i < 300000; ++i) {
    const std::uint32_t t1 = h[7] + ((h[4] >> 6) | (h[4] << 26)) +
                             ((h[4] & h[5]) ^ (~h[4] & h[6])) + i;
    const std::uint32_t t2 = ((h[0] >> 2) | (h[0] << 30)) +
                             ((h[0] & h[1]) ^ (h[0] & h[2]) ^ (h[1] & h[2]));
    h[7] = h[6];
    h[6] = h[5];
    h[5] = h[4];
    h[4] = h[3] + t1;
    h[3] = h[2];
    h[2] = h[1];
    h[1] = h[0];
    h[0] = t1 + t2;
  }
  loop_sink = loop_sink + h[0];
  return seconds_since(start);
}

double timed_loop() {
  const double seconds = run_loop();
  history().add(seconds);
  return seconds;
}

// In-interval loop times, written only by the SIGPROF handler while a timer
// runs and read once its itimer is disarmed.
constexpr int kMaxTicks = 1 << 14;
double tick_seconds[kMaxTicks];
volatile sig_atomic_t tick_count = 0;
bool timer_running = false;

void on_tick(int) {
  const int saved_errno = errno;
  if (tick_count < kMaxTicks) {
    tick_seconds[tick_count] = run_loop();
    tick_count = tick_count + 1;
  }
  errno = saved_errno;
}

void arm_ticks(bool on) {
  itimerval period{};
  if (on) {
    period.it_interval.tv_usec = 100000;
    period.it_value.tv_usec = 100000;
  }
  setitimer(ITIMER_PROF, &period, nullptr);
}

}  // namespace

const Samples& ScaledTimer::loop_history() { return history(); }

ScaledTimer::ScaledTimer() : before_s_(timed_loop()) {
  static const bool installed = [] {
    struct sigaction action {};
    action.sa_handler = on_tick;
    action.sa_flags = SA_RESTART;
    sigemptyset(&action.sa_mask);
    return sigaction(SIGPROF, &action, nullptr) == 0;
  }();
  if (!installed) throw std::runtime_error("cannot install a SIGPROF handler");
  if (timer_running) throw std::logic_error("ScaledTimer intervals nest");
  timer_running = true;
  arm_ticks(true);
  start_ = Clock::now();
}

ScaledTimer::~ScaledTimer() {
  if (running_) stop();
}

double ScaledTimer::stop() {
  const double wall_s = seconds_since(start_);
  arm_ticks(false);
  running_ = timer_running = false;
  const int ticks = tick_count;
  tick_count = 0;
  double in_interval_s = 0;
  for (int i = 0; i < ticks; ++i) {
    history().add(tick_seconds[i]);
    in_interval_s += tick_seconds[i];
  }
  const double loops_s = before_s_ + in_interval_s + timed_loop();
  factor_ = (ticks + 2) * kReferenceLoopSeconds / loops_s;
  return scaled(wall_s - in_interval_s);
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double position = q * static_cast<double>(sorted.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, sorted.size() - 1);
  const double weight = position - static_cast<double>(below);
  return sorted[below] + weight * (sorted[above] - sorted[below]);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr || index_ < 0) return;
  log_->spans_[static_cast<std::size_t>(index_)].end_ns = log_->now_ns();
  log_->open_.pop_back();
}

SpanLog::Scope SpanLog::span(std::string name, std::int64_t id) {
  if (!active_) return Scope(nullptr, -1);
  Span span;
  span.name = std::move(name);
  span.start_ns = now_ns();
  span.parent = open_.empty() ? -1 : open_.back();
  span.id = id;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return Scope(this, index);
}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

bool SpanLog::write(const fs::path& path) const {
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  const fs::path partial = path.string() + ".partial";
  {
    std::ofstream out(partial, std::ios::binary);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      char line[512];
      std::snprintf(line, sizeof(line),
                    "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"index\": %zu, "
                    "\"parent\": %d, \"id\": %lld}}%s\n",
                    span.name.c_str(), static_cast<double>(span.start_ns) / 1e3,
                    static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                    span.parent, static_cast<long long>(span.id),
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]}\n";
    if (!out) return false;
  }
  fs::rename(partial, path, ec);
  return !ec;
}

TempDir::TempDir(const fs::path& parent) {
  fs::create_directories(parent);
  std::string pattern = (parent / "run-XXXXXX").string();
  if (mkdtemp(pattern.data()) == nullptr)
    throw std::runtime_error("cannot create a temp dir under " +
                             parent.string());
  path_ = pattern;
}

TempDir::~TempDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) failures.push_back(what);
}

void Result::figure(std::string name, double value, std::string unit,
                    std::string note) {
  figures.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

double run_reps(const RunConfig& config, SpanLog& spans, int min_reps,
                const std::function<double(int)>& rep) {
  if (config.trace) min_reps = std::max(min_reps, 2);
  const auto start = Clock::now();
  Samples all, traced, untraced;
  for (int i = 0;; ++i) {
    const double elapsed = seconds_since(start);
    if (i >= min_reps && elapsed + all.median() > config.seconds) break;
    const bool trace_this = config.trace && i % 2 == 0;
    spans.set_active(trace_this);
    const double seconds = rep(i);
    all.add(seconds);
    (trace_this ? traced : untraced).add(seconds);
  }
  spans.set_active(config.trace);
  if (!config.trace) return 0;
  return traced.median() / untraced.median() - 1.0;
}

std::string scenario_text(const RunConfig& config, const std::string& file) {
  const fs::path path = config.root / "perfbench" / "scenarios" / file;
  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (!in && !in.eof()) throw std::runtime_error("cannot read " + path.string());
  const std::string seed_field = "\"seed\": 7";
  const std::size_t at = text.find(seed_field);
  if (at == std::string::npos)
    throw std::runtime_error(path.string() + " has no \"seed\": 7 field");
  text.replace(at, seed_field.size(),
               "\"seed\": " + std::to_string(config.seed));
  return text;
}

std::string digest_hex(const std::string& text) {
  return hex(bm::crypto::sha256(bm::to_bytes(text)));
}

std::string hex(const bm::crypto::Digest& digest) {
  return bm::hex_encode(bm::crypto::digest_view(digest));
}

std::string pin_of(const bm::fabric::BlockValidationResult& result) {
  std::string text = hex(result.commit_hash);
  text += result.block_valid ? " v " : " x ";
  for (const auto flag : result.flags)
    text += std::to_string(static_cast<int>(flag)) + ",";
  return text + "\n";
}

}  // namespace perfbench
