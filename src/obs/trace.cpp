#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "obs/metrics.hpp"

namespace bm::obs {

namespace {

using detail::json_escape;

/// Chrome trace timestamps are microseconds; emit simulated nanoseconds as
/// fixed-point "<us>.<frac>" so sub-microsecond stage times survive without
/// floating-point formatting ambiguity.
std::string ts_us(sim::Time ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

void append_args(std::ostringstream& out, const std::vector<TraceArg>& args) {
  out << "\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << json_escape(args[i].key) << "\":";
    if (args[i].quoted)
      out << "\"" << json_escape(args[i].value) << "\"";
    else
      out << args[i].value;
  }
  out << "}";
}

}  // namespace

int Tracer::begin_process(const std::string& name) {
  ProcessInfo info;
  info.name = name;
  info.pid = static_cast<int>(processes_.size()) + 1;
  processes_.push_back(info);
  current_process_ = info.pid;
  return info.pid;
}

int Tracer::lane(const std::string& name) {
  if (processes_.empty()) begin_process("sim");
  LaneInfo info;
  info.name = name;
  info.process = current_process_;
  info.tid = next_tid_++;
  lanes_.push_back(info);
  return info.tid;
}

void Tracer::complete(int lane, std::string name, std::string category,
                      sim::Time start, sim::Time end,
                      std::vector<TraceArg> args) {
  SpanRecord span;
  span.name = std::move(name);
  span.category = std::move(category);
  span.start = start;
  span.end = end;
  span.lane = lane;
  span.process = lane >= 1 && lane <= static_cast<int>(lanes_.size())
                     ? lanes_[static_cast<std::size_t>(lane - 1)].process
                     : current_process_;
  span.phase = 'X';
  span.args = std::move(args);
  events_.push_back(std::move(span));
}

void Tracer::instant(int lane, std::string name, std::string category,
                     sim::Time at, std::vector<TraceArg> args) {
  complete(lane, std::move(name), std::move(category), at, at,
           std::move(args));
  events_.back().phase = 'i';
}

void Tracer::counter(int lane, std::string track, std::string category,
                     sim::Time at, std::int64_t value) {
  SpanRecord span;
  span.name = std::move(track);
  span.category = std::move(category);
  span.start = span.end = at;
  span.lane = lane;
  span.process = lane >= 1 && lane <= static_cast<int>(lanes_.size())
                     ? lanes_[static_cast<std::size_t>(lane - 1)].process
                     : current_process_;
  span.phase = 'C';
  span.args.emplace_back("value", static_cast<std::int64_t>(value));
  events_.push_back(std::move(span));
}

std::vector<std::string> Tracer::categories() const {
  std::set<std::string> cats;
  for (const auto& e : events_)
    if (!e.category.empty()) cats.insert(e.category);
  return {cats.begin(), cats.end()};
}

std::string Tracer::to_chrome_json() const {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&]() -> std::ostringstream& {
    out << (first ? "" : ",\n");
    first = false;
    return out;
  };
  // Metadata: process and thread names + stable lane ordering.
  for (const auto& p : processes_) {
    sep() << "{\"ph\":\"M\",\"pid\":" << p.pid
          << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\""
          << json_escape(p.name) << "\"}}";
  }
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const LaneInfo& lane = lanes_[i];
    sep() << "{\"ph\":\"M\",\"pid\":" << lane.process
          << ",\"tid\":" << lane.tid
          << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
          << json_escape(lane.name) << "\"}}";
    sep() << "{\"ph\":\"M\",\"pid\":" << lane.process
          << ",\"tid\":" << lane.tid
          << ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":"
          << i << "}}";
  }
  for (const auto& e : events_) {
    sep() << "{\"ph\":\"" << e.phase << "\",\"pid\":" << e.process
          << ",\"tid\":" << e.lane << ",\"ts\":" << ts_us(e.start);
    if (e.phase == 'X')
      out << ",\"dur\":" << ts_us(e.end - e.start);
    if (e.phase == 'i') out << ",\"s\":\"t\"";
    if (!e.category.empty())
      out << ",\"cat\":\"" << json_escape(e.category) << "\"";
    out << ",\"name\":\"" << json_escape(e.name) << "\",";
    append_args(out, e.args);
    out << "}";
  }
  out << "\n]}\n";
  return out.str();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  return detail::write_file(path, to_chrome_json());
}

}  // namespace bm::obs
