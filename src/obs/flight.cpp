#include "obs/flight.hpp"

#include <sstream>

#include "obs/metrics.hpp"

namespace bm::obs {

std::string_view flight_stage_name(FlightStage stage) {
  switch (stage) {
    case FlightStage::kSubmitted: return "submitted";
    case FlightStage::kAdmitted: return "admitted";
    case FlightStage::kShed: return "shed";
    case FlightStage::kDispatched: return "dispatched";
    case FlightStage::kEndorsed: return "endorsed";
    case FlightStage::kOrdered: return "ordered";
    case FlightStage::kValidated: return "validated";
    case FlightStage::kCommitted: return "committed";
    case FlightStage::kTimedOut: return "timed_out";
    case FlightStage::kWatchdog: return "watchdog";
    case FlightStage::kFallback: return "fallback";
    case FlightStage::kAborted: return "aborted";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(sim::Simulation& sim, FlightConfig config)
    : sim_(sim), config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
  ring_.reserve(config_.capacity);
}

void FlightRecorder::arm(std::string path) { dump_path_ = std::move(path); }

void FlightRecorder::record(FlightStage stage, std::uint64_t id,
                            std::string note) {
  FlightEvent event{sim_.now(), stage, id, std::move(note)};
  ++recorded_;
  if (ring_.size() < config_.capacity) {
    ring_.push_back(std::move(event));
    return;
  }
  ring_[head_] = std::move(event);
  head_ = (head_ + 1) % config_.capacity;
  ++dropped_;
}

bool FlightRecorder::trigger(const std::string& reason) {
  ++trigger_count_;
  if (trigger_count_ > 1) return false;  // first trigger owns the story
  trigger_reason_ = reason;
  trigger_at_ = sim_.now();
  if (dump_path_.empty()) return false;
  return write_json(dump_path_);
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::vector<FlightEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  return out;
}

std::string FlightRecorder::to_json() const {
  std::ostringstream out;
  out << "{\n  \"schema_version\": 1,\n  \"kind\": \"flight_recorder\",\n"
      << "  \"capacity\": " << config_.capacity << ",\n"
      << "  \"recorded\": " << recorded_ << ",\n"
      << "  \"dropped\": " << dropped_ << ",\n"
      << "  \"trigger\": ";
  if (trigger_count_ > 0) {
    out << "{\"reason\": \"" << detail::json_escape(trigger_reason_)
        << "\", \"at_ns\": " << trigger_at_
        << ", \"count\": " << trigger_count_ << "}";
  } else {
    out << "null";
  }
  out << ",\n  \"events\": [";
  const std::vector<FlightEvent> ordered = events();
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const FlightEvent& event = ordered[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"at_ns\": " << event.at
        << ", \"stage\": \"" << flight_stage_name(event.stage)
        << "\", \"id\": " << event.id;
    if (!event.note.empty())
      out << ", \"note\": \"" << detail::json_escape(event.note) << "\"";
    out << "}";
  }
  out << (ordered.empty() ? "" : "\n  ") << "]\n}\n";
  return out.str();
}

bool FlightRecorder::write_json(const std::string& path) const {
  return detail::write_file(path, to_json());
}

}  // namespace bm::obs
