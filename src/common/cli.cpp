#include "common/cli.hpp"

#include <cstdlib>

namespace bm::cli {

void ArgParser::add_string(std::string name, std::string* out,
                           std::string help) {
  specs_.push_back(Spec{std::move(name), std::move(help), true,
                        [out](const char* v) {
                          *out = v;
                          return true;
                        }});
}

void ArgParser::add_int(std::string name, int* out, std::string help) {
  specs_.push_back(Spec{std::move(name), std::move(help), true,
                        [out](const char* v) {
                          char* end = nullptr;
                          const long parsed = std::strtol(v, &end, 10);
                          if (end == v || *end != '\0') return false;
                          *out = static_cast<int>(parsed);
                          return true;
                        }});
}

void ArgParser::add_size(std::string name, std::size_t* out,
                         std::string help) {
  specs_.push_back(Spec{std::move(name), std::move(help), true,
                        [out](const char* v) {
                          char* end = nullptr;
                          const unsigned long long parsed =
                              std::strtoull(v, &end, 10);
                          if (end == v || *end != '\0') return false;
                          *out = static_cast<std::size_t>(parsed);
                          return true;
                        }});
}

void ArgParser::add_double(std::string name, double* out, std::string help) {
  specs_.push_back(Spec{std::move(name), std::move(help), true,
                        [out](const char* v) {
                          char* end = nullptr;
                          const double parsed = std::strtod(v, &end);
                          if (end == v || *end != '\0') return false;
                          *out = parsed;
                          return true;
                        }});
}

void ArgParser::add_flag(std::string name, bool* out, std::string help) {
  specs_.push_back(Spec{std::move(name), std::move(help), false,
                        [out](const char*) {
                          *out = true;
                          return true;
                        }});
}

bool ArgParser::parse(int argc, char** argv, int start) {
  error_.clear();
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    const Spec* match = nullptr;
    for (const Spec& spec : specs_)
      if (spec.name == arg) {
        match = &spec;
        break;
      }
    if (match == nullptr) {
      if (unknown_ == Unknown::kIgnore) continue;
      error_ = "unknown option: " + arg;
      return false;
    }
    const char* value = nullptr;
    if (match->takes_value) {
      if (i + 1 >= argc) {
        error_ = arg + " needs a value";
        return false;
      }
      value = argv[++i];
    }
    if (!match->apply(value)) {
      error_ = "bad value for " + arg + ": " + value;
      return false;
    }
  }
  return true;
}

std::string ArgParser::help_text() const {
  std::string out;
  for (const Spec& spec : specs_) {
    out += "  ";
    out += spec.name;
    if (spec.takes_value) out += " VALUE";
    out += "  ";
    out += spec.help;
    out += '\n';
  }
  return out;
}

void CommonFlags::register_with(ArgParser& parser) {
  parser.add_string("--trace-out", &trace_out,
                    "write a Chrome trace-event JSON of the run");
  parser.add_string("--metrics-out", &metrics_out,
                    "write a JSON metrics snapshot");
  parser.add_string("--metrics-text", &metrics_text,
                    "write the metrics snapshot in Prometheus text format");
  parser.add_double("--sample-interval", &sample_interval_ms,
                    "sample metrics every N ms of sim time");
  parser.add_string("--timeseries-out", &timeseries_out,
                    "write the sampled time series as columnar JSON");
  parser.add_string("--timeseries-csv", &timeseries_csv,
                    "write the sampled time series as CSV");
  parser.add_string("--slo-out", &slo_out,
                    "write the SLO alert log as JSON");
  parser.add_string("--flight-out", &flight_out,
                    "write the flight-recorder post-mortem dump");
}

}  // namespace bm::cli
