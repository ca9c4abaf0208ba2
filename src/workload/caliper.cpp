#include "workload/caliper.hpp"

#include <algorithm>
#include <sstream>

namespace bm::workload {

void CaliperReport::record(const BlockObservation& observation) {
  observations_.push_back(observation);
  total_txs_ += observation.tx_count;
  valid_txs_ += observation.valid_tx_count;
}

double CaliperReport::overall_tps() const {
  if (observations_.empty()) return 0;
  sim::Time first = observations_.front().received_at;
  sim::Time last = observations_.front().committed_at;
  for (const auto& o : observations_) {
    first = std::min(first, o.received_at);
    last = std::max(last, o.committed_at);
  }
  if (last <= first) return 0;
  return static_cast<double>(total_txs_) /
         (static_cast<double>(last - first) / sim::kSecond);
}

Summary CaliperReport::validation_latency_ms() const {
  std::vector<double> latencies;
  latencies.reserve(observations_.size());
  for (const auto& o : observations_)
    latencies.push_back(static_cast<double>(o.validated_at - o.received_at) /
                        sim::kMillisecond);
  return summarize(latencies);
}

std::vector<double> CaliperReport::windowed_tps(sim::Time window) const {
  if (observations_.empty() || window <= 0) return {};
  sim::Time first = observations_.front().received_at;
  sim::Time last = observations_.front().committed_at;
  for (const auto& o : observations_) {
    first = std::min(first, o.received_at);
    last = std::max(last, o.committed_at);
  }
  const auto buckets =
      static_cast<std::size_t>((last - first) / window) + 1;
  std::vector<double> tps(buckets, 0.0);
  for (const auto& o : observations_) {
    const auto bucket =
        static_cast<std::size_t>((o.committed_at - first) / window);
    tps[bucket] += o.tx_count;
  }
  const double seconds = static_cast<double>(window) / sim::kSecond;
  for (double& v : tps) v /= seconds;
  return tps;
}

std::string CaliperReport::render(sim::Time window) const {
  std::ostringstream out;
  const Summary latency = validation_latency_ms();
  out << "caliper report for '" << peer_ << "': " << observations_.size()
      << " blocks, " << total_txs_ << " txs (" << valid_txs_ << " valid)\n";
  char line[200];
  std::snprintf(line, sizeof(line),
                "  commit throughput: %.0f tps\n"
                "  block validation latency (ms): mean %.2f  p50 %.2f  "
                "p95 %.2f  p99 %.2f  p99.9 %.2f  max %.2f\n",
                overall_tps(), latency.mean, latency.p50, latency.p95,
                latency.p99, latency.p999, latency.max);
  out << line;
  out << "  windowed tps:";
  for (const double v : windowed_tps(window)) {
    std::snprintf(line, sizeof(line), " %.0f", v);
    out << line;
  }
  out << "\n";
  return out.str();
}

}  // namespace bm::workload
