// perfbench: wall-clock benchmark of the library's public API.
//
//   perfbench --workload commit|replay|serve|failover --seed N --seconds S
//             --trace 0|1 --root DIR --out-dir DIR [--scale full|smoke]
//
// Prints the host's provenance, the workload's own metrics by name, a
// determinism digest over its simulated and chain outputs, and as the last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}. The
// untraced run's metrics are the end-to-end ones; the traced run's are the
// per-layer ones. Exit status 0 only when every oracle check passed.
// README.md in this directory lists every metric.
#include <cpuid.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "commit|replay|serve|failover --seed N --seconds S --trace 0|1 "
               "--root DIR --out-dir DIR [--scale full|smoke]\n",
               message);
  return 2;
}

bool parse_args(int argc, char** argv, RunConfig& config, std::string& error) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
        have_seconds = config.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") throw std::invalid_argument(value);
        config.trace = value == "1";
        have_trace = true;
      } else if (flag == "--scale") {
        if (value != "full" && value != "smoke") throw std::invalid_argument(value);
        config.scale = value == "smoke" ? Scale::kSmoke : Scale::kFull;
      } else if (flag == "--root") {
        config.root = value;
      } else if (flag == "--out-dir") {
        config.out_dir = value;
      } else {
        error = "unknown flag " + flag;
        return false;
      }
    } catch (const std::exception&) {
      error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      config.root.empty() || config.out_dir.empty()) {
    error = "--workload, --seed, --seconds (> 0), --trace, --root and "
            "--out-dir are required";
    return false;
  }
  return true;
}

/// The CPU's brand string, from cpuid.
std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned leaf = 0; leaf < 3; ++leaf)
    __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
  std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
  model = model.substr(0, model.find('\0'));
  const std::size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

/// The ISA extensions the crypto and hashing paths could use, from cpuid.
std::string isa_flags() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return "none";
  std::string isa;
  const std::pair<unsigned, const char*> flags[] = {
      {29, "sha_ni"}, {19, "adx"}, {8, "bmi2"}, {5, "avx2"}, {16, "avx512f"}};
  for (const auto& [bit, name] : flags) {
    if ((ebx >> bit & 1u) == 0) continue;
    if (!isa.empty()) isa += ',';
    isa += name;
  }
  return isa.empty() ? "none" : isa;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// The checkout's commit, read from .git without running git; "unknown"
/// when the checkout is not a git work tree.
std::string git_commit(const fs::path& root) {
  std::string head = read_file(root / ".git" / "HEAD");
  while (!head.empty() && std::isspace(static_cast<unsigned char>(head.back())))
    head.pop_back();
  if (head.rfind("ref: ", 0) != 0) return head.empty() ? "unknown" : head;
  const std::string ref = head.substr(5);
  std::string commit = read_file(root / ".git" / ref);
  if (commit.empty()) {
    std::istringstream packed(read_file(root / ".git" / "packed-refs"));
    std::string line;
    while (std::getline(packed, line))
      if (line.size() > 41 && line.compare(41, std::string::npos, ref) == 0)
        commit = line.substr(0, 40);
  }
  while (!commit.empty() &&
         std::isspace(static_cast<unsigned char>(commit.back())))
    commit.pop_back();
  return commit.empty() ? "unknown" : commit;
}

std::uint64_t src_lines(const fs::path& root) {
  std::uint64_t lines = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(root / "src", ec)) {
    const std::string ext = entry.path().extension().string();
    if (!entry.is_regular_file() || (ext != ".cpp" && ext != ".hpp")) continue;
    const std::string text = read_file(entry.path());
    lines += static_cast<std::uint64_t>(std::count(text.begin(), text.end(), '\n'));
  }
  return lines;
}

void print_provenance(const RunConfig& config) {
  std::printf("host: nproc %ld | cpu %s | isa %s\n", sysconf(_SC_NPROCESSORS_ONLN),
              cpu_model().c_str(), isa_flags().c_str());
  std::printf("build: %s (%s) %s | commit %s | src lines %llu\n",
              PERFBENCH_COMPILER, __VERSION__, PERFBENCH_BUILD_TYPE,
              git_commit(config.root).c_str(),
              static_cast<unsigned long long>(src_lines(config.root)));
  std::printf("run: workload %s | seed %llu | seconds %g | trace %d | scale %s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0,
              config.scale == Scale::kSmoke ? "smoke" : "full");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string error;
  if (!parse_args(argc, argv, config, error)) return usage(error.c_str());

  // Environment guard: numbers from a debug build, or from a backend whose
  // default thread count an environment variable has changed, are refused.
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to measure a non-optimised build\n");
  return 2;
#endif
  if (std::getenv("BM_VALIDATOR_THREADS") != nullptr) {
    std::fprintf(stderr,
                 "perfbench: BM_VALIDATOR_THREADS is set; it changes the "
                 "default backend's thread count. Unset it.\n");
    return 2;
  }

  print_provenance(config);
  SpanLog spans;
  spans.set_active(config.trace);
  Result result;
  try {
    if (config.workload == "commit") result = run_commit(config, spans);
    else if (config.workload == "replay") result = run_replay(config, spans);
    else if (config.workload == "serve") result = run_serve(config, spans);
    else if (config.workload == "failover") result = run_failover(config, spans);
    else return usage(("unknown workload " + config.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const double rss = peak_rss_mb();
  const double error_rate = static_cast<double>(result.failures.size()) /
                            static_cast<double>(std::max<std::uint64_t>(
                                result.attempted, 1));
  std::printf("%-28s %14.6f %-6s median of %d set-ups\n", "setup_s",
              result.setup_s, "s", result.setup_reps);
  std::printf("%-28s %14.3f %-6s\n", "peak_rss_mb", rss, "MB");
  std::printf("%-28s %14.6f %-6s %llu of %llu checks failed\n", "error_rate",
              error_rate, "1",
              static_cast<unsigned long long>(result.failures.size()),
              static_cast<unsigned long long>(result.attempted));
  std::printf("%-28s %14.3f %-6s chain txs per second of a rep, median\n",
              "tx_per_s", result.tx_per_s, "1/s");
  for (const Figure& figure : result.figures)
    std::printf("%-28s %14.3f %-6s %s\n", figure.name.c_str(), figure.value,
                figure.unit.c_str(), figure.note.c_str());
  const Samples& loop = ScaledTimer::loop_history();
  std::printf("host speed: calibration loop median %.4f ms over %zu runs "
              "(reference %.4f ms); the times above are scaled to it\n",
              loop.median() * 1e3, loop.size(),
              ScaledTimer::kReferenceLoopSeconds * 1e3);
  std::printf("digest %s %s\n", config.workload.c_str(),
              digest_hex(result.pins).c_str());

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (config.trace) {
    // Serve's crypto share is defined on the serve workload only.
    result.layers.emplace("serve.crypto_share", 0.0);
    for (const LayerMetric& metric : layer_metrics()) {
      const auto it = result.layers.find(metric.name);
      if (it == result.layers.end()) {
        std::fprintf(stderr, "perfbench: layer metric %s was not measured\n",
                     metric.name);
        return 1;
      }
      metrics.push_back({metric.name, {it->second, metric.unit}});
      std::printf("%-32s %14.4f %s\n", metric.name, it->second, metric.unit);
    }
    const fs::path trace_path = config.out_dir / "traces" /
                                (config.workload + "-seed" +
                                 std::to_string(config.seed) + ".json");
    result.check(spans.write(trace_path), "cannot write " + trace_path.string());
    std::printf("wall-clock trace: %s (%zu spans)\n", trace_path.c_str(),
                spans.size());
  } else {
    metrics = {{"setup_s", {result.setup_s, "s"}},
               {"peak_rss_mb", {rss, "MB"}},
               {"tx_per_s", {result.tx_per_s, "1/s"}}};
  }
  for (const auto& [name, value] : metrics)
    result.check(std::isfinite(value.first), "metric " + name + " is not finite");

  for (const std::string& failure : result.failures)
    std::printf("FAILED: %s\n", failure.c_str());
  const bool correct = result.failures.empty();
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failures.size()) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value] = metrics[i];
    json += (i ? ", \"" : "\"") + name + "\": {\"value\": " +
            json_number(std::isfinite(value.first) ? value.first : 0) +
            ", \"unit\": \"" + value.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
