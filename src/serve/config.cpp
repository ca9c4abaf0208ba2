#include "serve/config.hpp"

#include "common/config.hpp"
#include "workload/deployment.hpp"

namespace bm::serve {

namespace {

void parse_traffic(const config::Section& node, TrafficConfig* config) {
  node.read_enum<ArrivalProcess>("process", &config->process,
                                 {{"poisson", ArrivalProcess::kPoisson},
                                  {"mmpp", ArrivalProcess::kMmpp}});
  node.read_number("rate_tps", &config->rate_tps, config::positive());
  node.read_number("burst_rate_tps", &config->burst_rate_tps,
                   config::positive());
  node.read_number("p_enter_burst", &config->p_enter_burst,
                   config::unit_interval());
  node.read_number("p_exit_burst", &config->p_exit_burst,
                   config::unit_interval());
}

void parse_admission(const config::Section& node, AdmissionConfig* config) {
  node.read_size("queue_capacity", &config->queue_capacity,
                 config::non_negative());
  node.read_number("token_rate_tps", &config->token_rate_tps,
                   config::non_negative());
  node.read_number("bucket_capacity", &config->bucket_capacity,
                   config::non_negative());
  node.read_int("classes", &config->classes, config::at_least(1));
  node.read_number("pressure_refill_factor", &config->pressure_refill_factor,
                   config::unit_interval());
}

void parse_endorse(const config::Section& node,
                   EndorsementService::Config* config) {
  node.read_int("workers", &config->workers, config::at_least(1));
  node.read_time_us("service_base_us", &config->service_base,
                    config::non_negative());
  node.read_time_us("per_endorsement_us", &config->per_endorsement,
                    config::non_negative());
  node.read_time_ms("deadline_ms", &config->deadline, config::non_negative());
}

void parse_ingress(const config::Section& node, IngressConfig* config) {
  node.read_size("max_batch", &config->max_batch, config::at_least(1));
  node.read_time_ms("batch_timeout_ms", &config->batch_timeout,
                    config::positive());
  node.read_size("high_watermark", &config->high_watermark,
                 config::non_negative());
  node.read_size("low_watermark", &config->low_watermark,
                 config::non_negative());
}

void parse_network(const config::Section& node,
                   workload::NetworkOptions* config) {
  node.read_enum<workload::ChaincodeKind>(
      "chaincode", &config->chaincode,
      {{"smallbank", workload::ChaincodeKind::kSmallbank},
       {"drm", workload::ChaincodeKind::kDrm}});
  node.read_int("orgs", &config->orgs, workload::detail::org_count());
  node.read_string("policy", &config->policy_text);
  workload::detail::check_policy(node, config->policy_text, config->orgs);
  node.read_number("zipf_s", &config->smallbank.zipf_s,
                   config::non_negative());
}

}  // namespace

namespace detail {

ServeOptions parse_serve_section(const config::Section& root) {
  ServeOptions options;

  // One top-level seed drives both deterministic streams; the arrival
  // process gets a fixed odd-constant mix so its schedule is independent of
  // the harness's fault/op draws (same decorrelation idiom as net/faults).
  std::uint64_t seed = options.network.seed;
  root.read_u64("seed", &seed, config::non_negative());
  options.network.seed = seed;
  options.traffic.seed = seed ^ 0x9E3779B97F4A7C15ull;

  root.read_time_ms("duration_ms", &options.duration, config::positive());
  root.read_time_ms("drain_limit_ms", &options.drain_limit,
                    config::non_negative());
  root.read_int("validate_vcpus", &options.validate_vcpus,
                config::at_least(1));
  root.read_number("high_priority_share", &options.high_priority_share,
                   config::unit_interval());

  parse_traffic(root.object("traffic"), &options.traffic);
  parse_admission(root.object("admission"), &options.admission);
  parse_endorse(root.object("endorse"), &options.endorse);
  parse_ingress(root.object("ingress"), &options.ingress);
  parse_network(root.object("network"), &options.network);
  return options;
}

void parse_sessions_section(const config::Section& node,
                            SessionConfig* config) {
  node.read_bool("enabled", &config->enabled);
  node.read_size("population", &config->population, config::positive());
  node.read_size("max_sessions", &config->max_sessions,
                 config::non_negative());
  node.read_time_ms("idle_timeout_ms", &config->idle_timeout,
                    config::positive());
  node.read_time_ms("grace_ms", &config->grace, config::non_negative());
  node.read_time_ms("wheel_granularity_ms", &config->wheel_granularity,
                    config::positive());
  node.read_int("rate_classes", &config->rate_classes, config::at_least(1));
  node.read_number("zipf_s", &config->zipf_s, config::non_negative());
  node.read_number("bad_cert_share", &config->bad_cert_share,
                   config::unit_interval());
  node.read_number("duplicate_rate", &config->duplicate_rate,
                   config::unit_interval());
  node.read_number("out_of_order_rate", &config->out_of_order_rate,
                   config::unit_interval());
  node.read_bool("preconnect", &config->preconnect);
  node.read_size("cert_pool", &config->cert_pool, config::positive());
  node.read_u64("seq_limit", &config->seq_limit, config::positive());
}

void parse_durability_section(const config::Section& node,
                              fabric::DurabilityConfig* config) {
  node.read_string("ledger_path", &config->ledger_path);
  node.read_u64("snapshot_interval", &config->snapshot_interval,
                config::non_negative());
  node.read_size("keep_snapshots", &config->keep_snapshots,
                 config::non_negative());
  node.read_bool("fsync_each_block", &config->fsync_each_block);
}

}  // namespace detail

}  // namespace bm::serve
