#include "cluster/config.hpp"

#include "workload/deployment.hpp"

namespace bm::cluster::detail {

ClusterConfig parse_cluster_section(const bm::config::Section& root) {
  ClusterConfig config;
  root.read_int("orgs", &config.orgs, workload::detail::org_count());
  root.read_int("peers_per_org", &config.peers_per_org, config::at_least(1));
  root.read_int(
      "orderers", &config.orderers,
      config::Range{1, static_cast<double>(kMaxOrderersPerOrg * config.orgs)});

  root.read_size("block_size", &config.block_size, config::positive());
  root.read_u64("seed", &config.seed);
  root.read_time_ms("submit_interval_ms", &config.submit_interval,
                    config::positive());

  const config::Section raft = root.object("raft");
  raft.read_time_ms("election_timeout_min_ms",
                    &config.ordering.raft.election_timeout_min,
                    config::positive());
  raft.read_time_ms("election_timeout_max_ms",
                    &config.ordering.raft.election_timeout_max,
                    config::positive());
  raft.read_time_ms("heartbeat_ms", &config.ordering.raft.heartbeat_interval,
                    config::positive());
  double raft_loss = 0.0;
  raft.read_number("message_loss", &raft_loss, config::unit_interval());
  if (raft_loss > 0.0)
    config.ordering.faults =
        net::FaultConfig::uniform_loss(raft_loss, config.seed ^ 0x7AF71055ull);
  if (raft.present() &&
      config.ordering.raft.election_timeout_max <
          config.ordering.raft.election_timeout_min)
    raft.fail_key("election_timeout_max_ms",
                  "must be >= election_timeout_min_ms");

  const config::Section gossip = root.object("gossip");
  gossip.read_int("fanout", &config.gossip.fanout, config::at_least(1));
  gossip.read_number("gbps", &config.gossip.gbps, config::positive());
  gossip.read_time_ms("anti_entropy_ms", &config.gossip.anti_entropy_interval,
                      config::positive());
  double gossip_loss = 0.0;
  gossip.read_number("loss", &gossip_loss, config::unit_interval());
  if (gossip_loss > 0.0)
    config.gossip.faults =
        net::FaultConfig::uniform_loss(gossip_loss, config.seed ^ 0xC0551Full);

  root.read_u64("snapshot_interval", &config.snapshot_interval);
  root.read_u64("catch_up_threshold", &config.catch_up_threshold,
                config::at_least(1));
  root.read_number("transfer_gbps", &config.transfer_gbps, config::positive());
  root.read_time_ms("transfer_rtt_ms", &config.transfer_rtt,
                    config::non_negative());
  return config;
}

}  // namespace bm::cluster::detail
