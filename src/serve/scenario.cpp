#include "serve/scenario.hpp"

#include "common/config.hpp"

namespace bm::serve {

namespace {

std::optional<Scenario> scenario_from_root(const config::Root& root,
                                           std::string* error) {
  Scenario scenario;
  const config::Section s = root.section();
  s.read_string("name", &scenario.name);

  // Every section is optional: a serve run with no "serve" section gets the
  // built-in steady-Poisson defaults, a chaos run only needs "faults", and
  // so on.
  if (const config::Section serve = s.object("serve"))
    scenario.serve = detail::parse_serve_section(serve);
  detail::parse_sessions_section(s.object("sessions"),
                                 &scenario.serve.sessions);
  detail::parse_durability_section(s.object("durability"),
                                   &scenario.serve.network.durability);
  if (const config::Section slo = s.object("slo"))
    scenario.slo = obs::detail::parse_slo_section(slo);
  if (const config::Section faults = s.object("faults"))
    scenario.faults = net::detail::parse_faults_section(faults);
  if (const config::Section cluster = s.object("cluster"))
    scenario.cluster = cluster::detail::parse_cluster_section(cluster);
  if (const config::Section bmac = s.object("bmac"))
    scenario.bmac = workload::detail::parse_bmac_section(bmac);

  if (!root.finish()) {
    if (error != nullptr) *error = root.error();
    return std::nullopt;
  }
  if (!scenario.name.empty()) scenario.serve.name = scenario.name;
  return scenario;
}

}  // namespace

std::optional<Scenario> parse_scenario(std::string_view text,
                                       std::string* error) {
  return scenario_from_root(config::Root::parse(text, "scenario"), error);
}

std::optional<Scenario> load_scenario(const std::string& path,
                                      std::string* error) {
  return scenario_from_root(config::Root::load(path, "scenario"), error);
}

}  // namespace bm::serve
