#include "serve/scenario.hpp"

#include "common/config.hpp"

namespace bm::serve {

namespace {

std::optional<Scenario> scenario_from_root(const config::Root& root,
                                           std::string* error) {
  Scenario scenario;
  const config::Section s = root.section();
  s.read_string("name", &scenario.name);

  // Every section is an optional layer: a serve run with no "serve"
  // section gets the built-in steady-Poisson defaults, a chaos run only
  // needs "faults", and so on.
  const config::Section serve = s.member("serve");
  if (serve.present()) {
    if (!serve.is_object()) {
      serve.fail("expected an object");
    } else {
      auto options = detail::parse_serve_section(serve);
      if (options) scenario.serve = std::move(*options);
    }
  }

  // Top-level overrides: these re-run the same sub-parsers onto the options
  // already filled from the serve section, so present keys win and absent
  // keys keep the serve-section (or default) value.
  detail::parse_serve_sessions(s.object("sessions"),
                               &scenario.serve.sessions);
  detail::parse_serve_durability(s.object("durability"),
                                 &scenario.serve.network.durability);
  if (scenario.serve.sessions.enabled &&
      scenario.serve.admission.classes < scenario.serve.sessions.rate_classes)
    scenario.serve.admission.classes = scenario.serve.sessions.rate_classes;

  const config::Section slo = s.member("slo");
  if (slo.present()) {
    if (!slo.is_object())
      slo.fail("expected an object");
    else
      scenario.slo = obs::detail::parse_slo_section(slo);
  }

  const config::Section faults = s.member("faults");
  if (faults.present()) {
    if (!faults.is_object())
      faults.fail("expected an object");
    else
      scenario.faults = net::detail::parse_faults_section(faults);
  }

  const config::Section cluster = s.member("cluster");
  if (cluster.present()) {
    if (!cluster.is_object())
      cluster.fail("expected an object");
    else
      scenario.cluster = cluster::detail::parse_cluster_section(cluster);
  }

  const config::Section bmac = s.member("bmac");
  if (bmac.present()) {
    if (!bmac.is_object())
      bmac.fail("expected an object");
    else
      scenario.bmac = workload::detail::parse_bmac_section(bmac);
  }

  if (!root.finish()) {
    if (error != nullptr) *error = root.error();
    return std::nullopt;
  }
  // A scenario-level name labels the whole experiment; default to the serve
  // section's name so reports stay labelled either way.
  if (scenario.name.empty())
    scenario.name = scenario.serve.name;
  else
    scenario.serve.name = scenario.name;
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
