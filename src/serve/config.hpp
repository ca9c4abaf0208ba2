// The "serve" section of a composed scenario (serve/scenario.hpp;
// configs/serve_*.json and configs/scenario_*.json).
//
// Every key is optional and falls back to the ServeOptions default, an
// unknown key fails with its path (common/config.hpp), and one seed derives
// the decorrelated per-component seeds (harness rng vs arrival process) so
// a scenario file plus one integer fully determines the run.
#pragma once

#include <optional>

#include "serve/pipeline.hpp"

namespace bm::config {
class Section;
}

namespace bm::serve {

namespace detail {
/// Section-level parsers of the composed --scenario loader
/// (serve/scenario.cpp): the "serve" section, and the sessions/durability
/// sub-parsers its top-level override sections reuse.
std::optional<ServeOptions> parse_serve_section(const config::Section& root);
void parse_serve_durability(const config::Section& node,
                            fabric::DurabilityConfig* config);
void parse_serve_sessions(const config::Section& node, SessionConfig* config);
}  // namespace detail

}  // namespace bm::serve
