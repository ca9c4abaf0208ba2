// The "serve", "sessions" and "durability" sections of a composed scenario
// (serve/scenario.hpp; configs/serve_*.json and configs/scenario_*.json).
//
// Every key is optional and falls back to the ServeOptions default, an
// unknown key fails with its path (common/config.hpp), and one seed derives
// the decorrelated per-component seeds (harness rng vs arrival process) so
// a scenario file plus one integer fully determines the run.
#pragma once

#include "serve/pipeline.hpp"

namespace bm::config {
class Section;
}

namespace bm::serve {

namespace detail {
/// Section-level parsers of the composed --scenario loader
/// (serve/scenario.cpp): "serve" builds the options, "sessions" fills
/// ServeOptions::sessions and "durability" ServeOptions::network.durability.
ServeOptions parse_serve_section(const config::Section& root);
void parse_sessions_section(const config::Section& node,
                            SessionConfig* config);
void parse_durability_section(const config::Section& node,
                              fabric::DurabilityConfig* config);
}  // namespace detail

}  // namespace bm::serve
