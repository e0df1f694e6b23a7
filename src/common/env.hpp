// Hardened parsing for numeric environment knobs (CSDML_FLIGHT_EVENTS,
// CSDML_FUZZ_ITERS, ...).
//
// An operator fat-fingering `CSDML_FLIGHT_EVENTS=1O24` should get a loud
// one-line warning and the documented default, not a silently
// misconfigured ring. Every rejection path — non-numeric text, trailing
// garbage, zero, negative, or out-of-range values — logs one structured
// `log::kv` line naming the variable, the offending value and the
// fallback actually used.
#pragma once

#include <cstdint>
#include <limits>

namespace csdml {

/// Reads the unsigned-integer knob `name`. Unset or empty returns
/// `fallback` silently; anything present but unusable (not a number,
/// trailing garbage, zero when `min` > 0, or outside [min, max]) logs a
/// Warn line and returns `fallback`. Values are never clamped: a knob is
/// either valid as written or ignored as a whole.
std::uint64_t env_u64(const char* name, std::uint64_t fallback,
                      std::uint64_t min = 1,
                      std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

}  // namespace csdml
