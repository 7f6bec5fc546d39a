// Fixture: names registered twice across the one registry (two
// counters, two events, and a counter colliding with a layer's derived
// histogram), one event constant renamed against the stability table,
// and one shipped event removed.
#pragma once
namespace nsrel::obs {
namespace probe {
inline constexpr const char* kHitsA = "cache.hits";
inline constexpr const char* kHitsB = "cache.hits";
inline constexpr const char* kSolveNs = "core.solve_ns";
}  // namespace probe
namespace event {
inline constexpr const char* kSolveStart = "solve.start";
inline constexpr const char* kSolveBegin = "solve.start";
inline constexpr const char* kCacheProbe = "cache.hit";
}  // namespace event
namespace layer {
inline constexpr Layer kSolve{0, "solve", "core"};
}  // namespace layer
}  // namespace nsrel::obs
