// Fixture: a span (layer) declared with literal names outside the
// registry.
struct Layer {
  int id;
  const char* name;
  const char* category;
};
inline constexpr Layer kMine{0, "mine", "test"};
