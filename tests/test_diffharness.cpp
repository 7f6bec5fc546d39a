// Differential-testing harness for the CTMC solve path (DESIGN.md §11).
//
// Four claims, each across hundreds of seeded random chains or pinned
// configurations:
//   1. The GTH elimination kernel agrees with a dense partial-pivot LU
//      oracle built here in test code to relative error <= 1e-9 on every
//      well-conditioned chain, its throwing and try_ entry points are
//      BIT-IDENTICAL, and the no-internal-RAID chain matches the
//      appendix's block recursion R^(k) (diffharness/appendix_oracle.*)
//      entry by entry: absorption rates and off-diagonals exactly,
//      diagonals to 2 ULP.
//   2. The MTTDL bits of the paper's models are pinned: hexfloat values
//      recorded before the dense/sparse solver twins were collapsed into
//      one kernel must still come out exactly.
//   3. The kernel's back substitution (occupancy, standard deviation,
//      absorption split) agrees with the dense LU oracle to the same
//      stated bound, and the out-edge uniformization is bit-identical
//      to the dense one (diffharness/dense_oracle.*).
//   4. Degenerate systems (trapped states) fail with a typed
//      singular_generator error instead of a garbage mean, identical
//      from the throwing and the try_ entry points.
// Plus the end-to-end form of claim 2: nsrel's stdout is byte-identical
// at --jobs 1 and 8.
#include <cstdint>
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "core/analyzer.hpp"
#include "ctmc/absorbing.hpp"
#include "ctmc/elimination.hpp"
#include "ctmc/transient.hpp"
#include "diffharness/appendix_oracle.hpp"
#include "diffharness/chain_generator.hpp"
#include "diffharness/dense_oracle.hpp"
#include "diffharness/diff_runner.hpp"
#include "diffharness/lu.hpp"
#include "models/no_internal_raid.hpp"
#include "obs/metrics.hpp"
#include "obs/probe_names.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nsrel {
namespace {

using diffharness::DiffStats;

/// The stated agreement bound between an LU solve and its dense oracle
/// (DESIGN.md §11): different pivoting and accumulation orders agree
/// only to rounding — observed worst cases are ~1e-12; 1e-9 leaves
/// margin without hiding a real divergence.
constexpr double kLuRelativeBound = 1e-9;

/// Chains whose absorption matrix has a dense-LU rcond estimate below
/// this are too ill-conditioned for the LU oracle to be trusted to the
/// bound (GTH itself stays exact there; the pins cover that regime).
/// Rates spanning six decades make about half the random chains this
/// ill-conditioned; the rest agree with the oracle to ~1e-11.
constexpr double kOracleMinRcond = 1e-8;

/// Solves one chain through the GTH kernel, asserts the throwing and
/// try_ entry points return the same bits, and, when the chain is
/// well-conditioned, asserts the mean absorption time agrees with the
/// dense-LU oracle m = R^{-1} 1. Returns whether the oracle comparison
/// ran.
bool expect_gth_matches(const ctmc::Chain& chain, ctmc::StateId initial,
                        DiffStats& stats, const std::string& what) {
  const Expected<double> via_chain =
      ctmc::EliminationSolver::try_mean_absorption_time_hours(chain, initial);
  EXPECT_TRUE(via_chain.has_value()) << what;
  if (!via_chain.has_value()) return false;
  EXPECT_TRUE(diffharness::bit_equal(
      via_chain.value(),
      ctmc::EliminationSolver::mean_absorption_time_hours(chain, initial)))
      << what;
  stats.note_chain();
  if (obs::Registry::enabled()) {
    auto& registry = obs::Registry::instance();
    registry.add(registry.counter(obs::probe::kDiffHarnessChains));
  }

  const linalg::LuDecomposition oracle(diffharness::absorption_matrix(chain));
  if (oracle.singular() || oracle.rcond_estimate() < kOracleMinRcond) {
    return false;
  }
  const std::vector<ctmc::StateId> transient = chain.transient_states();
  std::size_t row = 0;
  while (transient[row] != initial) ++row;
  const linalg::Vector ones(transient.size(), 1.0);
  const double expected = oracle.solve(ones)[row];
  EXPECT_LE(diffharness::rel_diff(via_chain.value(), expected),
            kLuRelativeBound)
      << what << ": gth=" << via_chain.value() << " lu=" << expected;
  stats.record(via_chain.value(), expected);
  return true;
}

/// Checks the model's chain() against the appendix oracle entry by
/// entry. Absorption rates and off-diagonal entries are the same
/// products of the same factors, so they match exactly; a diagonal sums
/// the same exit rates in a different association, so it matches to
/// 2 ULP. Records the diagonal distances in `stats`.
void expect_matches_appendix(const models::NoInternalRaidModel& model,
                             DiffStats& stats, const std::string& what) {
  const ctmc::Chain chain = model.chain();
  const diffharness::AppendixSystem oracle =
      diffharness::appendix_system(model);
  const linalg::Matrix from_chain = diffharness::absorption_matrix(chain);
  const linalg::Matrix from_recursion = oracle.r.to_dense();
  ASSERT_EQ(from_recursion.rows(), from_chain.rows()) << what;
  for (std::size_t i = 0; i < from_chain.rows(); ++i) {
    for (std::size_t j = 0; j < from_chain.cols(); ++j) {
      if (i == j) {
        ASSERT_LE(diffharness::ulp_distance(from_chain(i, j),
                                            from_recursion(i, j)),
                  2u)
            << what << ": diagonal " << i;
        stats.record(from_chain(i, j), from_recursion(i, j));
      } else {
        // == rather than bit_equal: an absent entry is +0.0 in the
        // expansion but -0.0 in the chain's negated generator.
        ASSERT_EQ(from_chain(i, j), from_recursion(i, j))
            << what << ": entry (" << i << ", " << j << ")";
      }
    }
  }
  const std::vector<double> rates = chain.rates_into(chain.find_state("A"));
  ASSERT_EQ(rates.size(), oracle.absorption_rates.size()) << what;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    ASSERT_TRUE(diffharness::bit_equal(rates[i], oracle.absorption_rates[i]))
        << what << ": absorption rate " << i << " chain=" << rates[i]
        << " oracle=" << oracle.absorption_rates[i];
  }
  stats.note_chain();
}

// --- claim 1: one kernel and one NIR construction, each with an oracle --

TEST(DiffHarness, GthBitIdenticalAcrossThreeHundredChains) {
  DiffStats stats;
  std::size_t oracle_checked = 0;

  // Birth-death chains (the internal-RAID shape), 2..41 degraded states.
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    Xoshiro256 rng(stream_seed(0xD1FF, seed));
    const std::size_t transient = 2 + rng.below(40);
    const ctmc::Chain chain = diffharness::birth_death(rng, transient);
    oracle_checked += expect_gth_matches(
        chain, 0, stats, "birth_death seed " + std::to_string(seed));
  }

  // Arbitrary absorbing chains with random extra edges.
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    Xoshiro256 rng(stream_seed(0xD2FF, seed));
    const std::size_t transient = 2 + rng.below(30);
    const std::size_t absorbing = 1 + rng.below(3);
    const ctmc::Chain chain =
        diffharness::random_absorbing(rng, transient, absorbing, 0.15);
    oracle_checked += expect_gth_matches(
        chain, 0, stats, "random_absorbing seed " + std::to_string(seed));
  }

  // The no-internal-RAID binary-tree chains, k = 1..6: chain() against
  // the appendix's block recursion, entry by entry.
  DiffStats recursion;
  for (int k = 1; k <= 6; ++k) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      Xoshiro256 rng(stream_seed(0xD3FF + static_cast<std::uint64_t>(k), seed));
      const models::NoInternalRaidModel model(
          diffharness::random_recursive_params(rng, k));
      expect_matches_appendix(model, recursion,
                              "recursive k=" + std::to_string(k) +
                                  " seed=" + std::to_string(seed));
    }
  }

  EXPECT_GE(stats.chains + recursion.chains, 300u);
  EXPECT_GE(oracle_checked, 140u);
  RecordProperty("chains", static_cast<int>(stats.chains + recursion.chains));
  RecordProperty("oracle_checked", static_cast<int>(oracle_checked));
  RecordProperty("oracle_max_rel", std::to_string(stats.max_rel));
  RecordProperty("recursion_max_ulp",
                 std::to_string(recursion.max_ulp));
}

TEST(DiffHarness, GthBitIdenticalOnLabeledRecursiveChains) {
  // The labelled chain() path (distinct assembly code from the random
  // families) through the same kernel and the same oracle.
  DiffStats stats;
  for (int k = 1; k <= 6; ++k) {
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      Xoshiro256 rng(stream_seed(0xD4FF + static_cast<std::uint64_t>(k), seed));
      const models::NoInternalRaidModel model(
          diffharness::random_recursive_params(rng, k));
      (void)expect_gth_matches(
          model.chain(), models::NoInternalRaidModel::root_state(), stats,
          "labeled recursive k=" + std::to_string(k) + " seed " +
              std::to_string(seed));
    }
  }
  EXPECT_EQ(stats.chains, 30u);
}

TEST(DiffHarness, RecursiveSparseAssemblyMatchesDenseEntryForEntry) {
  // chain() against the appendix oracle's CSR matrix, expanded with
  // to_dense(), on random parameters and on the paper baseline.
  DiffStats stats;
  for (int k = 1; k <= 6; ++k) {
    Xoshiro256 rng(stream_seed(0xD5FF, static_cast<std::uint64_t>(k)));
    expect_matches_appendix(
        models::NoInternalRaidModel(
            diffharness::random_recursive_params(rng, k)),
        stats, "random k=" + std::to_string(k));
  }
  for (int k = 1; k <= 4; ++k) {
    models::NoInternalRaidParams p;
    p.node_set_size = 64;
    p.redundancy_set_size = 8;
    p.fault_tolerance = k;
    p.drives_per_node = 12;
    p.node_failure = PerHour(1.0 / 400'000.0);
    p.drive_failure = PerHour(1.0 / 300'000.0);
    p.node_rebuild = PerHour(0.19);
    p.drive_rebuild = PerHour(12.0 * 0.19);
    p.capacity = gigabytes(300.0);
    p.her_per_byte = 8e-14;
    expect_matches_appendix(models::NoInternalRaidModel(p), stats,
                            "baseline k=" + std::to_string(k));
  }
  EXPECT_EQ(stats.chains, 10u);
}

// --- claim 2: MTTDL bits pinned across the solve-path collapse --------

/// The bench/perf_solvers recursion parameters: the paper baseline with
/// a 32-node redundancy set, so k can reach the k = 16 cap.
models::NoInternalRaidParams crossover_params(int k) {
  models::NoInternalRaidParams p;
  p.node_set_size = 64;
  p.redundancy_set_size = 32;
  p.fault_tolerance = k;
  p.drives_per_node = 12;
  p.node_failure = PerHour(1.0 / 400'000.0);
  p.drive_failure = PerHour(1.0 / 300'000.0);
  p.node_rebuild = PerHour(0.19);
  p.drive_rebuild = PerHour(2.28);
  p.capacity = gigabytes(300.0);
  p.her_per_byte = 8e-14;
  return p;
}

// mttdl_exact() hours for k = 1..16.
constexpr double kNirPinnedMttdl[] = {
    0x1.4c6e811ffe3e2p+9,   0x1.0f3dd5b0c6c94p+20, 0x1.ead6b492a413cp+30,
    0x1.cab44c4e6b7ebp+41,  0x1.6d8d4634d482dp+52, 0x1.78be112933d14p+62,
    0x1.05b8c170b65ecp+72,  0x1.39ba80aaff96bp+81, 0x1.6f09904aaf6ddp+90,
    0x1.b15c3e456f4b2p+99,  0x1.042c531cab054p+109, 0x1.3e49498bef5e7p+118,
    0x1.8cfc90a727d3cp+127, 0x1.f90af6063cbf1p+136, 0x1.47cf9a95a10c4p+146,
    0x1.b269dedff9947p+155};

TEST(DiffHarness, NirMttdlBitsArePinned) {
  for (int k = 1; k <= 16; ++k) {
    const models::NoInternalRaidModel model(crossover_params(k));
    EXPECT_TRUE(diffharness::bit_equal(model.mttdl_exact().value(),
                                       kNirPinnedMttdl[k - 1]))
        << "exact k=" << k;
  }
}

// mttdl_exact() hours under concurrent repair, recorded before the walk
// fed the kernel's rows directly. Fill-in makes this chain's solve grow
// about 8x per k (k = 12 takes ~30 s), so the table stops at k = 10.
constexpr double kNirConcurrentPinnedMttdl[] = {
    0x1.4c6e811ffe3e2p+9,  0x1.103c0609c8be3p+20, 0x1.f589641336b93p+31,
    0x1.7ceae21a5700bp+44, 0x1.90b6722df0558p+57, 0x1.d4a08fedc5ba5p+70,
    0x1.cae41386c9655p+83, 0x1.5cf149ce3713dp+96, 0x1.edd5a8da1c7cap+108,
    0x1.72fc3300f418cp+121};

TEST(DiffHarness, NirConcurrentMttdlBitsArePinned) {
  for (int k = 1; k <= 10; ++k) {
    models::NoInternalRaidParams p = crossover_params(k);
    p.repair_policy = models::RepairPolicy::kConcurrent;
    EXPECT_TRUE(diffharness::bit_equal(
        models::NoInternalRaidModel(p).mttdl_exact().value(),
        kNirConcurrentPinnedMttdl[k - 1]))
        << "concurrent k=" << k;
  }
}

/// True when the two systems hold the same rows, c and ab, bit for bit.
::testing::AssertionResult same_jump_system(
    const ctmc::JumpSystem<double>& a, const ctmc::JumpSystem<double>& b) {
  if (a.rows.size() != b.rows.size() || a.c.size() != b.c.size() ||
      a.ab.size() != b.ab.size()) {
    return ::testing::AssertionFailure() << "sizes differ";
  }
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    if (!diffharness::bit_equal(a.c[i], b.c[i]) ||
        !diffharness::bit_equal(a.ab[i], b.ab[i])) {
      return ::testing::AssertionFailure() << "c or ab of row " << i;
    }
    const auto x = a.rows[i];
    const auto y = b.rows[i];
    if (x.size() != y.size()) {
      return ::testing::AssertionFailure() << "length of row " << i;
    }
    for (std::size_t j = 0; j < x.size(); ++j) {
      if (x[j].col != y[j].col ||
          !diffharness::bit_equal(x[j].value, y[j].value)) {
        return ::testing::AssertionFailure() << "entry " << j << " of row "
                                             << i;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(DiffHarness, NirChainIsValidByConstructionAndRowsMatchIt) {
  // The one proof that the walk's output needs no per-solve validate():
  // chain() passes it at every k and policy, and the rows the walk feeds
  // mttdl_exact() give the kernel the same system, bit for bit, as the
  // Chain path's assembly of chain().
  for (const models::RepairPolicy policy :
       {models::RepairPolicy::kSingle, models::RepairPolicy::kConcurrent}) {
    for (int k = 1; k <= 16; ++k) {
      models::NoInternalRaidParams p = crossover_params(k);
      p.repair_policy = policy;
      const models::NoInternalRaidModel model(p);
      const ctmc::Chain chain = model.chain();
      const std::string where =
          std::string(policy == models::RepairPolicy::kSingle ? "single"
                                                              : "concurrent") +
          " k=" + std::to_string(k);
      EXPECT_EQ(chain.validate(), "") << where;
      EXPECT_TRUE(same_jump_system(ctmc::jump_system(model.kernel_rows()),
                                   ctmc::jump_system(ctmc::kernel_rows(chain))))
          << where;
    }
  }
  // A certain hard error (h saturated to exactly 1) drops the failure
  // edges into the critical states; both sinks see the same walk.
  for (int k = 1; k <= 3; ++k) {
    models::NoInternalRaidParams p = crossover_params(k);
    p.capacity = gigabytes(1e9);
    p.her_per_byte = 8e-10;
    const models::NoInternalRaidModel model(p);
    const ctmc::Chain chain = model.chain();
    EXPECT_EQ(chain.validate(), "") << "saturated k=" << k;
    EXPECT_TRUE(same_jump_system(ctmc::jump_system(model.kernel_rows()),
                                 ctmc::jump_system(ctmc::kernel_rows(chain))))
        << "saturated k=" << k;
    const double mttdl = model.mttdl_exact().value();
    EXPECT_TRUE(std::isfinite(mttdl) && mttdl > 0.0) << "saturated k=" << k;
  }
}

TEST(DiffHarness, InternalRaidMttdlBitsArePinned) {
  // Paper-baseline analyze() of the internal-RAID configurations.
  struct Pin {
    core::InternalScheme scheme;
    int ft;
    double mttdl_hours;
  };
  constexpr Pin kPins[] = {
      {core::InternalScheme::kRaid5, 1, 0x1.2d904398f8d0cp+20},
      {core::InternalScheme::kRaid5, 2, 0x1.60c8b0a0b8981p+32},
      {core::InternalScheme::kRaid5, 3, 0x1.d0977c51d56bp+43},
      {core::InternalScheme::kRaid6, 1, 0x1.90cf2178841bep+22},
      {core::InternalScheme::kRaid6, 2, 0x1.132bd1fae8fc9p+33},
      {core::InternalScheme::kRaid6, 3, 0x1.09a4732c041b8p+44},
  };
  const core::Analyzer analyzer(core::SystemConfig::baseline());
  for (const Pin& pin : kPins) {
    const core::Configuration configuration{pin.scheme, pin.ft};
    EXPECT_TRUE(diffharness::bit_equal(
        analyzer.analyze(configuration).mttdl.value(), pin.mttdl_hours))
        << core::name(configuration);
  }
}

// --- claim 3: back substitution and uniformization against the oracle -

TEST(DiffHarness, AbsorbingLuBackendsAgreeToStatedBound) {
  DiffStats stats;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Xoshiro256 rng(stream_seed(0xAB50, seed));
    const std::size_t transient = 2 + rng.below(25);
    const std::size_t absorbing = 1 + rng.below(3);
    const ctmc::Chain chain =
        diffharness::random_absorbing(rng, transient, absorbing, 0.2);
    const linalg::LuDecomposition oracle(
        diffharness::absorption_matrix(chain));
    const auto gth = ctmc::AbsorbingSolver::try_analyze(chain, 0);
    ASSERT_EQ(!oracle.singular(), gth.has_value()) << "seed " << seed;
    if (!gth.has_value()) continue;
    const auto& s = gth.value();
    EXPECT_TRUE(diffharness::bit_equal(
        s.mean_time_to_absorption_hours,
        ctmc::AbsorbingSolver::mttdl_hours(chain, 0)))
        << "seed " << seed;

    // tau = R^-T pi0 and m = R^-1 1 on the dense factorization.
    linalg::Vector pi0(transient, 0.0);
    pi0[0] = 1.0;
    const linalg::Vector tau = oracle.solve_transposed(pi0);
    const linalg::Vector m = oracle.solve(linalg::Vector(transient, 1.0));
    double mean = 0.0;
    double second_moment = 0.0;
    for (std::size_t i = 0; i < transient; ++i) {
      mean += tau[i];
      second_moment += 2.0 * tau[i] * m[i];
    }
    const double stddev = std::sqrt(second_moment - mean * mean);

    EXPECT_LE(diffharness::rel_diff(mean, s.mean_time_to_absorption_hours),
              kLuRelativeBound)
        << "seed " << seed;
    EXPECT_LE(
        diffharness::rel_diff(stddev, s.stddev_time_to_absorption_hours),
        kLuRelativeBound)
        << "seed " << seed;
    for (std::size_t i = 0; i < transient; ++i) {
      EXPECT_LE(diffharness::rel_diff(tau[i], s.occupancy_hours[i]),
                kLuRelativeBound)
          << "seed " << seed << " occupancy " << i;
    }
    const auto sinks = chain.absorbing_states();
    for (std::size_t a = 0; a < sinks.size(); ++a) {
      const std::vector<double> rates = chain.rates_into(sinks[a]);
      double p = 0.0;
      for (std::size_t i = 0; i < transient; ++i) p += tau[i] * rates[i];
      EXPECT_LE(diffharness::rel_diff(p, s.absorption_probability[a]),
                kLuRelativeBound)
          << "seed " << seed << " absorption " << a;
    }
    stats.record(mean, s.mean_time_to_absorption_hours);
    stats.record(tau, s.occupancy_hours);
    stats.note_chain();
  }
  EXPECT_GE(stats.chains, 50u);
  RecordProperty("max_rel", std::to_string(stats.max_rel));
}

TEST(DiffHarness, TransientMatchesDenseUniformizationBitwise) {
  // The out-edge mat-vec adds the same products in the same order as
  // the dense kernel, minus its exact zeros: every probability must come
  // out with the same bits, on absorbing and irreducible chains alike.
  std::size_t compared = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Xoshiro256 rng(stream_seed(0x7A45, seed));
    const ctmc::Chain chain =
        seed % 2 == 0
            ? diffharness::random_absorbing(rng, 2 + rng.below(20),
                                            1 + rng.below(3), 0.2)
            : diffharness::random_irreducible(rng, 2 + rng.below(20), 0.2);
    const ctmc::TransientSolver solver(chain);
    for (const double t : {0.0, 1e-3, 0.5, 3.0}) {
      const std::vector<double> sparse = solver.distribution_at(t, 0);
      const linalg::Vector dense =
          diffharness::uniformized_distribution(chain, t, 0);
      ASSERT_EQ(sparse.size(), dense.size());
      for (std::size_t i = 0; i < dense.size(); ++i) {
        EXPECT_TRUE(diffharness::bit_equal(sparse[i], dense[i]))
            << "seed " << seed << " t=" << t << " state " << i << ": "
            << sparse[i] << " vs " << dense[i];
      }
      ++compared;
    }
  }
  EXPECT_EQ(compared, 160u);
}

// --- claim 4: degenerate systems fail with a typed error --------------

/// Solves the trapped chain from its state 0 through both entry points
/// of the GTH kernel — the throwing one and the try_ one — and asserts
/// each fails with the same typed singular_generator error, whose detail
/// starts with `detail`.
void expect_trapped_fails_identically(const ctmc::Chain& chain,
                                      const std::string& detail) {
  ASSERT_TRUE(chain.validate().empty());
  Error thrown{};
  try {
    (void)ctmc::EliminationSolver::mean_absorption_time_hours(chain, 0);
    ADD_FAILURE() << "elimination accepted a trapped chain";
    return;
  } catch (const ErrorException& e) {
    thrown = e.error();
  }
  const auto result =
      ctmc::EliminationSolver::try_mean_absorption_time_hours(chain, 0);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(thrown.code, ErrorCode::kSingularGenerator);
  EXPECT_EQ(thrown.layer, "ctmc.elimination");
  EXPECT_EQ(thrown.detail.rfind(detail, 0), 0u) << thrown.detail;
  EXPECT_EQ(result.error().code, thrown.code);
  EXPECT_EQ(result.error().detail, thrown.detail);
  EXPECT_EQ(result.error().layer, thrown.layer);
}

TEST(DiffHarness, TrappedStatesFailIdenticallyOnBothBackends) {
  // s1 <-> s2 is a trap whose only way out underflows: elimination
  // reaches an exactly-zero pivot at s1.
  expect_trapped_fails_identically(
      diffharness::underflowing_trap(/*traps_initial=*/false),
      "elimination pivot vanished");
}

TEST(DiffHarness, TrappedInitialStateFailsIdenticallyOnBothBackends) {
  // The trap contains the initial state itself: the failure surfaces at
  // the final step as a vanished initial absorption probability.
  expect_trapped_fails_identically(
      diffharness::underflowing_trap(/*traps_initial=*/true),
      "initial state's absorption probability vanished");
}

// --- end-to-end: CLI output is byte-identical across --jobs -----------

struct CliResult {
  int exit_code = 0;
  std::string out;
  std::string err;
};

CliResult run_cli(std::initializer_list<const char*> tokens) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = cli::dispatch(
      cli::Args(std::vector<std::string>(tokens.begin(), tokens.end())), out,
      err);
  return {code, out.str(), err.str()};
}

TEST(DiffHarness, CliSweepByteIdenticalAcrossJobs) {
  const auto reference =
      run_cli({"sweep", "--param", "drive-mttf", "--from", "1e5", "--to",
               "7.5e5", "--steps", "4", "--jobs", "1"});
  ASSERT_EQ(reference.exit_code, 0) << reference.err;
  const auto parallel =
      run_cli({"sweep", "--param", "drive-mttf", "--from", "1e5", "--to",
               "7.5e5", "--steps", "4", "--jobs", "8"});
  ASSERT_EQ(parallel.exit_code, 0) << parallel.err;
  EXPECT_EQ(parallel.out, reference.out);
}

TEST(DiffHarness, CliRejectsUnknownSolver) {
  // There is one solve path, so --solver is no flag at all: it takes the
  // ordinary unknown-flag route before anything is evaluated.
  const auto result = run_cli({"analyze", "--solver", "cholesky"});
  EXPECT_EQ(result.exit_code, cli::kExitUsage);
  EXPECT_EQ(result.err, "unknown flag(s): --solver\n");
  EXPECT_TRUE(result.out.empty());
}

}  // namespace
}  // namespace nsrel
