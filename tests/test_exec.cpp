// Tests for src/exec: the unified real-thread execution backend -- bulk
// coverage, exception propagation, cost capture, and the cross-backend
// equivalence guarantee (every backend forms bit-identical equation
// systems under every strategy). This suite carries the `tsan` ctest label
// and is the one to run under -DPARMA_SANITIZE=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/session.hpp"
#include "exec/executor.hpp"
#include "mea/generator.hpp"
#include "mea/measurement.hpp"

namespace parma::exec {
namespace {

std::vector<Backend> concrete_backends() {
  return {Backend::kSerial, Backend::kPooled, Backend::kStealing};
}

TEST(Executor, BackendNamesAreStable) {
  EXPECT_STREQ(backend_name(Backend::kAuto), "auto");
  EXPECT_STREQ(backend_name(Backend::kSerial), "serial");
  EXPECT_STREQ(backend_name(Backend::kPooled), "pooled");
  EXPECT_STREQ(backend_name(Backend::kStealing), "stealing");
}

TEST(Executor, FactoryRejectsBadArguments) {
  EXPECT_THROW((void)make_executor(Backend::kAuto, 2), ContractError);
  EXPECT_THROW((void)make_executor(Backend::kPooled, 0), ContractError);
}

TEST(Executor, EveryBackendCoversTheRangeExactlyOnce) {
  for (const Backend backend : concrete_backends()) {
    for (const Index chunk : {Index{1}, Index{3}, Index{64}}) {
      const auto executor = make_executor(backend, 4);
      constexpr Index kSpan = 101;
      std::vector<std::atomic<int>> touched(kSpan);
      for (auto& t : touched) t.store(0);
      const BulkResult r = executor->submit_bulk(0, kSpan, chunk, [&](Index lo, Index hi) {
        ASSERT_LE(hi - lo, chunk);
        for (Index i = lo; i < hi; ++i) touched[static_cast<std::size_t>(i)].fetch_add(1);
      });
      for (Index i = 0; i < kSpan; ++i) {
        EXPECT_EQ(touched[static_cast<std::size_t>(i)].load(), 1)
            << backend_name(backend) << " chunk " << chunk << " index " << i;
      }
      EXPECT_GE(r.elapsed_seconds, 0.0);
      EXPECT_TRUE(r.task_costs.empty());  // capture off by default
    }
  }
}

TEST(Executor, EmptyRangeIsANoOp) {
  for (const Backend backend : concrete_backends()) {
    const auto executor = make_executor(backend, 2);
    bool called = false;
    const BulkResult r =
        executor->submit_bulk(5, 5, 1, [&](Index, Index) { called = true; });
    EXPECT_FALSE(called);
    EXPECT_TRUE(r.task_costs.empty());
  }
}

TEST(Executor, RejectsMalformedBulk) {
  const auto executor = make_executor(Backend::kSerial, 1);
  EXPECT_THROW((void)executor->submit_bulk(3, 2, 1, [](Index, Index) {}), ContractError);
  EXPECT_THROW((void)executor->submit_bulk(0, 2, 0, [](Index, Index) {}), ContractError);
}

TEST(Executor, CapturedCostsPartitionTheRange) {
  for (const Backend backend : concrete_backends()) {
    const auto executor = make_executor(backend, 3);
    const BulkResult r = executor->submit_bulk(
        0, 50, 7,
        [](Index lo, Index hi) {
          volatile Real sink = 0.0;
          for (Index i = lo; i < hi; ++i) sink = sink + static_cast<Real>(i);
        },
        /*capture_costs=*/true);
    ASSERT_EQ(r.task_costs.size(), 8u) << backend_name(backend);
    Index expected_begin = 0;
    for (const TaskCost& cost : r.task_costs) {
      EXPECT_EQ(cost.begin, expected_begin);
      EXPECT_GT(cost.end, cost.begin);
      EXPECT_GE(cost.seconds, 0.0);
      expected_begin = cost.end;
    }
    EXPECT_EQ(expected_begin, 50);
    EXPECT_GE(r.cpu_seconds(), 0.0);
  }
}

TEST(Executor, ExceptionsPropagateFromEveryBackend) {
  for (const Backend backend : concrete_backends()) {
    const auto executor = make_executor(backend, 4);
    EXPECT_THROW((void)executor->submit_bulk(0, 40, 1,
                                             [](Index lo, Index) {
                                               if (lo == 17) throw std::runtime_error("boom");
                                             }),
                 std::runtime_error)
        << backend_name(backend);
    // The executor must stay usable after a failed bulk.
    std::atomic<Index> count{0};
    (void)executor->submit_bulk(0, 10, 2, [&](Index lo, Index hi) { count += hi - lo; });
    EXPECT_EQ(count.load(), 10);
  }
}

TEST(Executor, WorkerCountsAreReported) {
  EXPECT_EQ(make_executor(Backend::kSerial, 5)->workers(), 1);
  EXPECT_EQ(make_executor(Backend::kPooled, 3)->workers(), 3);
  EXPECT_EQ(make_executor(Backend::kStealing, 3)->workers(), 3);
}

// --- Cross-backend equivalence -------------------------------------------

core::Engine equivalence_engine(Index n) {
  Rng rng(4200 + static_cast<std::uint64_t>(n));
  const mea::DeviceSpec spec = mea::square_device(n);
  const auto truth = mea::generate_field(spec, mea::random_scenario(spec, 1, rng), rng);
  return core::Engine(mea::measure_exact(spec, truth));
}

bool terms_identical(const equations::CurrentTerm& a, const equations::CurrentTerm& b) {
  return a.resistor_unknown == b.resistor_unknown && a.constant == b.constant &&
         a.plus_unknown == b.plus_unknown && a.minus_unknown == b.minus_unknown &&
         a.sign == b.sign;
}

::testing::AssertionResult systems_bit_identical(const equations::EquationSystem& a,
                                                 const equations::EquationSystem& b) {
  if (a.equations.size() != b.equations.size()) {
    return ::testing::AssertionFailure()
           << "equation counts differ: " << a.equations.size() << " vs "
           << b.equations.size();
  }
  for (std::size_t e = 0; e < a.equations.size(); ++e) {
    const auto& ea = a.equations[e];
    const auto& eb = b.equations[e];
    if (ea.category != eb.category || ea.pair_i != eb.pair_i || ea.pair_j != eb.pair_j ||
        ea.rhs != eb.rhs || ea.terms.size() != eb.terms.size()) {
      return ::testing::AssertionFailure() << "equation " << e << " header differs";
    }
    for (std::size_t t = 0; t < ea.terms.size(); ++t) {
      if (!terms_identical(ea.terms[t], eb.terms[t])) {
        return ::testing::AssertionFailure()
               << "equation " << e << " term " << t << " differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// No padding: gtest names each case after the raw bytes of its parameter.
struct EquivalenceCase {
  Index n;
  core::Strategy strategy;
  std::int32_t unused = 0;  // fills the tail up to the 8-byte alignment
};
static_assert(std::has_unique_object_representations_v<EquivalenceCase>);

class CrossBackendEquivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(CrossBackendEquivalence, AllBackendsFormBitIdenticalSystems) {
  const EquivalenceCase c = GetParam();
  const core::Engine engine = equivalence_engine(c.n);

  core::StrategyOptions options;
  options.strategy = c.strategy;
  options.workers = 4;
  options.chunk = 3;
  options.timing_mode = core::TimingMode::kRealThreads;

  options.backend = Backend::kSerial;
  const core::FormationResult reference = engine.form_equations(options);
  ASSERT_EQ(static_cast<Index>(reference.system.equations.size()),
            engine.spec().num_equations());

  for (const Backend backend : {Backend::kPooled, Backend::kStealing}) {
    options.backend = backend;
    const core::FormationResult other = engine.form_equations(options);
    EXPECT_TRUE(systems_bit_identical(reference.system, other.system))
        << "n=" << c.n << " strategy=" << core::strategy_name(c.strategy)
        << " backend=" << backend_name(backend);
    EXPECT_EQ(reference.equation_bytes, other.equation_bytes);
    ASSERT_EQ(reference.tasks.size(), other.tasks.size());
    for (std::size_t t = 0; t < reference.tasks.size(); ++t) {
      EXPECT_EQ(reference.tasks[t].bytes, other.tasks[t].bytes);
      EXPECT_EQ(reference.tasks[t].category, other.tasks[t].category);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSizesAndStrategies, CrossBackendEquivalence,
    ::testing::Values(
        EquivalenceCase{4, core::Strategy::kSingleThread},
        EquivalenceCase{4, core::Strategy::kParallel},
        EquivalenceCase{4, core::Strategy::kBalancedParallel},
        EquivalenceCase{4, core::Strategy::kFineGrained},
        EquivalenceCase{8, core::Strategy::kSingleThread},
        EquivalenceCase{8, core::Strategy::kParallel},
        EquivalenceCase{8, core::Strategy::kBalancedParallel},
        EquivalenceCase{8, core::Strategy::kFineGrained},
        EquivalenceCase{16, core::Strategy::kSingleThread},
        EquivalenceCase{16, core::Strategy::kParallel},
        EquivalenceCase{16, core::Strategy::kBalancedParallel},
        EquivalenceCase{16, core::Strategy::kFineGrained}));

TEST(CrossBackend, StreamingModeCountsAgreeAcrossBackends) {
  // keep_system = false in real mode: metrics must match the materialized
  // run for every backend.
  const core::Engine engine = equivalence_engine(6);
  core::StrategyOptions options;
  options.strategy = core::Strategy::kFineGrained;
  options.workers = 4;
  options.timing_mode = core::TimingMode::kRealThreads;
  options.backend = Backend::kSerial;
  const core::FormationResult materialized = engine.form_equations(options);

  for (const Backend backend : concrete_backends()) {
    options.backend = backend;
    options.keep_system = false;
    const core::FormationResult streamed = engine.form_equations(options);
    EXPECT_TRUE(streamed.system.equations.empty());
    EXPECT_EQ(streamed.equation_bytes, materialized.equation_bytes);
    ASSERT_EQ(streamed.tasks.size(), materialized.tasks.size());
    for (std::size_t t = 0; t < materialized.tasks.size(); ++t) {
      EXPECT_EQ(streamed.tasks[t].bytes, materialized.tasks[t].bytes);
    }
  }
}

}  // namespace
}  // namespace parma::exec
