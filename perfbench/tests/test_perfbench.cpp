// Tests of the benchmark's own machinery: the percentile rule, the calm
// window selection, metric-name validity, seed determinism of the
// service-phase schedule, the LBMHD conservation check, span self time, and
// the traced halo counts against part::plan_halo and the QCD workload model.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "host.hpp"
#include "jobs.hpp"
#include "layers.hpp"
#include "part/halo.hpp"
#include "qcd/simulation.hpp"
#include "qcd/workload.hpp"
#include "simrt/runtime.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  // p99 of n samples sits at rank ceil(0.99 n): 1000 samples leave 10 beyond.
  EXPECT_FALSE(supported_percentile(ramp(999), 99.0).has_value());
  const auto p99 = supported_percentile(ramp(1000), 99.0);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->beyond, 10u);
  EXPECT_EQ(p99->value, 990.0);
}

TEST(Percentile, HighestTailFollowsTheLadder) {
  EXPECT_EQ(highest_tail_percentile(ramp(10000))->percentile, 99.9);
  EXPECT_EQ(highest_tail_percentile(ramp(1000))->percentile, 99.0);
  EXPECT_EQ(highest_tail_percentile(ramp(200))->percentile, 95.0);
  EXPECT_EQ(highest_tail_percentile(ramp(100))->percentile, 90.0);
  EXPECT_EQ(highest_tail_percentile(ramp(40))->percentile, 75.0);
  EXPECT_EQ(highest_tail_percentile(ramp(20))->percentile, 50.0);
  EXPECT_FALSE(highest_tail_percentile(ramp(19)).has_value());
  EXPECT_FALSE(highest_tail_percentile({}).has_value());
}

TEST(Percentile, MedianOfEvenAndOddSets) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(CalmSamples, KeepsCalmWindowsOrTheCalmestQuarter) {
  const std::vector<double> series = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  // Two of four windows calm: both are kept, the busy ones dropped.
  EXPECT_EQ(sorted(calm_samples(series, {{0.10, 0, 2}, {0.0, 2, 2}, {0.03, 4, 2}, {0.2, 6, 2}})),
            (std::vector<double>{3, 4, 5, 6}));
  // None calm: the calmest quarter (one window of four).
  EXPECT_EQ(calm_samples(series, {{0.10, 0, 2}, {0.05, 2, 2}, {0.08, 4, 2}, {0.2, 6, 2}}),
            (std::vector<double>{3, 4}));
  // Five windows, none calm: a quarter rounds up to two.
  EXPECT_EQ(sorted(calm_samples(series, {{0.2, 0, 1}, {0.1, 1, 1}, {0.3, 2, 1}, {0.04, 3, 1},
                                         {0.5, 4, 1}})),
            (std::vector<double>{2, 4}));
  EXPECT_TRUE(calm_samples(series, {}).empty());
}

TEST(MetricNames, ValidityRule) {
  EXPECT_TRUE(valid_metric_name("job_ms_p99"));
  EXPECT_TRUE(valid_metric_name("kernel.qcd_dslash.flop_per_byte"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/name"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(MetricNames, EveryEmittedNameIsValidAndUnique) {
  std::vector<std::string> names = {"setup_s", "peak_rss_mb"};
  for (const char* app : kAppNames) names.push_back(std::string(app) + "_step_cpu_ms");
  for (const auto& spec : layer_metric_specs()) names.push_back(spec.name);
  std::set<std::string> seen;
  for (const auto& n : names) {
    EXPECT_TRUE(valid_metric_name(n)) << n;
    EXPECT_TRUE(seen.insert(n).second) << "duplicate " << n;
  }
}

TEST(Schedule, SameSeedSameJobs) {
  const auto a = make_schedule(7, 500, 250.0, kJobMix);
  const auto b = make_schedule(7, 500, 250.0, kJobMix);
  const auto c = make_schedule(8, 500, 250.0, kJobMix);
  ASSERT_EQ(a.size(), 500u);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_ms, b[i].due_ms);
    EXPECT_EQ(a[i].kind, b[i].kind);
    differs = differs || a[i].due_ms != c[i].due_ms || a[i].kind != c[i].kind;
    if (i > 0) {
      EXPECT_GT(a[i].due_ms, a[i - 1].due_ms);
    }
  }
  EXPECT_TRUE(differs);
  // Mean gap of a Poisson process at 250/s is 4 ms.
  EXPECT_NEAR(a.back().due_ms / 500.0, 4.0, 0.6);
}

// LBMHD conserves mass, momentum and flux to rounding: a leak of one unit
// out of a 512x512 lattice's mass, or a momentum drift of 1e-3, must fail.
TEST(Invariants, LbmhdConservationIsChecked) {
  const std::vector<double> at_check = {262144.0, 1e-11, -2e-11, 3e-12, 0.0, 0.5, 0.25};
  EXPECT_EQ(check_invariants(0, at_check, at_check), "");
  auto leaked = at_check;
  leaked[0] -= 1.0;
  EXPECT_NE(check_invariants(0, at_check, leaked), "");
  auto pushed = at_check;
  pushed[1] += 1e-3;
  EXPECT_NE(check_invariants(0, at_check, pushed), "");
  auto decayed = at_check;
  decayed[5] *= 0.9;
  EXPECT_EQ(check_invariants(0, at_check, decayed), "");
}

TEST(Spans, SelfTimeExcludesChildren) {
  SpanLog log;
  {
    ScopedSpan outer(&log, "outer", 1);
    { ScopedSpan inner(&log, "inner", 1); }
    { ScopedSpan inner(&log, "inner", 1); }
  }
  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.spans()[1].parent, 0);
  const auto totals = log.totals();
  const auto& outer = totals.at("outer");
  const auto& inner = totals.at("inner");
  EXPECT_EQ(inner.count, 2u);
  EXPECT_NEAR(outer.self_ms, outer.total_ms - inner.total_ms, 1e-9);
  ScopedSpan off(nullptr, "never recorded");
  EXPECT_EQ(log.spans().size(), 3u);
}

// The ladder's halo counts must be the plan's own: bytes and messages of
// rank 0 of a real QCD decomposition, summed, equal the QCD workload
// model's per-exchange bytes.
TEST(HaloCounts, TracedCountsMatchPlanAndQcdModel) {
  for (int ranks : {1, 2, 4}) {
    LadderResult ladder;
    vpar::simrt::run(ranks, [&](vpar::simrt::Communicator& comm) {
      AppSet set(comm, ProblemSize::Tiny);
      for (std::size_t a = 0; a < kNumApps; ++a) set.build(a);
      run_app_ladder(comm, set, nullptr, ladder);
    });

    vpar::qcd::ScalingConfig config;
    config.nx = 8;
    config.ny = 4;
    config.nz = 4;
    config.nt = 8;
    config.procs = ranks;
    double model = 0.0;
    for (double b : vpar::qcd::halo_bytes_per_exchange(config)) model += b;
    EXPECT_DOUBLE_EQ(ladder.values.at("part.halo_bytes.qcd") +
                         ladder.values.at("part.self_bytes.qcd"),
                     model)
        << "ranks=" << ranks;
    EXPECT_EQ(ladder.values.at("part.messages.qcd"), 8.0);
    if (ranks == 1) {
      EXPECT_EQ(ladder.values.at("part.halo_bytes.qcd"), 0.0);
    }

    // LBMHD: 27 planes, ghost width 2, a (32/px) x (32/py) tile.
    vpar::part::BlockPartition<2> partition(
        vpar::part::Extent<2>{{32, 32}},
        {ranks == 4 ? 2 : ranks, ranks == 4 ? 2 : 1}, {true, true});
    const auto plan = vpar::part::plan_halo(partition, 0, {{{2, 2}}, 0});
    EXPECT_DOUBLE_EQ(ladder.values.at("part.halo_bytes.lbmhd") +
                         ladder.values.at("part.self_bytes.lbmhd"),
                     27.0 * sizeof(double) * plan.send_elements_per_plane())
        << "ranks=" << ranks;
  }
}

}  // namespace
}  // namespace perfbench
