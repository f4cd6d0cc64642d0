// Tests for the experiment engine: driver registry, seed derivation,
// parallel trial execution (determinism under any --jobs), and sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness/driver.hpp"
#include "harness/scale.hpp"
#include "harness/sweep.hpp"
#include "harness/trial_runner.hpp"

namespace dapes::harness {
namespace {

ScenarioParams tiny_params() {
  ScenarioParams p;
  p.files = 2;
  p.file_size_bytes = 4 * 1024;
  p.mobile_downloaders = 6;
  p.stationary_downloaders = 2;
  p.pure_forwarders = 2;
  p.dapes_intermediates = 2;
  p.wifi_range_m = 80.0;
  p.data_rate_bps = 11e6;
  p.sim_limit_s = 600.0;
  p.seed = 3;
  return p;
}

void expect_equal(const TrialResult& a, const TrialResult& b) {
  EXPECT_DOUBLE_EQ(a.download_time_s, b.download_time_s);
  EXPECT_DOUBLE_EQ(a.completion_fraction, b.completion_fraction);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.tx_by_kind, b.tx_by_kind);
  EXPECT_EQ(a.collided_frames, b.collided_frames);
  EXPECT_EQ(a.peak_state_bytes, b.peak_state_bytes);
  EXPECT_EQ(a.total_state_bytes, b.total_state_bytes);
  EXPECT_EQ(a.peak_knowledge_bytes, b.peak_knowledge_bytes);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_DOUBLE_EQ(a.forward_accuracy, b.forward_accuracy);
  EXPECT_EQ(a.context_switches, b.context_switches);
  EXPECT_EQ(a.system_calls, b.system_calls);
  EXPECT_EQ(a.page_faults, b.page_faults);
}

TEST(DeriveSeed, DeterministicAndDistinct) {
  EXPECT_EQ(common::derive_seed(1, 0), common::derive_seed(1, 0));
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 100; ++i) seen.insert(common::derive_seed(42, i));
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_NE(common::derive_seed(1, 0), common::derive_seed(2, 0));
}

TEST(Registry, WellKnownDriversRegistered) {
  auto& reg = ProtocolDriverRegistry::instance();
  std::vector<std::string> built_in;
  for (const char* name :
       {ProtocolNames::kDapes, ProtocolNames::kBithoc, ProtocolNames::kEkta,
        ProtocolNames::kRealWorldCarrier, ProtocolNames::kRealWorldRepository,
        ProtocolNames::kRealWorldMoving, ProtocolNames::kScaleField,
        ProtocolNames::kScaleMedium}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
    EXPECT_EQ(reg.get(name).name(), name);
    built_in.push_back(name);
  }
  // Exactly these eight are built in; other tests register "test.*".
  std::vector<std::string> names = reg.names();
  std::erase_if(names, [](const std::string& n) {
    return n.starts_with("test.");
  });
  std::sort(built_in.begin(), built_in.end());
  EXPECT_EQ(names, built_in);
}

TEST(Registry, UnknownDriverFailsCleanly) {
  auto& reg = ProtocolDriverRegistry::instance();
  EXPECT_EQ(reg.find("no-such-protocol"), nullptr);
  EXPECT_THROW(reg.get("no-such-protocol"), std::out_of_range);
  EXPECT_THROW(run_trial("no-such-protocol", tiny_params()),
               std::out_of_range);
  try {
    reg.get("no-such-protocol");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    // The message names the missing driver and lists the registered ones.
    EXPECT_NE(std::string(e.what()).find("no-such-protocol"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("dapes"), std::string::npos);
  }
}

TEST(Registry, DuplicateRegistrationThrows) {
  auto& reg = ProtocolDriverRegistry::instance();
  EXPECT_THROW(
      reg.add(ProtocolNames::kDapes,
              [](const ScenarioParams& p) { return run_dapes_trial(p); }),
      std::invalid_argument);
}

TEST(Registry, LookupsStayValidAcrossRegistration) {
  auto& reg = ProtocolDriverRegistry::instance();
  const ProtocolDriver& dapes = reg.get(ProtocolNames::kDapes);
  const ProtocolDriver* scale = reg.find(ProtocolNames::kScaleField);
  for (int i = 0; i < 64; ++i) {
    reg.add("test.registry-growth-" + std::to_string(i),
            [](const ScenarioParams& p) { return run_dapes_trial(p); });
  }
  EXPECT_EQ(&dapes, &reg.get(ProtocolNames::kDapes));
  EXPECT_EQ(scale, reg.find(ProtocolNames::kScaleField));
  EXPECT_EQ(dapes.name(), ProtocolNames::kDapes);
  EXPECT_EQ(scale->name(), ProtocolNames::kScaleField);
}

TEST(RunTrial, NamedEntryPointMatchesDirectCall) {
  ScenarioParams p = tiny_params();
  TrialResult direct = run_dapes_trial(p);
  for (const char* name : {ProtocolNames::kDapes, ProtocolNames::kScaleField}) {
    SCOPED_TRACE(name);
    expect_equal(run_trial(name, p), direct);
  }
}

TEST(TrialRunner, ParallelResultsIdenticalToSerial) {
  // The acceptance bar for the engine: same seed + same params give
  // bit-identical TrialResult vectors at --jobs 1 and --jobs 8.
  const auto& driver =
      ProtocolDriverRegistry::instance().get(ProtocolNames::kDapes);
  auto serial = TrialRunner(1).run(driver, tiny_params(), 6);
  auto parallel = TrialRunner(8).run(driver, tiny_params(), 6);
  ASSERT_EQ(serial.size(), 6u);
  ASSERT_EQ(parallel.size(), 6u);
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    expect_equal(serial[i], parallel[i]);
  }
}

TEST(TrialRunner, TrialsUseDistinctDerivedSeeds) {
  auto results = TrialRunner(1).run(ProtocolNames::kDapes, tiny_params(), 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_NE(results[0].transmissions, results[1].transmissions);
}

TEST(TrialRunner, ZeroAndNegativeJobsMeanHardware) {
  EXPECT_GE(TrialRunner(0).jobs(), 1);
  EXPECT_GE(TrialRunner(-3).jobs(), 1);
  EXPECT_EQ(TrialRunner(5).jobs(), 5);
}

TEST(TrialRunner, ForEachIndexPropagatesExceptions) {
  TrialRunner runner(4);
  EXPECT_THROW(runner.for_each_index(
                   16,
                   [](size_t i) {
                     if (i == 7) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

SweepSpec tiny_sweep() {
  SweepSpec spec;
  spec.title = "engine-test";
  spec.base = tiny_params();
  spec.axis.values = {60.0, 80.0};
  spec.series = {{"dapes", ProtocolNames::kDapes, nullptr},
                 {"dapes-singlehop", ProtocolNames::kDapes,
                  [](ScenarioParams& p) { p.peer.multihop = false; }}};
  spec.metrics = {download_time_metric(), transmissions_k_metric(),
                  completion_metric()};
  spec.trials = 2;
  return spec;
}

TEST(Sweep, ParallelGridIdenticalToSerial) {
  SweepResult serial = run_sweep(tiny_sweep(), TrialRunner(1));
  SweepResult parallel = run_sweep(tiny_sweep(), TrialRunner(8));
  ASSERT_EQ(serial.values.size(), parallel.values.size());
  for (size_t m = 0; m < serial.values.size(); ++m) {
    for (size_t s = 0; s < serial.values[m].size(); ++s) {
      for (size_t x = 0; x < serial.values[m][s].size(); ++x) {
        EXPECT_DOUBLE_EQ(serial.values[m][s][x], parallel.values[m][s][x])
            << "metric " << m << " series " << s << " x " << x;
      }
    }
  }
}

TEST(Sweep, UnknownDriverFailsBeforeRunning) {
  SweepSpec spec = tiny_sweep();
  spec.series.push_back({"broken", "no-such-protocol", nullptr});
  EXPECT_THROW(run_sweep(spec, TrialRunner(1)), std::out_of_range);
}

std::string render(const SweepResult& r, OutputFormat format) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  write_sweep(r, format, f);
  std::fseek(f, 0, SEEK_SET);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  return content;
}

TEST(Sweep, EmittersProduceAllFormats) {
  SweepSpec spec = tiny_sweep();
  spec.trials = 1;
  spec.metrics = {download_time_metric()};
  SweepResult r = run_sweep(spec, TrialRunner(0));

  std::string text = render(r, OutputFormat::kText);
  EXPECT_NE(text.find("=== engine-test ==="), std::string::npos);
  EXPECT_NE(text.find("dapes-singlehop"), std::string::npos);

  std::string csv = render(r, OutputFormat::kCsv);
  EXPECT_EQ(csv.rfind("metric,series,range_m,value\n", 0), 0u);
  EXPECT_NE(csv.find("download_s,dapes,60,"), std::string::npos);

  std::string json = render(r, OutputFormat::kJson);
  EXPECT_NE(json.find("\"title\": \"engine-test\""), std::string::npos);
  EXPECT_NE(json.find("\"download_s\""), std::string::npos);
}

TEST(ApplyScale, PreservesTotalsAndDensity) {
  ScenarioParams p = tiny_params();
  apply_scale(p, 44);
  EXPECT_EQ(p.stationary_downloaders + p.mobile_downloaders +
                p.pure_forwarders + p.dapes_intermediates,
            44);
  EXPECT_DOUBLE_EQ(p.field_m, 300.0);

  apply_scale(p, 1000);
  const int total = p.stationary_downloaders + p.mobile_downloaders +
                    p.pure_forwarders + p.dapes_intermediates;
  EXPECT_EQ(total, 1000);
  // Constant density: area / node is the Fig. 7 ratio.
  EXPECT_NEAR(p.field_m * p.field_m / total, 300.0 * 300.0 / 44.0, 1.0);
}

// The scale.field determinism regression: one sweep over the new family
// (node-count axis, waypoint + group mobility) rendered to JSON must be
// bit-identical at --jobs 1 and --jobs 8.
TEST(Sweep, ScaleFieldJsonBitIdenticalAcrossJobs) {
  SweepSpec spec;
  spec.title = "scale-field-determinism";
  spec.base = tiny_params();
  spec.base.files = 1;
  spec.base.file_size_bytes = 4 * 1024;
  spec.base.sim_limit_s = 300.0;
  spec.axis.label = "nodes";
  spec.axis.values = {20.0, 44.0};
  spec.axis.apply = apply_scale;
  spec.series = {{"waypoint", ProtocolNames::kScaleField,
                  [](ScenarioParams& p) {
                    p.mobility = MobilityKind::kRandomWaypoint;
                  }},
                 {"group", ProtocolNames::kScaleField,
                  [](ScenarioParams& p) {
                    p.mobility = MobilityKind::kGroup;
                  }},
                 {"medium-stress", ProtocolNames::kScaleMedium,
                  [](ScenarioParams& p) {
                    p.mobility = MobilityKind::kRandomWaypoint;
                    p.sim_limit_s = 5.0;
                  }}};
  spec.metrics = {download_time_metric(), transmissions_k_metric(),
                  completion_metric()};
  spec.trials = 2;

  std::string serial = render(run_sweep(spec, TrialRunner(1)),
                              OutputFormat::kJson);
  std::string parallel = render(run_sweep(spec, TrialRunner(8)),
                                OutputFormat::kJson);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(Sweep, ParseOutputFormat) {
  EXPECT_EQ(parse_output_format("text"), OutputFormat::kText);
  EXPECT_EQ(parse_output_format("csv"), OutputFormat::kCsv);
  EXPECT_EQ(parse_output_format("json"), OutputFormat::kJson);
  EXPECT_EQ(parse_output_format("xml"), std::nullopt);
}

}  // namespace
}  // namespace dapes::harness
