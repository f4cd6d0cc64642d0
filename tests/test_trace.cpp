// The event-trace subsystem's contracts (DESIGN.md "Event trace
// architecture"):
//
//   * Binary round-trip — varints and whole DTRC traces encode/decode
//     losslessly, on randomized inputs.
//   * Bounded memory — a capped sink (the ring sink's policy at a
//     testable size) holds the trial's newest records in emission order,
//     drops oldest-first, and counts every drop.
//   * Disabled guard — with no sink configured nothing is emitted, no
//     tracer is installed, and a traced trial's deterministic TrialResult
//     is bit-identical to the untraced one.
//   * Trace identity — the trace file is byte-identical across
//     --jobs 1 vs 8, multi-seed (the contract the CI smoke also
//     byte-diffs at bench scale).
//   * Trace invariants — every executed event, frame deliveries
//     included, leaves exactly one sched.fire record, and every name
//     hash a record carries resolves through the dictionary.
//   * Node attribution — the scheduler's OwnerScope is the one node
//     context: a record names the owner of the code that emitted it, so
//     the only unattributed fires are frame deliveries and fault
//     injections, which run unowned on purpose.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness/driver.hpp"
#include "harness/scale.hpp"
#include "harness/trial_runner.hpp"
#include "ndn/name.hpp"
#include "sim/scheduler.hpp"
#include "trace/format.hpp"
#include "trace/query.hpp"
#include "trace/sinks.hpp"
#include "trace/trace.hpp"

namespace dapes::trace {
namespace {

// ---------------------------------------------------------------- varints

TEST(TraceVarint, RoundTripBoundaryValues) {
  const std::vector<uint64_t> values = {
      0,       1,          0x7f,        0x80,       0x3fff,
      0x4000,  0x1fffff,   0x200000,    0xffffffff, 0x100000000ull,
      UINT64_MAX - 1,      UINT64_MAX};
  std::string buf;
  for (uint64_t v : values) put_varint(buf, v);
  size_t pos = 0;
  for (uint64_t v : values) EXPECT_EQ(get_varint(buf, pos), v);
  EXPECT_EQ(pos, buf.size());
}

TEST(TraceVarint, RoundTripRandom) {
  common::Rng rng(7);
  std::string buf;
  std::vector<uint64_t> values;
  for (int i = 0; i < 2000; ++i) {
    // Spread across magnitudes: mask a full draw down to 1..64 bits.
    const int bits = 1 + static_cast<int>(rng.next_below(64));
    uint64_t v = rng.next();
    if (bits < 64) v &= (1ull << bits) - 1;
    values.push_back(v);
    put_varint(buf, v);
  }
  size_t pos = 0;
  for (uint64_t v : values) EXPECT_EQ(get_varint(buf, pos), v);
  EXPECT_EQ(pos, buf.size());
}

TEST(TraceVarint, TruncationThrows) {
  std::string buf;
  put_varint(buf, 0x4000);  // two-plus bytes
  buf.pop_back();
  size_t pos = 0;
  EXPECT_THROW(get_varint(buf, pos), std::runtime_error);
}

// ---------------------------------------------------- trace encode/decode

TraceData random_trace(uint64_t seed) {
  common::Rng rng(seed);
  TraceData t;
  const auto& reg = EventTypeRegistry::get();
  for (size_t i = 0; i < kEventTypeCount; ++i) {
    t.types.emplace_back(static_cast<uint16_t>(i),
                         std::string(reg.name(static_cast<EventType>(i))));
  }
  const size_t n_names = 1 + static_cast<size_t>(rng.next_below(16));
  for (size_t i = 0; i < n_names; ++i) {
    // Hashes must be unique and sorted ascending, as the writer emits.
    t.names.emplace_back((i + 1) * 1000 + rng.next_below(999),
                         "/t/" + std::to_string(i));
  }
  int64_t now = 0;
  const size_t n_records = static_cast<size_t>(rng.next_below(300));
  for (size_t i = 0; i < n_records; ++i) {
    Record r;
    now += static_cast<int64_t>(rng.next_below(5000));  // nondecreasing
    r.t_us = now;
    r.node = rng.next_below(10) == 0
                 ? kNoNode
                 : static_cast<uint32_t>(rng.next_below(64));
    r.type = static_cast<uint16_t>(rng.next_below(kEventTypeCount));
    r.name_hash =
        rng.next_below(2) == 0 ? 0 : t.names[rng.next_below(n_names)].first;
    r.narg = static_cast<uint16_t>(rng.next_below(4));
    for (uint16_t a = 0; a < r.narg; ++a) r.args[a] = rng.next();
    t.records.push_back(r);
  }
  t.dropped = rng.next_below(100);
  t.total_emitted = t.records.size() + t.dropped;
  return t;
}

TEST(TraceFormat, RoundTripRandomTraces) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const TraceData t = random_trace(seed);
    const std::string bytes = encode_trace(t);
    const TraceData back = decode_trace(bytes);
    ASSERT_EQ(back.records.size(), t.records.size()) << "seed " << seed;
    for (size_t i = 0; i < t.records.size(); ++i) {
      EXPECT_EQ(back.records[i], t.records[i]) << "seed " << seed;
    }
    EXPECT_EQ(back.names, t.names) << "seed " << seed;
    EXPECT_EQ(back.types, t.types) << "seed " << seed;
    EXPECT_EQ(back.dropped, t.dropped) << "seed " << seed;
    EXPECT_EQ(back.total_emitted, t.total_emitted) << "seed " << seed;
    // Determinism: re-encoding the decoded trace is byte-identical.
    EXPECT_EQ(encode_trace(back), bytes) << "seed " << seed;
  }
}

TEST(TraceFormat, RejectsCorruptInput) {
  const TraceData t = random_trace(3);
  std::string bytes = encode_trace(t);
  EXPECT_THROW(decode_trace(std::string("XXXX") + bytes.substr(4)),
               std::runtime_error);
  EXPECT_THROW(decode_trace(bytes.substr(0, bytes.size() / 2)),
               std::runtime_error);
  EXPECT_THROW(decode_trace(std::string()), std::runtime_error);
}

TEST(TraceFormat, RejectsVersionOneHeader) {
  // Version 1 carried a slot count and per-slot drop counts.
  std::string bytes = encode_trace(random_trace(4));
  ASSERT_EQ(bytes[4], 2);
  bytes[4] = 1;
  EXPECT_THROW(decode_trace(bytes), std::runtime_error);
}

// -------------------------------------------------------- tracer + sinks

/// A sink that retains the newest @p capacity records and writes
/// nothing: the ring sink's policy at a size small enough to test (the
/// ring itself holds 2^20 records). Registered on first use; returns the
/// sink name.
std::string capped_ring(size_t capacity) {
  class CappedRing : public TraceSink {
   public:
    explicit CappedRing(size_t capacity) : capacity_(capacity) {}
    size_t buffer_capacity(const TraceConfig&) const override {
      return capacity_;
    }
    void write(const TraceConfig&, const TraceData&) const override {}

   private:
    size_t capacity_;
  };
  const std::string name = "test.ring" + std::to_string(capacity);
  TraceSinkRegistry& registry = TraceSinkRegistry::instance();
  const std::vector<std::string> known = registry.names();
  if (std::find(known.begin(), known.end(), name) == known.end()) {
    registry.register_factory(name, [capacity](const TraceConfig&) {
      return std::make_unique<CappedRing>(capacity);
    });
  }
  return name;
}

TEST(Tracer, RingSinkCapIsTwoToTheTwentyRecords) {
  TraceConfig config;
  config.sink = "ring";
  const auto ring = TraceSinkRegistry::instance().create(config);
  EXPECT_EQ(ring->buffer_capacity(config), size_t{1} << 20);
}

TEST(Tracer, RingSinkBoundsMemoryAndCountsDrops) {
  TraceConfig config;
  config.sink = capped_ring(16);
  int64_t now = 0;
  Tracer tracer(config, [&now] { return now; });
  TrialScope scope(&tracer);
  sim::Scheduler sched;

  const uint64_t total = 100;
  for (uint64_t i = 0; i < total; ++i) {
    now = static_cast<int64_t>(i);
    sim::Scheduler::OwnerScope own(sched, 0);
    DAPES_TRACE_HERE(EventType::kSchedFire, i);
  }
  EXPECT_EQ(tracer.emitted(), total);
  EXPECT_EQ(tracer.held(), 16u);
  EXPECT_EQ(tracer.dropped(), total - 16);

  // The survivors are the newest 16, in emission order.
  const TraceData t = tracer.snapshot();
  ASSERT_EQ(t.records.size(), 16u);
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(t.records[i].t_us, static_cast<int64_t>(total - 16 + i));
    EXPECT_EQ(t.records[i].args[0], total - 16 + i);
  }
  EXPECT_EQ(t.total_emitted, total);
  EXPECT_EQ(t.dropped, total - 16);
}

TEST(Tracer, RingKeepsNewestRecordsOfTheTrial) {
  TraceConfig config;
  config.sink = capped_ring(8);
  Tracer tracer(config, [] { return int64_t{0}; });
  TrialScope scope(&tracer);
  sim::Scheduler sched;

  for (uint64_t i = 0; i < 50; ++i) {
    sim::Scheduler::OwnerScope own(sched, 0);
    DAPES_TRACE_HERE(EventType::kSchedFire, i);
  }
  {
    sim::Scheduler::OwnerScope own(sched, 1);
    DAPES_TRACE_HERE(EventType::kSchedCancel);
  }
  // One ring for the whole trial: node 0's newest 7 records, then node
  // 1's record, in emission order.
  const TraceData t = tracer.snapshot();
  ASSERT_EQ(t.records.size(), 8u);
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(t.records[i].node, 0u);
    EXPECT_EQ(t.records[i].args[0], 43 + i);
  }
  EXPECT_EQ(t.records[7].node, 1u);
  EXPECT_EQ(t.records[7].type,
            static_cast<uint16_t>(EventType::kSchedCancel));
  EXPECT_EQ(tracer.held(), 8u);
  EXPECT_EQ(tracer.dropped(), 43u);
  EXPECT_EQ(t.dropped, 43u);
}

TEST(Tracer, SameTimestampRecordsKeepEmissionOrder) {
  TraceConfig config;
  config.sink = "ring";
  Tracer tracer(config, [] { return int64_t{5}; });
  TrialScope scope(&tracer);
  sim::Scheduler sched;

  // Same-instant emissions from node 1, node 0, then no node: the
  // snapshot keeps them exactly as emitted.
  {
    sim::Scheduler::OwnerScope own(sched, 1);
    DAPES_TRACE_HERE(EventType::kSchedFire);
  }
  {
    sim::Scheduler::OwnerScope own(sched, 0);
    DAPES_TRACE_HERE(EventType::kSchedFire);
  }
  DAPES_TRACE_HERE(EventType::kSchedFire);

  const TraceData t = tracer.snapshot();
  ASSERT_EQ(t.records.size(), 3u);
  EXPECT_EQ(t.records[0].node, 1u);
  EXPECT_EQ(t.records[1].node, 0u);
  EXPECT_EQ(t.records[2].node, kNoNode);
  for (const Record& r : t.records) EXPECT_EQ(r.t_us, 5);
}

TEST(Tracer, NamedEmissionsBuildTheDictionary) {
  TraceConfig config;
  config.sink = "ring";
  Tracer tracer(config, [] { return int64_t{0}; });
  TrialScope scope(&tracer);

  sim::Scheduler sched;
  const ndn::Name name("/dapes/discovery");
  {
    sim::Scheduler::OwnerScope own(sched, 0);
    DAPES_TRACE_NAMED(EventType::kPitInsert, name);
    DAPES_TRACE_NAMED(EventType::kPitSatisfy, name);
  }
  const TraceData t = tracer.snapshot();
  ASSERT_EQ(t.records.size(), 2u);
  ASSERT_EQ(t.names.size(), 1u);  // one name, learned once
  EXPECT_EQ(t.names[0].first, name.hash());
  EXPECT_EQ(t.names[0].second, name.to_uri());
  EXPECT_EQ(t.records[0].name_hash, name.hash());
  ASSERT_NE(t.name_of(name.hash()), nullptr);
  EXPECT_EQ(*t.name_of(name.hash()), name.to_uri());
}

TEST(Tracer, DictionaryCappedBySinkCapacity) {
  const ndn::Name names[3] = {ndn::Name("/a"), ndn::Name("/b"),
                              ndn::Name("/c")};
  TraceConfig config;
  config.sink = capped_ring(2);
  Tracer ring(config, [] { return int64_t{0}; });
  config.sink = "null";
  Tracer null(config, [] { return int64_t{0}; });
  for (const ndn::Name& name : names) {
    ring.emit_named(EventType::kPitInsert, kNoNode, name, {});
    null.emit_named(EventType::kPitInsert, kNoNode, name, {});
  }
  // The ring learns names up to its record cap; the null sink keeps none.
  EXPECT_EQ(ring.snapshot().names.size(), 2u);
  EXPECT_TRUE(null.snapshot().names.empty());
  EXPECT_EQ(null.emitted(), 3u);
  EXPECT_EQ(null.dropped(), 3u);
}

TEST(Tracer, UnknownSinkNameThrows) {
  TraceConfig config;
  config.sink = "bogus";
  EXPECT_THROW(Tracer(config, [] { return int64_t{0}; }),
               std::invalid_argument);
}

TEST(Tracer, FileSinkRequiresPath) {
  TraceConfig config;
  config.sink = "file";
  EXPECT_THROW(Tracer(config, [] { return int64_t{0}; }),
               std::invalid_argument);
}

// ------------------------------------------------------- disabled guard

TEST(TraceGuard, NothingRunsWhenDisabled) {
  ASSERT_EQ(active(), nullptr);
  // Every macro must be inert without an installed tracer.
  DAPES_TRACE_EVENT(EventType::kMediumTx, 1, 2, 3);
  DAPES_TRACE_HERE(EventType::kSchedFire);
  DAPES_TRACE_NAMED(EventType::kPitInsert, ndn::Name("/x"));
  SUCCEED();
}

TEST(TraceGuard, OwnerScopeNestsTheNodeContext) {
  sim::Scheduler sched;
  ASSERT_EQ(context_node(), kNoNode);
  {
    sim::Scheduler::OwnerScope outer(sched, 7);
    EXPECT_EQ(context_node(), 7u);
    {
      // A frame delivery is scheduled unowned inside its sender's scope:
      // kNoOwner clears the context rather than keeping the sender's.
      sim::Scheduler::OwnerScope unowned(sched, sim::Scheduler::kNoOwner);
      EXPECT_EQ(context_node(), kNoNode);
      {
        sim::Scheduler::OwnerScope inner(sched, 3);
        EXPECT_EQ(context_node(), 3u);
        EXPECT_EQ(sched.current_owner(), 3u);
      }
      EXPECT_EQ(context_node(), kNoNode);
      EXPECT_EQ(sched.current_owner(), sim::Scheduler::kNoOwner);
    }
    // The outer context and owner come back on exit.
    EXPECT_EQ(context_node(), 7u);
    EXPECT_EQ(sched.current_owner(), 7u);
  }
  EXPECT_EQ(context_node(), kNoNode);
}

TEST(Tracer, SchedulerRecordsNameTheEventOwner) {
  TraceConfig config;
  config.sink = "ring";
  sim::Scheduler sched;
  Tracer tracer(config, [&sched] { return sched.now().us; });
  TrialScope scope(&tracer);
  {
    sim::Scheduler::OwnerScope own(sched, 5);
    // The owned event reschedules itself once: the follow-up inherits 5.
    sched.schedule(sim::Duration::microseconds(10), [&sched] {
      sched.schedule(sim::Duration::microseconds(10), [] {});
    });
  }
  sched.schedule(sim::Duration::microseconds(15), [] {});
  sched.run();

  // schedule(5) schedule(-) fire(5) schedule(5) fire(-) fire(5)
  const TraceData t = tracer.snapshot();
  const std::vector<std::pair<EventType, uint32_t>> expected = {
      {EventType::kSchedSchedule, 5u}, {EventType::kSchedSchedule, kNoNode},
      {EventType::kSchedFire, 5u},     {EventType::kSchedSchedule, 5u},
      {EventType::kSchedFire, kNoNode}, {EventType::kSchedFire, 5u}};
  ASSERT_EQ(t.records.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(t.records[i].type, static_cast<uint16_t>(expected[i].first))
        << i;
    EXPECT_EQ(t.records[i].node, expected[i].second) << i;
  }
  EXPECT_EQ(context_node(), kNoNode);
}

}  // namespace
}  // namespace dapes::trace

namespace dapes::harness {
namespace {

using trace::TraceData;

ScenarioParams tiny_field(uint64_t seed) {
  ScenarioParams p;
  p.files = 1;
  p.file_size_bytes = 8 * 1024;
  p.mobile_downloaders = 6;
  p.stationary_downloaders = 2;
  p.pure_forwarders = 2;
  p.dapes_intermediates = 2;
  p.wifi_range_m = 80.0;
  p.data_rate_bps = 11e6;
  p.sim_limit_s = 200.0;
  p.seed = seed;
  return p;
}

void expect_deterministic_equal(const TrialResult& a, const TrialResult& b) {
  EXPECT_DOUBLE_EQ(a.download_time_s, b.download_time_s);
  EXPECT_DOUBLE_EQ(a.completion_fraction, b.completion_fraction);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.collided_frames, b.collided_frames);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.peak_state_bytes, b.peak_state_bytes);
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// A scoped temp directory for trace files.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("dapes_trace_test_" + tag)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

TEST(TraceTrial, TracingDoesNotPerturbResults) {
  const ScenarioParams base = tiny_field(11);
  const TrialResult untraced = run_trial(ProtocolNames::kScaleField, base);

  ScenarioParams traced = base;
  traced.trace.sink = "null";
  const TrialResult with_null = run_trial(ProtocolNames::kScaleField, traced);
  expect_deterministic_equal(untraced, with_null);

  TempDir dir("perturb");
  traced.trace.sink = "file";
  traced.trace.path = (dir.path / "tr").string();
  const TrialResult with_file = run_trial(ProtocolNames::kScaleField, traced);
  expect_deterministic_equal(untraced, with_file);
  EXPECT_TRUE(std::filesystem::exists(dir.path / "tr"));
}

TEST(TraceTrial, TraceFileIdenticalAcrossJobs) {
  // Multi-seed: each seed's per-trial trace must be byte-identical
  // between a serial and an 8-thread TrialRunner fan-out.
  TempDir dir("jobs");
  const int trials = 3;
  for (uint64_t seed : {1ull, 2ull}) {
    ScenarioParams p = tiny_field(seed);
    p.trace.sink = "file";

    p.trace.path = (dir.path / ("j1_s" + std::to_string(seed))).string();
    TrialRunner(1).run(ProtocolNames::kScaleField, p, trials);

    p.trace.path = (dir.path / ("j8_s" + std::to_string(seed))).string();
    TrialRunner(8).run(ProtocolNames::kScaleField, p, trials);

    for (int t = 0; t < trials; ++t) {
      const std::string suffix = ".t" + std::to_string(t);
      const std::string a =
          slurp(dir.path / ("j1_s" + std::to_string(seed) + suffix));
      const std::string b =
          slurp(dir.path / ("j8_s" + std::to_string(seed) + suffix));
      ASSERT_FALSE(a.empty());
      EXPECT_EQ(a, b) << "seed " << seed << " trial " << t;
    }
  }
}

TEST(TraceTrial, SchedFireCountsEveryExecutedEvent) {
  TempDir dir("fire");
  ScenarioParams p = tiny_field(6);
  p.trace.sink = "file";
  p.trace.path = (dir.path / "tr").string();
  const TrialResult result = run_trial(ProtocolNames::kScaleField, p);

  const TraceData t = trace::read_trace_file(p.trace.path);
  ASSERT_EQ(t.dropped, 0u);
  uint64_t fires = 0, deliveries = 0;
  for (const trace::Record& r : t.records) {
    if (r.type == static_cast<uint16_t>(trace::EventType::kSchedFire)) {
      ++fires;
    } else if (r.type ==
               static_cast<uint16_t>(trace::EventType::kMediumDeliver)) {
      ++deliveries;
    }
  }
  ASSERT_GT(deliveries, 0u);
  EXPECT_EQ(fires, result.events_executed);
}

// Frame deliveries (`Medium::transmit`) and fault injections
// (`FaultPlan::install`) are the only events scheduled unowned, on
// purpose; every other event belongs to a node, so its sched.fire names
// one the trial registered.
void expect_unowned_fires_are_deliveries_and_faults(const std::string& driver,
                                                    ScenarioParams p,
                                                    const std::string& tag) {
  TempDir dir(tag);
  p.trace.sink = "file";
  p.trace.path = (dir.path / "tr").string();
  run_trial(driver, p);

  const TraceData t = trace::read_trace_file(p.trace.path);
  ASSERT_EQ(t.dropped, 0u);
  auto is = [](const trace::Record& r, trace::EventType type) {
    return r.type == static_cast<uint16_t>(type);
  };
  std::set<uint32_t> joined;
  uint64_t unowned_fires = 0, deliveries = 0, faults = 0, owned_fires = 0;
  for (const trace::Record& r : t.records) {
    if (is(r, trace::EventType::kNodeJoin)) joined.insert(r.node);
    if (is(r, trace::EventType::kMediumDeliver)) ++deliveries;
    if (is(r, trace::EventType::kFaultInject)) ++faults;
  }
  // Node ids are dense, and every registered node joins the medium.
  ASSERT_FALSE(joined.empty());
  const uint32_t node_count = *joined.rbegin() + 1;
  EXPECT_EQ(joined.size(), node_count);
  for (const trace::Record& r : t.records) {
    if (!is(r, trace::EventType::kSchedFire)) continue;
    if (r.node == trace::kNoNode) {
      ++unowned_fires;
    } else {
      ++owned_fires;
      EXPECT_LT(r.node, node_count);
    }
  }
  ASSERT_GT(deliveries, 0u);
  EXPECT_GT(owned_fires, 0u);
  EXPECT_EQ(unowned_fires, deliveries + faults)
      << deliveries << " deliveries, " << faults << " faults";
  if (driver == ProtocolNames::kChurnSwarm) {
    EXPECT_GT(faults, 0u);
  }
}

TEST(TraceTrial, UnownedFiresAreDeliveriesAndFaults) {
  expect_unowned_fires_are_deliveries_and_faults(ProtocolNames::kScaleField,
                                                 tiny_field(6), "owned_fixed");
  ScenarioParams churn = tiny_field(3);
  churn.faults.leave_rate_hz = 1.0 / 120.0;
  churn.faults.crash_fraction = 0.5;
  churn.faults.flash_crowd_size = 3;
  churn.faults.join_rate_hz = 1.0 / 120.0;
  expect_unowned_fires_are_deliveries_and_faults(ProtocolNames::kChurnSwarm,
                                                 churn, "owned_churn");
}

TEST(TraceTrial, EveryNameHashResolves) {
  TempDir dir("names");
  ScenarioParams p = tiny_field(7);
  p.trace.sink = "file";
  p.trace.path = (dir.path / "tr").string();
  run_trial(ProtocolNames::kScaleField, p);

  const TraceData t = trace::read_trace_file(p.trace.path);
  size_t named = 0, unresolved = 0;
  for (const trace::Record& r : t.records) {
    if (r.name_hash == 0) continue;
    ++named;
    if (t.name_of(r.name_hash) == nullptr) ++unresolved;
  }
  EXPECT_GT(named, 0u);
  EXPECT_EQ(unresolved, 0u);
}

TEST(TraceTrial, QueryToolsReadTrialTraces) {
  TempDir dir("query");
  ScenarioParams p = tiny_field(5);
  p.trace.sink = "file";
  p.trace.path = (dir.path / "tr").string();
  run_trial(ProtocolNames::kScaleField, p);

  const TraceData t = trace::read_trace_file((dir.path / "tr").string());
  ASSERT_FALSE(t.records.empty());

  const trace::TraceStats stats = trace::compute_stats(t);
  EXPECT_EQ(stats.records, t.records.size());
  EXPECT_GT(stats.nodes_seen, 0u);
  EXPECT_FALSE(stats.by_type.empty());

  // Diff against itself: identical. Against a truncated copy: divergent
  // at the truncation point.
  const trace::DiffResult same = trace::diff_traces(t, t);
  EXPECT_TRUE(same.identical);
  TraceData shorter = t;
  shorter.records.pop_back();
  const trace::DiffResult diff = trace::diff_traces(t, shorter);
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.index, shorter.records.size());
  EXPECT_TRUE(diff.a.has_value());
  EXPECT_FALSE(diff.b.has_value());
}

}  // namespace
}  // namespace dapes::harness
