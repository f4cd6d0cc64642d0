// perfbench: the measuring half of the repository benchmark.
//
// Runs one workload's trials, one at a time, through the public engine
// entry point harness::run_trial, and prints one JSON object per line:
//
//   {"kind":"fingerprint", ...}   hardware / build / SHA engine
//   {"kind":"trial", ...}         one per timed trial: wall, loop wall,
//                                 deterministic outputs, codec and verify
//                                 counter deltas; with --trace 1 also the
//                                 traced rerun's outputs and event counts
//   {"kind":"kernels", ...}       --trace 1 only: per-op timings of each
//                                 layer's public calls on the workload's
//                                 own packets and names
//   {"kind":"process", ...}       peak resident memory of this process
//
// run.py owns seeds, the output check and the aggregation into metrics;
// this program only measures. Usage:
//
//   perfbench --workload fig7|field1k|medium.fading --seeds 3,1,2
//             --seconds S --trace 0|1 [--tiny]
//
// With --trace 0 the seed list is run as whole rounds until the next round
// would overrun --seconds (at least one round). With --trace 1 every trial
// is run untraced and then traced, trial by trial, under the same rule
// (at least one trial). An untimed, shortened warm-up trial runs
// first in either mode.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/rng.hpp"
#include "crypto/keychain.hpp"
#include "crypto/sha256.hpp"
#include "crypto/verify_cache.hpp"
#include "dapes/collection.hpp"
#include "harness/driver.hpp"
#include "harness/scale.hpp"
#include "harness/topology.hpp"
#include "ndn/name_tree.hpp"
#include "ndn/packet.hpp"
#include "ndn/tables.hpp"
#include "sim/scheduler.hpp"
#include "trace/events.hpp"
#include "trace/query.hpp"
#include "trace/sinks.hpp"

namespace {

using namespace dapes;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------ workloads

struct Workload {
  std::string driver;
  bool stack = true;  ///< DAPES/NDN stack on top of the medium
  harness::ScenarioParams params;
  double warmup_limit_s = 0.0;  ///< horizon of the untimed warm-up trial
  /// Topology names the driver uses, so the per-op kernels run on the
  /// same signed collection the trial serves.
  const char* collection = "/collection-1533783192";
  const char* key = "/dapes/producer";
  const char* file_prefix = "file-";
};

// Why each workload is in the benchmark is recorded in README.md.
Workload make_workload(const std::string& name, bool tiny) {
  Workload w;
  harness::ScenarioParams& p = w.params;
  if (name == "fig7") {
    // The paper's Fig. 7 world under the default scaled knobs: 44 nodes,
    // 10 x 128 KB collection, 60 m range, PEBA, local-neighborhood RPF,
    // run to completion.
    w.driver = harness::ProtocolNames::kDapes;
    if (tiny) {
      p.files = 1;
      p.file_size_bytes = 16 * 1024;
      p.sim_limit_s = 300.0;
    }
    w.warmup_limit_s = 20.0;
  } else if (name == "field1k") {
    // scale.field at 1000 nodes, random waypoint, one 16 KB file.
    w.driver = harness::ProtocolNames::kScaleField;
    harness::apply_scale(p, tiny ? 150 : 1000);
    p.mobility = harness::MobilityKind::kRandomWaypoint;
    p.files = 1;
    p.file_size_bytes = 16 * 1024;
    p.sim_limit_s = 40.0;
    w.warmup_limit_s = tiny ? 2.0 : 3.0;
  } else if (name == "medium.fading") {
    // scale.medium at 2000 nodes on log-distance + Rician(K=4) +
    // Gilbert-Elliott bursts (pi = 0.3, 100 ms), no shadowing.
    w.driver = harness::ProtocolNames::kScaleMedium;
    w.stack = false;
    harness::apply_scale(p, tiny ? 200 : 2000);
    p.mobility = harness::MobilityKind::kRandomWaypoint;
    p.files = 1;
    p.file_size_bytes = 16 * 1024;
    p.channel.model = "log-distance";
    p.channel.fading = "rician";
    p.channel.rician_k = 4.0;
    p.channel.ge_bad_fraction = 0.3;
    p.channel.ge_mean_burst_ms = 100.0;
    p.sim_limit_s = tiny ? 1.0 : 5.0;
    w.warmup_limit_s = tiny ? 0.2 : 0.5;
    w.collection = "/scale-medium";
    w.key = "/scale/medium-key";
    w.file_prefix = "f-";
  } else {
    throw std::invalid_argument("unknown workload \"" + name + "\"");
  }
  return w;
}

// ------------------------------------------------------ counting sink

/// Per-type event counts of one traced trial, captured at flush.
struct TraceCounts {
  std::array<uint64_t, trace::kEventTypeCount> by_type{};
  uint64_t records = 0;         ///< records emitted (kept + dropped)
  uint64_t dropped = 0;         ///< must stay 0: the sink is unbounded
  int64_t t_last_us = 0;        ///< simulated time of the last record
  uint64_t channel_bad = 0;     ///< channel.state records in the bad state
  uint64_t prewarm_cached = 0;  ///< crypto.prewarm records served cached
  bool captured = false;
};

TraceCounts g_counts;  // trials run one at a time on this thread

constexpr const char* kCountingSink = "perfbench.count";

/// Unbounded retention (the built-in ring evicts past ring_capacity
/// records per node and would undercount large trials); at flush the
/// merged trace is reduced to counts through trace::compute_stats and
/// then dropped.
class CountingSink : public trace::TraceSink {
 public:
  size_t buffer_capacity(const trace::TraceConfig&) const override {
    return std::numeric_limits<size_t>::max();
  }
  void write(const trace::TraceConfig&,
             const trace::TraceData& data) const override {
    const trace::TraceStats stats = trace::compute_stats(data);
    TraceCounts c;
    c.records = stats.emitted;
    c.dropped = stats.dropped;
    c.t_last_us = stats.t_last_us;
    const auto& registry = trace::EventTypeRegistry::get();
    for (const trace::TypeStats& t : stats.by_type) {
      const trace::EventType type = registry.find(t.name);
      if (type != trace::EventType::kCount) {
        c.by_type[static_cast<size_t>(type)] = t.count;
      }
    }
    // Two counts need a record argument: the burst state and whether the
    // prewarm found the frame already cached.
    uint16_t state_id = UINT16_MAX;
    uint16_t prewarm_id = UINT16_MAX;
    for (const auto& [id, type_name] : data.types) {
      if (type_name == "channel.state") state_id = id;
      if (type_name == "crypto.prewarm") prewarm_id = id;
    }
    for (const trace::Record& r : data.records) {
      if (r.type == state_id && r.narg > 1 && r.args[1] == 1) ++c.channel_bad;
      if (r.type == prewarm_id && r.narg > 0 && r.args[0] == 1) {
        ++c.prewarm_cached;
      }
    }
    c.captured = true;
    g_counts = c;
  }
};

// ------------------------------------------------------------ output

/// Minimal JSON object writer for one output line.
class Line {
 public:
  explicit Line(const char* kind) { str("kind", kind); }
  Line& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Line& u64(const char* key, uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Line& str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (char ch : v) {
      if (ch == '"' || ch == '\\') quoted += '\\';
      quoted += ch;
    }
    return raw(key, quoted + "\"");
  }
  Line& raw(const char* key, const std::string& json) {
    out_ += out_.empty() ? "{" : ",";
    out_ += "\"";
    out_ += key;
    out_ += "\":";
    out_ += json;
    return *this;
  }
  std::string done() const { return out_ + "}"; }
  void print() const { std::printf("%s\n", done().c_str()); std::fflush(stdout); }

 private:
  std::string out_;
};

// ------------------------------------------------------------ trials

struct CounterSnapshot {
  uint64_t interest_decodes = 0, data_decodes = 0, encodes = 0,
           wire_cache_hits = 0;
  uint64_t digests = 0, mac_hits = 0, mac_misses = 0;

  static CounterSnapshot take() {
    const ndn::CodecCounters& c = ndn::codec_counters();
    const crypto::VerifyCounters& v = crypto::verify_counters();
    CounterSnapshot s;
    s.interest_decodes = c.interest_decodes.load();
    s.data_decodes = c.data_decodes.load();
    s.encodes = c.interest_encodes.load() + c.data_encodes.load();
    s.wire_cache_hits = c.wire_cache_hits.load();
    s.digests = v.content_digests_computed.load();
    s.mac_hits = v.mac_hits.load();
    s.mac_misses = v.mac_misses.load();
    return s;
  }
  CounterSnapshot minus(const CounterSnapshot& b) const {
    CounterSnapshot d;
    d.interest_decodes = interest_decodes - b.interest_decodes;
    d.data_decodes = data_decodes - b.data_decodes;
    d.encodes = encodes - b.encodes;
    d.wire_cache_hits = wire_cache_hits - b.wire_cache_hits;
    d.digests = digests - b.digests;
    d.mac_hits = mac_hits - b.mac_hits;
    d.mac_misses = mac_misses - b.mac_misses;
    return d;
  }
};

struct Run {
  harness::TrialResult result;
  double run_s = 0.0;  ///< wall of the whole run_trial call
  CounterSnapshot counters;
};

/// One trial through the public entry point, wall-timed from outside and
/// with the process-wide counters diffed around it.
Run run_one(const harness::ProtocolDriver& driver,
            const harness::ScenarioParams& params) {
  Run run;
  const CounterSnapshot before = CounterSnapshot::take();
  const auto start = Clock::now();
  run.result = harness::run_trial(driver, params);
  run.run_s = seconds_since(start);
  run.counters = CounterSnapshot::take().minus(before);
  return run;
}

uint64_t tx_of_kind(const harness::TrialResult& r, const char* kind) {
  auto it = r.tx_by_kind.find(kind);
  return it == r.tx_by_kind.end() ? 0 : it->second;
}

/// The trial's deterministic outputs (what run.py pins and compares).
std::string outputs_json(const Workload& w, const harness::TrialResult& r) {
  Line o("outputs");
  o.num("download_s", w.stack ? r.download_time_s : w.params.sim_limit_s)
      .num("completion", r.completion_fraction)
      .u64("transmissions", r.transmissions)
      .u64("collided", r.collided_frames)
      .u64("events", r.events_executed)
      // scale.medium reports frames delivered in total_state_bytes.
      .u64("delivered", w.stack ? 0 : r.total_state_bytes);
  return o.done();
}

std::string counters_json(const Workload& w, const Run& run) {
  const harness::TrialResult& r = run.result;
  const CounterSnapshot& c = run.counters;
  Line o("counters");
  o.u64("interest_decodes", c.interest_decodes)
      .u64("data_decodes", c.data_decodes)
      .u64("encodes", c.encodes)
      .u64("wire_cache_hits", c.wire_cache_hits)
      .u64("digests", c.digests)
      .u64("mac_hits", c.mac_hits)
      .u64("mac_misses", c.mac_misses)
      .u64("interest_frames", tx_of_kind(r, "ndn-interest"))
      .u64("data_frames", tx_of_kind(r, "ndn-data"))
      // scale.medium repurposes the state slots (see scale.cpp); there
      // are no peers, so peer state is reported as zero.
      .u64("peak_state_bytes", w.stack ? r.peak_state_bytes : 0)
      .u64("peak_knowledge_bytes", w.stack ? r.peak_knowledge_bytes : 0)
      .num("forward_accuracy", w.stack ? r.forward_accuracy : 0.0);
  return o.done();
}

std::string trace_json(const TraceCounts& t) {
  Line o("trace");
  const auto& registry = trace::EventTypeRegistry::get();
  std::string counts = "{";
  for (size_t i = 0; i < trace::kEventTypeCount; ++i) {
    if (i > 0) counts += ",";
    counts += "\"";
    counts += registry.name(static_cast<trace::EventType>(i));
    counts += "\":" + std::to_string(t.by_type[i]);
  }
  counts += "}";
  o.u64("records", t.records)
      .u64("dropped", t.dropped)
      .num("sim_s", static_cast<double>(t.t_last_us) / 1e6)
      .u64("channel_bad", t.channel_bad)
      .u64("prewarm_cached", t.prewarm_cached)
      .raw("counts", counts);
  return o.done();
}

void print_trial(const Workload& w, uint64_t seed, int round, const Run& run,
                 const Run* traced, const TraceCounts* counts) {
  Line line("trial");
  line.u64("seed", seed)
      .u64("round", static_cast<uint64_t>(round))
      .num("run_s", run.run_s)
      .num("loop_s", run.result.wall_clock_s)
      .raw("outputs", outputs_json(w, run.result))
      .raw("counters", counters_json(w, run));
  if (traced != nullptr) {
    line.num("traced_run_s", traced->run_s)
        .raw("traced_outputs", outputs_json(w, traced->result))
        .raw("traced_counters", counters_json(w, *traced))
        .raw("trace", trace_json(*counts));
  }
  line.print();
}

// ------------------------------------------------------------ kernels

/// Median-of-batches nanoseconds per op: `batch()` performs some ops and
/// returns how many; batches repeat until `budget_s` is spent (at least
/// five).
template <typename Batch>
double ns_per_op(double budget_s, Batch&& batch) {
  batch();  // warm caches and lazy state
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < 5 || seconds_since(start) < budget_s) {
    const auto t0 = Clock::now();
    const size_t ops = batch();
    samples.push_back(seconds_since(t0) * 1e9 / static_cast<double>(ops));
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

constexpr double kKernelBudgetS = 0.15;

/// Scheduler: schedule a burst of timers, cancel the workload's share of
/// them, run the loop dry.
void sched_kernel(double cancel_ratio, double& per_op, double& per_event) {
  constexpr size_t kEvents = 8192;
  common::Rng rng(7);
  std::vector<int64_t> at(kEvents);
  for (auto& t : at) t = static_cast<int64_t>(rng.next_below(1000000));
  const double ratio = std::clamp(cancel_ratio, 0.0, 0.9);
  size_t fired = 0;  // keeps the callbacks observable
  size_t cancels = 0;
  auto batch = [&] {
    sim::Scheduler sched;
    std::vector<sim::EventId> ids;
    ids.reserve(kEvents);
    for (int64_t t : at) {
      ids.push_back(sched.schedule_at(sim::TimePoint{t}, [&fired] { ++fired; }));
    }
    cancels = 0;
    double owed = 0.0;
    for (const sim::EventId& id : ids) {
      owed += ratio;
      if (owed >= 1.0) {
        owed -= 1.0;
        sched.cancel(id);
        ++cancels;
      }
    }
    sched.run_until(sim::TimePoint{1000001});
    return kEvents + cancels + (kEvents - cancels);
  };
  per_op = ns_per_op(kKernelBudgetS, batch);
  // Every batch performs 2 x kEvents ops and fires kEvents - cancels.
  per_event = per_op * 2.0 * kEvents / static_cast<double>(kEvents - cancels);
  if (fired == 0) throw std::runtime_error("scheduler kernel fired nothing");
}

struct Kernels {
  double sched_ns_per_op = 0, sched_ns_per_event = 0;
  double interest_decode_ns = 0, data_decode_ns = 0, encode_ns = 0;
  double tables_ns_per_op = 0;
  double verify_ns = 0, verify_cached_ns = 0;
};

Kernels run_kernels(const Workload& w, uint64_t seed, double cancel_ratio) {
  Kernels k;
  sched_kernel(cancel_ratio, k.sched_ns_per_op, k.sched_ns_per_event);

  // The workload's own signed collection, built exactly as its driver
  // builds it (same topology names and seed).
  harness::ScenarioParams p = w.params;
  p.seed = seed;
  p.verify_cache = false;
  p.trace = {};
  std::shared_ptr<core::Collection> collection;
  crypto::KeyChain keys;
  {
    harness::Topology topo(p, seed, w.collection, w.key, w.file_prefix);
    collection = topo.collection;
    keys.import_key(topo.producer_key);
  }
  // 512 packets per batch, cycling through small collections, so every
  // batch is long enough to time.
  constexpr size_t kBatch = 512;
  std::vector<ndn::Data> packets;
  std::vector<common::BufferSlice> data_wires, interest_wires;
  for (size_t i = 0; i < kBatch; ++i) {
    packets.push_back(collection->packet(i % collection->total_packets()));
    data_wires.push_back(packets.back().wire());
    interest_wires.push_back(ndn::Interest(packets.back().name()).wire());
  }

  // Codec: decode both packet kinds; encode = re-serialize a Data.
  k.interest_decode_ns = ns_per_op(kKernelBudgetS, [&] {
    size_t ok = 0;
    for (const auto& wire : interest_wires) ok += ndn::Interest::decode(wire).has_value();
    if (ok != interest_wires.size()) throw std::runtime_error("interest decode failed");
    return interest_wires.size();
  });
  k.data_decode_ns = ns_per_op(kKernelBudgetS, [&] {
    size_t ok = 0;
    for (const auto& wire : data_wires) ok += ndn::Data::decode(wire).has_value();
    if (ok != data_wires.size()) throw std::runtime_error("data decode failed");
    return data_wires.size();
  });
  k.encode_ns = ns_per_op(kKernelBudgetS, [&] {
    for (auto& d : packets) {
      d.set_freshness(d.freshness());  // drop the cached wire
      (void)d.wire();
    }
    return packets.size();
  });

  // Tables: one forwarder hop per name — Interest path (CS probe, PIT
  // find/insert, FIB lookup), Data path (PIT match, CS insert, PIT erase).
  k.tables_ns_per_op = ns_per_op(kKernelBudgetS, [&] {
    auto tree = std::make_shared<ndn::NameTree>();
    ndn::ContentStore cs(w.params.peer.cs_capacity, tree);
    ndn::Pit pit(tree);
    ndn::Fib fib(tree);
    fib.add_route(collection->name(), 1);
    size_t sink = 0;
    for (const ndn::Data& d : packets) {
      const ndn::Name& name = d.name();
      sink += cs.find(name) != nullptr;
      if (pit.find(name) == nullptr) pit.insert(name);
      sink += fib.lookup(name).size();
      sink += pit.matches_for_data(name).size();
      cs.insert(d);
      pit.erase(name);
    }
    if (sink < packets.size()) throw std::runtime_error("tables kernel lost routes");
    return packets.size() * 6;
  });

  // Crypto: KeyChain::verify with the verify cache off (hash + MAC per
  // call) and on (a committed verdict served by Data::verify).
  std::vector<std::string> uris;
  for (const auto& d : packets) uris.push_back(d.name().to_uri());
  k.verify_ns = ns_per_op(kKernelBudgetS, [&] {
    size_t ok = 0;
    for (size_t i = 0; i < packets.size(); ++i) {
      ok += keys.verify(uris[i], packets[i].content(), *packets[i].signature());
    }
    if (ok != packets.size()) throw std::runtime_error("verify failed");
    return packets.size();
  });
  {
    crypto::VerifyCache cache;
    crypto::VerifyCacheScope scope(&cache);
    std::vector<ndn::Data> received;
    for (const auto& wire : data_wires) {
      received.push_back(*ndn::Data::decode(wire));
      const ndn::Data& d = received.back();
      cache.store_mac(d.wire(), *keys.secret_for(d.signature()->signer), true);
    }
    k.verify_cached_ns = ns_per_op(kKernelBudgetS, [&] {
      size_t ok = 0;
      for (const auto& d : received) ok += d.verify(keys);
      if (ok != received.size()) throw std::runtime_error("cached verify failed");
      return received.size();
    });
  }
  return k;
}

// ------------------------------------------------------------ fingerprint

bool cpu_has_sha_ni() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d)) return (b >> 29) & 1u;
#endif
  return false;
}

void print_fingerprint() {
  Line line("fingerprint");
  line.u64("nproc", std::thread::hardware_concurrency());
  std::string flags;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  auto add = [&flags](const char* name, bool on) {
    if (!on) return;
    if (!flags.empty()) flags += " ";
    flags += name;
  };
  add("ssse3", __builtin_cpu_supports("ssse3"));
  add("avx2", __builtin_cpu_supports("avx2"));
  add("avx512f", __builtin_cpu_supports("avx512f"));
  add("sha_ni", cpu_has_sha_ni());
#endif
  line.str("cpu_flags", flags)
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("sha256_engine", crypto::engine().name);
  line.print();
}

uint64_t peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss);
}

// ------------------------------------------------------------ main

struct Args {
  std::string workload;
  std::vector<uint64_t> seeds;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seeds "
               "A,B,... --seconds S --trace 0|1 [--tiny]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seeds") {
      size_t pos = 0;
      while (pos < value.size()) {
        size_t end = value.find(',', pos);
        if (end == std::string::npos) end = value.size();
        a.seeds.push_back(std::stoull(value.substr(pos, end - pos)));
        pos = end + 1;
      }
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.seeds.empty()) usage("--workload and --seeds are required");
  return a;
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.tiny);
  const harness::ProtocolDriver& driver =
      harness::ProtocolDriverRegistry::instance().get(w.driver);
  trace::TraceSinkRegistry::instance().register_factory(
      kCountingSink,
      [](const trace::TraceConfig&) { return std::make_unique<CountingSink>(); });

  // Untimed warm-up: SHA engine probe, registry construction and
  // first-touch page faults land here, not in the first timed trial.
  {
    harness::ScenarioParams warm = w.params;
    warm.seed = args.seeds.front();
    warm.sim_limit_s = w.warmup_limit_s;
    (void)harness::run_trial(driver, warm);
  }
  print_fingerprint();

  const auto start = Clock::now();
  double cancel_ratio = 0.0;
  if (!args.trace) {
    double last_round_s = 0.0;
    for (int round = 0;
         round == 0 || seconds_since(start) + last_round_s <= args.seconds;
         ++round) {
      const auto round_start = Clock::now();
      for (uint64_t seed : args.seeds) {
        harness::ScenarioParams p = w.params;
        p.seed = seed;
        print_trial(w, seed, round, run_one(driver, p), nullptr, nullptr);
      }
      last_round_s = seconds_since(round_start);
    }
  } else {
    // A zero-horizon trial: what building the world alone costs in codec
    // and crypto counts (the shared topology signs a collection even for
    // drivers that never serve it). run.py subtracts it per trial.
    harness::ScenarioParams zero = w.params;
    zero.seed = args.seeds.front();
    zero.sim_limit_s = 0.0;
    Line("build").raw("counters", counters_json(w, run_one(driver, zero))).print();

    double last_pair_s = 0.0;
    for (size_t i = 0;
         i == 0 || seconds_since(start) + last_pair_s <= args.seconds; ++i) {
      const auto pair_start = Clock::now();
      const uint64_t seed = args.seeds[i % args.seeds.size()];
      harness::ScenarioParams p = w.params;
      p.seed = seed;
      const Run plain = run_one(driver, p);
      p.trace.sink = kCountingSink;
      g_counts = TraceCounts{};
      const Run traced = run_one(driver, p);
      if (!g_counts.captured) throw std::runtime_error("trace sink never flushed");
      const auto& c = g_counts.by_type;
      const uint64_t scheduled = c[static_cast<size_t>(trace::EventType::kSchedSchedule)];
      if (i == 0 && scheduled > 0) {
        cancel_ratio = static_cast<double>(
                           c[static_cast<size_t>(trace::EventType::kSchedCancel)]) /
                       static_cast<double>(scheduled);
      }
      print_trial(w, seed, static_cast<int>(i / args.seeds.size()), plain,
                  &traced, &g_counts);
      last_pair_s = seconds_since(pair_start);
    }

    const Kernels k = run_kernels(w, args.seeds.front(), cancel_ratio);
    Line("kernels")
        .num("sched_ns_per_op", k.sched_ns_per_op)
        .num("sched_ns_per_event", k.sched_ns_per_event)
        .num("interest_decode_ns", k.interest_decode_ns)
        .num("data_decode_ns", k.data_decode_ns)
        .num("encode_ns", k.encode_ns)
        .num("tables_ns_per_op", k.tables_ns_per_op)
        .num("verify_ns", k.verify_ns)
        .num("verify_cached_ns", k.verify_cached_ns)
        .print();
  }
  Line("process").u64("peak_rss_kb", peak_rss_kb()).print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
