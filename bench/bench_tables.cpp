// Table bench: hashed NameTree data plane vs the retained std::map
// reference, across a grid of table sizes × workload mixes.
//
// Series come in map/tree pairs that run *identical* op streams (same
// derived seed per cell, same name population), so the pair is also an
// equivalence check: each cell accumulates a checksum over every result
// it observes (find hits, LPM face sets, PIT match counts) and the bench
// fails if a map/tree pair ever disagrees — the committed baseline
// doubles as a proof the two data planes answer identically.
//
// Workloads:
//   exact   — CS/PIT exact-match probes against a fully populated store
//             (the forwarder's hottest path; the tracked speedup gate).
//   forward — a full forwarder hop mix: CS miss, PIT find+insert, FIB
//             lookup on the Interest path; matches_for_data, CS insert,
//             PIT erase on the Data path.
//   lpm     — pure FIB longest-prefix-match over deep names.
//
// BENCH_tables.json is the committed baseline (`--trials 1 --jobs 1
// --format json`); absolute timings are machine-dependent, the tracked
// quantity is the map : tree wall ratio per workload (>= 3x on exact at
// >= 64k entries).
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "harness/sweep.hpp"
#include "harness/trial_runner.hpp"
#include "ndn/name_tree.hpp"
#include "ndn/tables.hpp"
#include "oracles/tables_ref.hpp"

using namespace dapes;
using common::TimePoint;

namespace {

/// The NameTree data plane: one shared tree, as a Forwarder wires it.
struct TreeTables {
  std::shared_ptr<ndn::NameTree> tree = std::make_shared<ndn::NameTree>();
  ndn::ContentStore cs;
  ndn::Pit pit;
  ndn::Fib fib;
  explicit TreeTables(size_t cs_capacity)
      : cs(cs_capacity, tree), pit(tree), fib(tree) {}
};

/// The std::map reference data plane.
struct MapTables {
  ndn::ref::ContentStore cs;
  ndn::ref::Pit pit;
  ndn::ref::Fib fib;
  explicit MapTables(size_t cs_capacity) : cs(cs_capacity) {}
};

/// DAPES-shaped names: /collection-<c>/file-<f>/<seq>.
std::vector<ndn::Name> make_pool(size_t n, uint64_t salt) {
  std::vector<ndn::Name> pool;
  pool.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ndn::Name name;
    name.append("collection-" + std::to_string((i / 4096) ^ salt));
    name.append("file-" + std::to_string((i / 64) % 64));
    name.append_number(i % 64);
    pool.push_back(std::move(name));
  }
  return pool;
}

ndn::Data make_data(const ndn::Name& name) {
  ndn::Data d{name};
  d.set_content(common::Bytes(8, 0x5a));
  d.set_freshness(common::Duration::seconds(3600.0));
  return d;
}

struct CellResult {
  double wall_s = 0.0;
  double mops = 0.0;
  uint64_t checksum = 0;
};

/// One cell: build tables of size n, run the workload, checksum every
/// observable. Identical streams for both table sets (seeded rng).
template <typename Tables>
CellResult run_workload(const std::string& workload, size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<ndn::Name> pool = make_pool(n, seed % 7);
  Tables t(n);
  uint64_t checksum = 0;
  uint64_t ops = 0;
  const TimePoint now = TimePoint::zero();

  // Populate outside the timed region: the tracked ratio gates the op
  // mix each workload documents, not setup cost.
  if (workload == "exact") {
    for (const auto& name : pool) t.cs.insert(make_data(name), now);
    // PIT holds a quarter of the namespace, as a busy forwarder would.
    for (size_t i = 0; i < n; i += 4) {
      t.pit.insert(pool[i]).nonces.insert(static_cast<uint32_t>(i));
    }
  } else if (workload == "forward") {
    // Routes over the collection prefixes, as app registration leaves.
    for (size_t i = 0; i < n; i += 4096) {
      t.fib.add_route(pool[i].prefix(1), 1);
    }
  } else {  // lpm
    // Routes at every depth of the namespace tree.
    for (size_t i = 0; i < n; i += 64) {
      t.fib.add_route(pool[i].prefix(1 + (i / 64) % 3),
                      static_cast<ndn::FaceId>(1 + i % 3));
    }
  }

  const auto start = std::chrono::steady_clock::now();

  if (workload == "exact") {
    const size_t lookups = 4 * n;
    for (size_t i = 0; i < lookups; ++i) {
      const ndn::Name& name = pool[rng.next_below(n)];
      checksum += (t.cs.find(name, false, now) != nullptr);
      checksum += (t.pit.find(name) != nullptr);
      checksum += t.pit.has_nonce(name, static_cast<uint32_t>(i % 64));
      ops += 3;
    }
  } else if (workload == "forward") {
    const size_t hops = 2 * n;
    for (size_t i = 0; i < hops; ++i) {
      // Interest path: CS probe, PIT aggregate-or-insert, FIB lookup.
      const ndn::Name& want = pool[rng.next_below(n)];
      checksum += (t.cs.find(want, false, now) != nullptr);
      if (t.pit.find(want) == nullptr) {
        auto& e = t.pit.insert(want);
        e.nonces.insert(static_cast<uint32_t>(i));
        e.in_faces.push_back(1);
      }
      checksum += t.fib.lookup(want).size();
      // Data path: satisfy a (probably) pending name.
      const ndn::Name& got = pool[rng.next_below(n)];
      checksum += t.pit.matches_for_data(got).size();
      t.cs.insert(make_data(got), now);
      t.pit.erase(got);
      ops += 6;
    }
  } else {  // lpm
    const size_t lookups = 6 * n;
    for (size_t i = 0; i < lookups; ++i) {
      for (ndn::FaceId f : t.fib.lookup(pool[rng.next_below(n)])) {
        checksum += f;
      }
      ops += 1;
    }
  }

  const auto end = std::chrono::steady_clock::now();
  CellResult r;
  r.wall_s = std::chrono::duration<double>(end - start).count();
  r.mops = static_cast<double>(ops) / r.wall_s / 1e6;
  r.checksum = checksum;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);

  const std::vector<double> xs =
      args.quick ? std::vector<double>{1024, 16384}
                 : std::vector<double>{1024, 8192, 65536, 262144};
  const std::vector<std::string> workloads = {"exact", "forward", "lpm"};
  const std::vector<std::string> impls = {"map", "tree"};

  std::FILE* f = stdout;
  if (!args.out.empty()) {
    f = std::fopen(args.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open --out file %s\n", args.out.c_str());
      return 1;
    }
  }

  const size_t trials = static_cast<size_t>(args.trials);
  const size_t n_cells = impls.size() * workloads.size() * xs.size();
  std::vector<std::vector<CellResult>> raw(n_cells,
                                           std::vector<CellResult>(trials));

  // Single source of truth for the cell layout (the run loop, the
  // map/tree checksum gate, and the series emitter must all agree).
  auto cell_index = [&](size_t ii, size_t wi, size_t xi) {
    return (ii * workloads.size() + wi) * xs.size() + xi;
  };

  harness::TrialRunner runner(args.jobs);
  runner.for_each_index(n_cells * trials, [&](size_t task) {
    const size_t cell = task / trials;
    const size_t trial = task % trials;
    const size_t ii = cell / (workloads.size() * xs.size());
    const size_t wi = (cell / xs.size()) % workloads.size();
    const size_t xi = cell % xs.size();
    // Seeded by (workload, x, trial) only — the map and tree cells of a
    // pair run identical op streams.
    const uint64_t seed = common::derive_seed(
        common::derive_seed(common::derive_seed(args.seed, wi), xi), trial);
    const size_t n = static_cast<size_t>(xs[xi]);
    raw[cell][trial] = (impls[ii] == "map")
                           ? run_workload<MapTables>(workloads[wi], n, seed)
                           : run_workload<TreeTables>(workloads[wi], n, seed);
  });

  // Equivalence gate: every map/tree pair must have seen identical
  // results, or the timing comparison is meaningless.
  bool mismatch = false;
  for (size_t wi = 0; wi < workloads.size(); ++wi) {
    for (size_t xi = 0; xi < xs.size(); ++xi) {
      for (size_t trial = 0; trial < trials; ++trial) {
        const size_t map_cell = cell_index(0, wi, xi);
        const size_t tree_cell = cell_index(1, wi, xi);
        if (raw[map_cell][trial].checksum != raw[tree_cell][trial].checksum) {
          std::fprintf(stderr,
                       "checksum mismatch: %s n=%zu trial=%zu map=%llu "
                       "tree=%llu\n",
                       workloads[wi].c_str(), static_cast<size_t>(xs[xi]),
                       trial,
                       static_cast<unsigned long long>(
                           raw[map_cell][trial].checksum),
                       static_cast<unsigned long long>(
                           raw[tree_cell][trial].checksum));
          mismatch = true;
        }
      }
    }
  }
  if (mismatch) {
    if (f != stdout) std::fclose(f);
    return 1;
  }

  harness::SweepResult result;
  result.title = "tables: std::map vs hashed NameTree data plane";
  result.x_label = "entries";
  result.y_unit = "seconds";
  result.xs = xs;
  for (const auto& impl : impls) {
    for (const auto& w : workloads) {
      result.series_labels.push_back(impl + "+" + w);
    }
  }
  result.metric_labels = {"wall_s", "mops"};
  result.values.resize(result.metric_labels.size());
  for (size_t m = 0; m < result.metric_labels.size(); ++m) {
    result.values[m].resize(result.series_labels.size());
    for (size_t si = 0; si < result.series_labels.size(); ++si) {
      result.values[m][si].resize(xs.size());
      for (size_t xi = 0; xi < xs.size(); ++xi) {
        // si enumerates impls-outer × workloads-inner, matching the
        // series_labels push order above.
        const size_t cell =
            cell_index(si / workloads.size(), si % workloads.size(), xi);
        double best = 0.0;  // min wall / max mops across trials
        for (size_t trial = 0; trial < trials; ++trial) {
          const CellResult& r = raw[cell][trial];
          const double v = (m == 0) ? r.wall_s : r.mops;
          if (trial == 0 || (m == 0 ? v < best : v > best)) best = v;
        }
        result.values[m][si][xi] = best;
      }
    }
  }

  harness::write_sweep(result, args.format, f);
  if (f != stdout) std::fclose(f);
  return 0;
}
