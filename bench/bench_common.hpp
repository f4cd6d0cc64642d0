// Shared command-line handling for the figure/table benches.
//
// Every bench accepts:
//   --trials N           trials per configuration (default 2; paper used 10)
//   --quick              smaller workload + fewer configurations (CI-speed)
//   --paper-scale        run at the paper's full collection size and data rate
//   --seed S             base RNG seed
//   --jobs N             worker threads for the trial fan-out (default: all
//                        hardware threads; results are identical for any N)
//   --no-wall            omit wall-clock metrics from the output, leaving
//                        only deterministic ones (for byte-for-byte diffs)
//   --trace SINK[:PATH]  structured event tracing: SINK is ring, file or
//                        null; PATH is where the binary trace goes
//                        (required for file, optional for ring). Runners
//                        suffix PATH per cell/trial (".c<cell>.t<trial>"),
//                        so traced sweeps compose with --jobs. Off by
//                        default; trace content is bit-identical for any
//                        --jobs value.
//   --format text|csv|json   output format (default text)
//   --out FILE           write output to FILE instead of stdout
//
// Flags also accept the --flag=value spelling. Unknown flags and malformed
// values are rejected with exit code 2. A bad --out path or a failed sweep
// prints one line to stderr and exits 1.
//
// The default configuration is the scaled setup described in
// EXPERIMENTS.md: collection size and radio rate both divided by 8, which
// preserves the airtime/contact-time ratio that shapes every figure.
#pragma once

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "trace/record.hpp"
#include "trace/sinks.hpp"

namespace dapes::bench {

struct BenchArgs {
  int trials = 2;
  bool quick = false;
  bool paper_scale = false;
  uint64_t seed = 1;
  int jobs = 0;           // 0 = all hardware threads
  bool no_wall = false;   // drop wall-clock metrics (determinism diffs)
  trace::TraceConfig trace;  // --trace; empty sink = tracing off
  harness::OutputFormat format = harness::OutputFormat::kText;
  std::string out;  // empty = stdout

  static void usage(const char* prog, std::FILE* to) {
    std::fprintf(to,
                 "usage: %s [--trials N] [--quick] [--paper-scale] [--seed S]\n"
                 "       %*s [--jobs N] [--no-wall]\n"
                 "       %*s [--trace SINK[:PATH]]\n"
                 "       %*s [--format text|csv|json] [--out FILE]\n",
                 prog, static_cast<int>(std::strlen(prog)), "",
                 static_cast<int>(std::strlen(prog)), "",
                 static_cast<int>(std::strlen(prog)), "");
  }

  [[noreturn]] static void die(const char* prog, const std::string& message) {
    std::fprintf(stderr, "%s: %s\n", prog, message.c_str());
    usage(prog, stderr);
    std::exit(2);
  }

  static BenchArgs parse(int argc, char** argv) {
    const char* prog = argc > 0 ? argv[0] : "bench";
    BenchArgs args;

    // Accepts --flag value and --flag=value; rejects anything unknown.
    int i = 1;
    auto value_of = [&](const char* flag,
                        const char* inline_value) -> std::string {
      if (inline_value != nullptr) return inline_value;
      if (i + 1 >= argc) die(prog, std::string(flag) + " requires a value");
      return argv[++i];
    };
    auto parse_int = [&](const char* flag, const std::string& v, long min_v) {
      char* end = nullptr;
      errno = 0;
      long n = std::strtol(v.c_str(), &end, 10);
      if (errno != 0 || end == v.c_str() || *end != '\0' || n < min_v ||
          n > INT_MAX) {
        die(prog, std::string(flag) + ": invalid value \"" + v + "\"");
      }
      return n;
    };

    for (; i < argc; ++i) {
      std::string flag = argv[i];
      const char* inline_value = nullptr;
      size_t eq = flag.find('=');
      if (eq != std::string::npos) {
        inline_value = argv[i] + eq + 1;
        flag.resize(eq);
      }

      if (flag == "--trials") {
        args.trials = static_cast<int>(
            parse_int("--trials", value_of("--trials", inline_value), 1));
      } else if (flag == "--quick") {
        args.quick = true;
      } else if (flag == "--paper-scale") {
        args.paper_scale = true;
      } else if (flag == "--seed") {
        std::string v = value_of("--seed", inline_value);
        char* end = nullptr;
        errno = 0;
        uint64_t s = std::strtoull(v.c_str(), &end, 10);
        if (errno != 0 || end == v.c_str() || *end != '\0') {
          die(prog, "--seed: invalid value \"" + v + "\"");
        }
        args.seed = s;
      } else if (flag == "--jobs") {
        args.jobs = static_cast<int>(
            parse_int("--jobs", value_of("--jobs", inline_value), 1));
      } else if (flag == "--no-wall") {
        args.no_wall = true;
      } else if (flag == "--trace") {
        std::string v = value_of("--trace", inline_value);
        size_t colon = v.find(':');
        args.trace.sink = v.substr(0, colon);
        if (colon != std::string::npos) args.trace.path = v.substr(colon + 1);
        if (args.trace.sink.empty()) {
          die(prog, "--trace: expected SINK[:PATH], got \"" + v + "\"");
        }
        const auto known = trace::TraceSinkRegistry::instance().names();
        if (std::find(known.begin(), known.end(), args.trace.sink) ==
            known.end()) {
          std::string list;
          for (const auto& n : known) {
            if (!list.empty()) list += '|';
            list += n;
          }
          die(prog, "--trace: unknown sink \"" + args.trace.sink +
                        "\" (expected " + list + ")");
        }
      } else if (flag == "--format") {
        std::string v = value_of("--format", inline_value);
        auto f = harness::parse_output_format(v);
        if (!f) die(prog, "--format: expected text|csv|json, got \"" + v + "\"");
        args.format = *f;
      } else if (flag == "--out") {
        args.out = value_of("--out", inline_value);
      } else if (flag == "--help") {
        usage(prog, stdout);
        std::exit(0);
      } else {
        die(prog, "unknown flag \"" + std::string(argv[i]) + "\"");
      }
    }
    return args;
  }

  /// Baseline scenario with scaling applied.
  harness::ScenarioParams scenario() const {
    harness::ScenarioParams p;
    p.seed = seed;
    p.trace = trace;
    if (paper_scale) {
      p.file_size_bytes = 1024 * 1024;
      p.data_rate_bps = 11e6;
    }
    if (quick) {
      p.file_size_bytes = 32 * 1024;
      p.sim_limit_s = 600.0;
    }
    return p;
  }

  /// WiFi ranges to sweep (paper: 20..100 m).
  std::vector<double> ranges() const {
    if (quick) return {40.0, 80.0};
    return {20.0, 40.0, 60.0, 80.0, 100.0};
  }

  /// The usual x axis: WiFi range.
  harness::SweepAxis range_axis() const {
    harness::SweepAxis axis;
    axis.values = ranges();
    return axis;
  }

  /// Run the sweep (trials and parallelism from the flags) and emit it to
  /// --out in --format. The bench's exit code.
  int run(harness::SweepSpec spec) const {
    spec.trials = trials;
    // Open the sink first: a bad --out path should fail before the sweep
    // burns minutes of trials.
    std::FILE* f = stdout;
    if (!out.empty()) {
      f = std::fopen(out.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open --out file %s\n", out.c_str());
        return 1;
      }
    }
    int code = 0;
    try {
      harness::SweepResult result =
          harness::run_sweep(spec, harness::TrialRunner(jobs));
      harness::write_sweep(result, format, f);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sweep failed: %s\n", e.what());
      code = 1;
    }
    if (f != stdout) std::fclose(f);
    return code;
  }
};

}  // namespace dapes::bench
