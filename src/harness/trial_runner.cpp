#include "harness/trial_runner.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "common/rng.hpp"

namespace dapes::harness {

TrialRunner::TrialRunner(int jobs) : jobs_(jobs) {
  if (jobs_ <= 0) {
    jobs_ = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs_ <= 0) jobs_ = 1;
  }
}

void TrialRunner::for_each_index(size_t n,
                                 const std::function<void(size_t)>& fn) const {
  if (n == 0) return;
  const size_t workers =
      std::min(static_cast<size_t>(jobs_), n);
  if (workers <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto worker = [&] {
    // Stop picking up work once any task has thrown: a failing sweep
    // should surface the error, not burn hours finishing doomed trials.
    while (!failed.load(std::memory_order_relaxed)) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::vector<TrialResult> TrialRunner::run(const ProtocolDriver& driver,
                                          const ScenarioParams& params,
                                          int trials) const {
  if (trials <= 0) return {};
  std::vector<TrialResult> results(static_cast<size_t>(trials));
  for_each_index(static_cast<size_t>(trials), [&](size_t i) {
    ScenarioParams p = params;
    p.seed = common::derive_seed(params.seed, i);
    // Per-trial trace file: suffix by trial index only, so concurrent
    // trials never share a file and names are independent of --jobs.
    p.trace = trace::with_path_suffix(p.trace, ".t" + std::to_string(i));
    results[i] = driver.run_trial(p);
  });
  return results;
}

std::vector<TrialResult> TrialRunner::run(const std::string& driver_name,
                                          const ScenarioParams& params,
                                          int trials) const {
  return run(ProtocolDriverRegistry::instance().get(driver_name), params,
             trials);
}

}  // namespace dapes::harness
