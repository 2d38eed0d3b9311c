#include "runtime/runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "runtime/executor.h"

namespace vifi::runtime {

Runner::Runner(RunnerOptions options) : threads_(options.threads) {
  if (threads_ <= 0)
    threads_ = static_cast<int>(std::thread::hardware_concurrency());
  if (threads_ <= 0) threads_ = 1;
}

ResultSink Runner::run_indexed(std::size_t n, const IndexFn& fn) const {
  ResultSink sink;
  std::atomic<std::size_t> cursor{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      PointResult result;
      try {
        result = fn(i);
      } catch (const std::exception& e) {
        // A failed point is recorded, not fatal: the rest of the sweep is
        // still useful, and the error string is part of the (deterministic)
        // serialised output.
        result = PointResult{};
        result.index = i;
        result.error = e.what();
      }
      sink.add(std::move(result));
    }
  };

  const int pool = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(threads_), n));
  if (pool <= 1) {
    worker();
    return sink;
  }
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(pool));
  for (int t = 0; t < pool; ++t) workers.emplace_back(worker);
  for (auto& w : workers) w.join();
  return sink;
}

ResultSink Runner::run(const std::vector<ExperimentPoint>& points,
                       const PointFn& fn) const {
  return run_indexed(points.size(), [&](std::size_t i) {
    try {
      return fn(points[i]);
    } catch (const std::exception& e) {
      // Keep the point's identity columns in the serialised error row —
      // a bare index is useless for telling which grid point failed.
      // (run_indexed's own catch remains the backstop for failures
      // outside a known point.)
      PointResult r = identity_of(points[i]);
      r.error = e.what();
      return r;
    }
  });
}

ResultSink Runner::run(const ExperimentSpec& spec) const {
  const std::vector<ExperimentPoint> points = spec.enumerate();
  const int at_once = static_cast<int>(std::clamp<std::size_t>(
      points.size(), 1, static_cast<std::size_t>(threads_)));
  const Runner trips({.threads = threads_ / at_once});
  return Runner({.threads = at_once})
      .run(points, [&trips](const ExperimentPoint& p) {
        return run_point_sharded(p, trips);
      });
}

}  // namespace vifi::runtime
