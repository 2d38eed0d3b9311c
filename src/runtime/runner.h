#pragma once

/// \file runner.h
/// Shards a sweep's points across a worker thread pool. Workers claim whole
/// points from an atomic cursor; the point function builds its own
/// Simulator, Testbed and Rng streams from the point's derived seeds, and
/// the only state points share is a write-once replay campaign that is the
/// same whoever generates it. So the result *set* is independent of the
/// sharding, and the sink restores grid order before serialising. Net
/// effect: byte-identical output for any thread count.

#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/experiment.h"
#include "runtime/result.h"

namespace vifi::runtime {

struct RunnerOptions {
  /// Worker threads; 0 or negative means std::thread::hardware_concurrency().
  int threads = 1;
};

class Runner {
 public:
  explicit Runner(RunnerOptions options = {});

  using PointFn = std::function<PointResult(const ExperimentPoint&)>;
  using IndexFn = std::function<PointResult(std::size_t)>;

  /// Number of workers the pool will actually use.
  int threads() const { return threads_; }

  /// Runs every point of the spec through the built-in executor, splitting
  /// the pool itself: min(threads, points) points run at once, each through
  /// runtime::run_point_sharded on a pool of threads / that workers, so a
  /// grid wider than the pool parallelises across points and a narrower
  /// one across each point's trips. The bytes do not depend on the split.
  ResultSink run(const ExperimentSpec& spec) const;

  /// Runs explicit points through a custom point function. \p fn is called
  /// concurrently from several threads and must depend only on its point.
  ResultSink run(const std::vector<ExperimentPoint>& points,
                 const PointFn& fn) const;

  /// Lowest-level form for bench ports with bespoke sweep shapes: shards
  /// the indices [0, n) over the pool. \p fn must depend only on its index
  /// (plus shared *immutable* state) for thread-count invariance, and
  /// should set PointResult::index to the given index.
  ResultSink run_indexed(std::size_t n, const IndexFn& fn) const;

  /// Typed, order-preserving form of run_indexed: returns fn(i) for every i
  /// in [0, n), in index order. \p fn is called concurrently and must
  /// depend only on its index (plus shared immutable state). If any index
  /// throws, the call throws std::runtime_error("index I: <what>") for the
  /// lowest failing I once every index has run.
  template <class Fn,
            class R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>>
  std::vector<R> map(std::size_t n, Fn&& fn) const {
    std::vector<std::optional<R>> slots(n);
    const ResultSink sink = run_indexed(n, [&](std::size_t i) {
      slots[i].emplace(fn(i));
      PointResult status;
      status.index = i;
      return status;
    });
    for (const PointResult& status : sink.ordered())
      if (!status.error.empty())
        throw std::runtime_error("index " + std::to_string(status.index) +
                                 ": " + status.error);
    std::vector<R> out;
    out.reserve(n);
    for (auto& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

 private:
  int threads_;
};

}  // namespace vifi::runtime
