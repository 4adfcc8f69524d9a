// Open-loop load generator with a schedule fixed before the run.
//
// Every operation has a due time relative to the start of the run. A
// pool of worker threads takes operations in due order, waits until the
// operation is due, runs it, and records its latency from the due time,
// not from when it actually started. A stall therefore shows in the
// latency of every operation queued behind it instead of silently
// lowering the offered rate (coordinated omission). How late operations
// started is reported as the scheduling lag.

#ifndef AUBENCH_OPEN_LOOP_H_
#define AUBENCH_OPEN_LOOP_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace aubench {

struct Op {
  int64_t due_us = 0;
  char kind = 'q';       // 'q' = search, 'a' = durable append
  char collection = 'S';  // search: which input collection the query is from
  uint32_t index = 0;     // record (search) or append-text (append) index
};

struct OpResult {
  double latency_ms = 0.0;  // completion minus due time
  double lag_ms = 0.0;      // start minus due time
  bool ok = false;
};

// Runs `ops` (sorted by due time) on `workers` threads; `run(i)` executes
// op i and returns whether its output check passed. Results are indexed
// like `ops`.
inline std::vector<OpResult> RunOpenLoop(
    const std::vector<Op>& ops, int workers,
    const std::function<bool(size_t)>& run) {
  std::vector<OpResult> results(ops.size());
  std::atomic<size_t> next{0};
  // Workers sleep until shortly before the due time and yield in a loop
  // for the rest. Waking a sleeping thread on a shared VM takes a
  // varying part of a millisecond, which is the load generator's delay,
  // not the program's, and swung the median of millisecond-scale
  // requests between runs. Only the last millisecond is spent that way,
  // so idle workers do not keep vCPUs busy beside the ones serving.
  const auto spin = std::chrono::milliseconds(1);
  // A short lead so every worker is parked before the first due time.
  const auto start = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(20);
  auto worker = [&] {
    for (;;) {
      size_t i = next.fetch_add(1);
      if (i >= ops.size()) return;
      auto due = start + std::chrono::microseconds(ops[i].due_us);
      std::this_thread::sleep_until(due - spin);
      while (std::chrono::steady_clock::now() < due) std::this_thread::yield();
      auto begin = std::chrono::steady_clock::now();
      bool ok = run(i);
      auto end = std::chrono::steady_clock::now();
      results[i].ok = ok;
      results[i].latency_ms =
          std::chrono::duration<double, std::milli>(end - due).count();
      results[i].lag_ms = std::max(
          0.0, std::chrono::duration<double, std::milli>(begin - due).count());
    }
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  return results;
}

// Runs the first `count` ops back to back (every one due at once) on
// `workers` threads, before the timed loop. The first requests of a
// fresh process run several times slower than later ones, a transient
// that would otherwise decide the tail of a 20-second run.
inline std::vector<OpResult> RunWarmUp(const std::vector<Op>& ops, size_t count, int workers,
                                       const std::function<bool(size_t)>& run) {
  std::vector<Op> warm(ops.begin(), ops.begin() + static_cast<std::ptrdiff_t>(
                                                       std::min(count, ops.size())));
  for (Op& op : warm) op.due_us = 0;
  return RunOpenLoop(warm, workers, run);
}

// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace aubench

#endif  // AUBENCH_OPEN_LOOP_H_
