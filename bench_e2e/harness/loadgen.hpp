// Open-loop load generation with lateness accounting.
//
// An open-loop client sends request i at its due time no matter how
// the previous requests fared, so a stall in the system under test
// shows up as latency of every request due during the stall — latency
// is timed from the due time, not from the (possibly late) send. The
// generator also reports how late it ran: if sending itself falls
// behind (a slow submit call, a preempted generator thread), that
// lateness is measured instead of silently lowering the offered rate.
//
// The clock is an interface so the accounting can be tested against a
// fake clock whose time only moves when the test says so.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace nat::e2e {

class Clock {
 public:
  virtual ~Clock() = default;
  Clock() = default;
  Clock(const Clock&) = delete;
  Clock& operator=(const Clock&) = delete;

  /// Milliseconds since the clock's epoch.
  virtual double now_ms() = 0;
  /// Returns once now_ms() >= t (immediately if already past).
  virtual void sleep_until_ms(double t) = 0;
};

/// steady_clock, epoch at construction.
class SteadyClock final : public Clock {
 public:
  double now_ms() override {
    return std::chrono::duration<double, std::milli>(clock::now() - epoch_)
        .count();
  }
  // A plain sleep, no spinning: spin time would be charged to the
  // process CPU the benchmark reports. The wake-up overshoot is what
  // the lateness figures measure.
  void sleep_until_ms(double t) override {
    std::this_thread::sleep_until(
        epoch_ + std::chrono::duration_cast<clock::duration>(
                     std::chrono::duration<double, std::milli>(t)));
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point epoch_ = clock::now();
};

struct OpenLoopTrace {
  std::vector<double> sent_ms;  // when request i was actually sent
  std::vector<double> late_ms;  // sent_ms[i] - due_ms[i] (>= 0)
};

/// Sends request i (via `send(i)`) at due_ms[i], in order. `due_ms`
/// must be non-decreasing. One thread: a send that overruns delays the
/// following sends, and that delay is charged to their lateness.
inline OpenLoopTrace run_open_loop(
    Clock& clock, const std::vector<double>& due_ms,
    const std::function<void(std::size_t)>& send) {
  OpenLoopTrace trace;
  trace.sent_ms.reserve(due_ms.size());
  trace.late_ms.reserve(due_ms.size());
  for (std::size_t i = 0; i < due_ms.size(); ++i) {
    clock.sleep_until_ms(due_ms[i]);
    const double now = clock.now_ms();
    trace.sent_ms.push_back(now);
    trace.late_ms.push_back(now - due_ms[i]);
    send(i);
  }
  return trace;
}

}  // namespace nat::e2e
