// The untraced runs: each workload drives its real surface with no
// tracing, times requests from outside, and checks every record
// against the reference outcome after the measured window closes.
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "daemon/daemon.hpp"
#include "harness/bench.hpp"
#include "harness/loadgen.hpp"
#include "service/batch.hpp"
#include "util/check.hpp"

namespace nat::e2e {

namespace {

/// Longest wait for outstanding records once sending has stopped.
constexpr double kDrainTimeoutMs = 120'000.0;

/// Diagnostics kept per run (the count is always exact).
constexpr std::size_t kMaxFailures = 8;

/// A small laminar solve each tenant runs once during set-up.
std::string warmup_line(int t) {
  return "{\"op\":\"solve\",\"tenant\":\"" + tenant_name(t) +
         "\",\"id\":\"warmup\",\"g\":2,\"jobs\":[[0,8,3],[1,3,1],[4,7,2]]}";
}

struct Received {
  double at_ms = 0.0;
  std::string record;
};

/// Collects daemon records in arrival order, stamped on arrival.
class Inbox {
 public:
  explicit Inbox(Clock& clock) : clock_(clock) {}
  Inbox(const Inbox&) = delete;
  Inbox& operator=(const Inbox&) = delete;

  daemon::RecordSink sink() {
    return [this](const std::string& record) {
      const double t = clock_.now_ms();
      std::lock_guard<std::mutex> lk(mu_);
      items_.push_back({t, record});
      cv_.notify_all();
    };
  }

  /// Waits until `n` records arrived; false on timeout.
  bool wait_for(std::size_t n, double timeout_ms) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk,
                        std::chrono::duration<double, std::milli>(timeout_ms),
                        [&] { return items_.size() >= n; });
  }

  std::vector<Received> take() {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<Received> out = std::move(items_);
    items_.clear();
    return out;
  }

 private:
  Clock& clock_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Received> items_;
};

/// Per-tenant mailboxes: a closed-loop client has one request in
/// flight, so the next record addressed to its tenant is its answer.
class Mailboxes {
 public:
  Mailboxes(Clock& clock, int tenants)
      : clock_(clock), boxes_(static_cast<std::size_t>(tenants)) {}
  Mailboxes(const Mailboxes&) = delete;
  Mailboxes& operator=(const Mailboxes&) = delete;

  daemon::RecordSink sink() {
    return [this](const std::string& record) {
      const double t = clock_.now_ms();
      Box& box = boxes_.at(tenant_of(record));
      std::lock_guard<std::mutex> lk(box.mu);
      box.items.push_back({t, record});
      box.cv.notify_all();
    };
  }

  /// Next record for tenant `t`; an empty record on timeout.
  Received pop(int t, double timeout_ms) {
    Box& box = boxes_.at(static_cast<std::size_t>(t));
    std::unique_lock<std::mutex> lk(box.mu);
    if (!box.cv.wait_for(lk,
                         std::chrono::duration<double, std::milli>(timeout_ms),
                         [&] { return !box.items.empty(); })) {
      return {};
    }
    Received r = std::move(box.items.front());
    box.items.pop_front();
    return r;
  }

 private:
  struct Box {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Received> items;
  };

  /// Tenant index from the record's "tenant":"t<k>" field, without a
  /// full parse on the daemon's emit path.
  static std::size_t tenant_of(const std::string& record) {
    static const std::string key = "\"tenant\":\"t";
    const std::size_t at = record.find(key);
    NAT_CHECK_MSG(at != std::string::npos, "record without tenant: " << record);
    return static_cast<std::size_t>(
        std::stoul(record.substr(at + key.size(), 8)));
  }

  Clock& clock_;
  std::deque<Box> boxes_;
};

double record_number(const obs::Json& j, const char* key, double missing) {
  const obs::Json* f = j.find(key);
  return f != nullptr && f->is_number() ? f->as_double() : missing;
}

std::string record_text(const obs::Json& j, const char* key) {
  const obs::Json* f = j.find(key);
  return f != nullptr && f->type() == obs::Json::Type::kString ? f->as_string()
                                                               : "";
}

/// Records one failed line (the count is exact; text is capped).
void fail(SurfaceRun& run, const std::string& what) {
  ++run.failed;
  if (run.failures.size() < kMaxFailures) run.failures.push_back(what);
}

/// Mean ALG / LP over the healthy lines.
double alg_over_lp(const std::vector<const Line*>& lines) {
  double sum = 0.0;
  int n = 0;
  for (const Line* line : lines) {
    const Expected& e = line->expect;
    if (e.status != "solved" || e.lp_value <= 0.0) continue;
    sum += static_cast<double>(e.active_slots) / e.lp_value;
    ++n;
  }
  return n == 0 ? 1.0 : sum / n;
}

}  // namespace

SurfaceRun run_daemon_mixed(const DaemonMixedInput& input, const Config& cfg) {
  SurfaceRun run;
  SteadyClock clock;
  Inbox inbox(clock);  // outlives the daemon, whose sink points here
  daemon::DaemonOptions options;
  options.threads = kDaemonThreads;
  options.batch.robust = true;
  options.sink = inbox.sink();

  // Set-up: daemon and pool construction, tenant configuration, and a
  // warm-up solve per tenant. Timed setup_reps times; the last daemon
  // serves the measured window.
  std::unique_ptr<daemon::Daemon> d;
  const std::size_t setup_lines = 2 * static_cast<std::size_t>(kTenants);
  for (int rep = 0; rep < cfg.setup_reps; ++rep) {
    d.reset();
    inbox.take();
    const double t0 = clock.now_ms();
    d = std::make_unique<daemon::Daemon>(options);
    // Stateless solves may run on any free worker: a tenant's heavy
    // request does not hold up its next one.
    for (int t = 0; t < kTenants; ++t) {
      d->submit_line(tenant_line(t, static_cast<int>(kDaemonThreads)));
    }
    for (int t = 0; t < kTenants; ++t) d->submit_line(warmup_line(t));
    const bool ok = inbox.wait_for(setup_lines, kDrainTimeoutMs);
    run.setup_s.push_back((clock.now_ms() - t0) / 1e3);
    for (const Received& r : inbox.take()) {
      const std::string status =
          record_text(obs::Json::parse(r.record), "status");
      if (status != "ok" && status != "solved") {
        fail(run, "set-up: " + r.record);
      }
    }
    if (!ok) fail(run, "set-up records missing");
  }

  const std::size_t n = input.lines.size();
  const double cpu0 = process_cpu_s();
  const double start = clock.now_ms();
  std::vector<double> due(n);
  for (std::size_t i = 0; i < n; ++i) due[i] = start + input.due_ms[i];
  const OpenLoopTrace trace = run_open_loop(
      clock, due, [&](std::size_t i) { d->submit_line(input.lines[i].text); });
  const bool drained = inbox.wait_for(n, kDrainTimeoutMs);
  std::vector<Received> got = inbox.take();
  run.cpu_s = process_cpu_s() - cpu0;
  const double end = got.empty() ? clock.now_ms() : got.back().at_ms;
  run.elapsed_s = (end - start) / 1e3;
  run.attempted = static_cast<std::int64_t>(n);
  run.completed = static_cast<std::int64_t>(got.size());
  run.late_ms = trace.late_ms;
  run.offered_rps =
      n > 1 ? 1e3 * static_cast<double>(n - 1) /
                  std::max(1e-9, trace.sent_ms.back() - trace.sent_ms.front())
            : 0.0;
  if (!drained) fail(run, "records missing after the drain timeout");

  // Every line must get exactly one record, and it must be the
  // expected one. The daemon numbers every submitted line, set-up lines
  // included, so line i carries index setup_lines + i.
  std::vector<int> seen(n, 0);
  std::vector<char> bad(n, 0);
  run.latency_ms.assign(n, std::numeric_limits<double>::infinity());
  for (const Received& r : got) {
    const obs::Json j = obs::Json::parse(r.record);
    const double index = record_number(j, "index", -1.0) -
                         static_cast<double>(setup_lines);
    if (index < 0 || index >= static_cast<double>(n)) {
      fail(run, "record for no line: " + r.record);
      continue;
    }
    const auto i = static_cast<std::size_t>(index);
    ++seen[i];
    const std::string why = check_record(j, input.lines[i].expect);
    if (!why.empty()) {
      bad[i] = 1;
      fail(run, "line " + std::to_string(i) + " (" + input.lines[i].family +
                    "): " + why);
      continue;
    }
    run.latency_ms[i] = r.at_ms - due[i];
    if (record_text(j, "failure_class") == "admission:rejected") ++run.rejected;
    const double queue = record_number(j, "queue_ms", -1.0);
    if (queue >= 0.0) run.queue_ms.push_back(queue);
    const double wall = record_number(j, "wall_ms", -1.0);
    if (wall >= 0.0) {
      run.envelope_ms.push_back(r.at_ms - trace.sent_ms[i] - wall);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (seen[i] != 1 && !bad[i]) {
      run.latency_ms[i] = std::numeric_limits<double>::infinity();
      fail(run, "line " + std::to_string(i) + ": " + std::to_string(seen[i]) +
                    " records");
    }
  }

  std::vector<const Line*> lines;
  for (const Line& line : input.lines) lines.push_back(&line);
  run.alg_over_lp = alg_over_lp(lines);
  return run;
}

SurfaceRun run_batch_large(const BatchLargeInput& input, const Config& cfg) {
  SurfaceRun run;
  SteadyClock clock;
  service::BatchOptions options;
  options.threads = kBatchThreads;

  // Set-up: what one solve_batch call pays besides its cells — pool
  // construction, first dispatch, teardown — on one tiny cell per worker.
  std::vector<service::BatchItem> warm(
      kBatchThreads,
      service::BatchItem{"warmup", "{\"g\":2,\"jobs\":[[0,8,3],[1,3,1]]}",
                         service::BatchItem::Format::kJson});
  for (int rep = 0; rep < cfg.setup_reps; ++rep) {
    const double t0 = clock.now_ms();
    const service::BatchReport report = service::solve_batch(warm, options);
    run.setup_s.push_back((clock.now_ms() - t0) / 1e3);
    if (report.solved != static_cast<int>(warm.size())) {
      fail(run, "set-up batch did not solve");
    }
  }

  // The calls cycle through the unique cells in a fixed order.
  const std::size_t per_call =
      static_cast<std::size_t>(std::max(1, cfg.batch_cells_per_call));
  NAT_CHECK_MSG(input.cells.size() % per_call == 0,
                "batch cells must fill whole calls");
  std::vector<std::vector<service::BatchItem>> calls;
  for (std::size_t k = 0; k < input.cells.size(); ++k) {
    if (k % per_call == 0) calls.emplace_back();
    calls.back().push_back(service::BatchItem{
        "c" + std::to_string(k), input.cells[k].text,
        service::BatchItem::Format::kJson});
  }

  struct Done {
    std::size_t cell = 0;
    double latency_ms = 0.0;
    std::string record;
  };
  std::vector<Done> done;
  const double cpu0 = process_cpu_s();
  const double start = clock.now_ms();
  const double deadline = start + cfg.seconds * 1e3;
  std::size_t call_no = 0;
  while (call_no == 0 || clock.now_ms() < deadline) {
    const std::size_t c = call_no++ % calls.size();
    const std::size_t first = c * per_call;
    const double t0 = clock.now_ms();
    std::size_t records = 0;
    const service::BatchReport report = service::solve_batch(
        calls[c], options, [&](const service::CellResult& cell) {
          std::string record = service::cell_to_json(cell);
          done.push_back({first + static_cast<std::size_t>(cell.index),
                          clock.now_ms() - t0, std::move(record)});
          ++records;
        });
    run.attempted += static_cast<std::int64_t>(calls[c].size());
    if (records != calls[c].size() || report.cells.size() != calls[c].size()) {
      fail(run, "call " + std::to_string(call_no) + ": " +
                    std::to_string(records) + " records for " +
                    std::to_string(calls[c].size()) + " cells");
    }
  }
  const double end = clock.now_ms();
  run.cpu_s = process_cpu_s() - cpu0;
  run.elapsed_s = (end - start) / 1e3;
  run.completed = static_cast<std::int64_t>(done.size());

  for (const Done& d : done) {
    const obs::Json j = obs::Json::parse(d.record);
    const Line& cell = input.cells[d.cell];
    std::string why = check_record(j, cell.expect);
    if (why.empty() && record_text(j, "id") != "c" + std::to_string(d.cell)) {
      why = "record id " + record_text(j, "id");
    }
    if (!why.empty()) {
      fail(run, "cell " + std::to_string(d.cell) + " (" + cell.family +
                    "): " + why);
    }
    run.latency_ms.push_back(why.empty()
                                 ? d.latency_ms
                                 : std::numeric_limits<double>::infinity());
  }

  std::vector<const Line*> lines;
  for (const Line& cell : input.cells) lines.push_back(&cell);
  run.alg_over_lp = alg_over_lp(lines);
  return run;
}

SurfaceRun run_session_deltas(const SessionDeltasInput& input,
                              const Config& cfg) {
  SurfaceRun run;
  SteadyClock clock;
  const int tenants = static_cast<int>(input.tenants.size());
  Mailboxes boxes(clock, tenants);  // outlives the daemon
  daemon::DaemonOptions options;
  options.threads = kSessionThreads;
  options.sink = boxes.sink();

  // Set-up: daemon and pool construction, tenant configuration, and
  // every tenant's session open (a full cold solve of its instance).
  std::unique_ptr<daemon::Daemon> d;
  for (int rep = 0; rep < cfg.setup_reps; ++rep) {
    d.reset();
    const double t0 = clock.now_ms();
    d = std::make_unique<daemon::Daemon>(options);
    // One op in flight per tenant keeps each session stream in order.
    for (int t = 0; t < tenants; ++t) d->submit_line(tenant_line(t, 1));
    for (int t = 0; t < tenants; ++t) {
      d->submit_line(input.tenants[static_cast<std::size_t>(t)].open.text);
    }
    std::vector<Received> opened;
    for (int t = 0; t < tenants; ++t) {
      const Received config = boxes.pop(t, kDrainTimeoutMs);
      opened.push_back(boxes.pop(t, kDrainTimeoutMs));
      if (config.record.empty() ||
          record_text(obs::Json::parse(config.record), "status") != "ok") {
        fail(run, "set-up: tenant line failed");
      }
    }
    run.setup_s.push_back((clock.now_ms() - t0) / 1e3);
    for (int t = 0; t < tenants; ++t) {
      const Received& r = opened[static_cast<std::size_t>(t)];
      const std::string why =
          r.record.empty()
              ? "no record"
              : check_record(obs::Json::parse(r.record),
                             input.tenants[static_cast<std::size_t>(t)]
                                 .open.expect);
      if (!why.empty()) fail(run, tenant_name(t) + " open: " + why);
    }
  }

  // Closed loop: each tenant sends its next delta once the previous
  // record arrived, cycling through its script until the window ends.
  // A client checks each record as it arrives, as a real client would
  // read its answer; only the outcome is kept, so memory stays flat
  // however many deltas a run completes.
  struct Done {
    std::size_t step = 0;
    double latency_ms = 0.0;
    double queue_ms = -1.0;
    double wall_ms = -1.0;
    std::string why;  // "" when the record was the expected one
  };
  std::vector<std::vector<Done>> done(static_cast<std::size_t>(tenants));
  std::vector<double> last_ms(static_cast<std::size_t>(tenants), 0.0);
  const double cpu0 = process_cpu_s();
  const double start = clock.now_ms();
  const double deadline = start + cfg.seconds * 1e3;
  {
    std::vector<std::jthread> clients;
    for (int t = 0; t < tenants; ++t) {
      clients.emplace_back([&, t] {
        const auto ti = static_cast<std::size_t>(t);
        const SessionScript& script = input.tenants[ti];
        std::vector<Done>& mine = done[ti];
        for (std::size_t k = 0; k == 0 || clock.now_ms() < deadline; ++k) {
          const Line& line = script.deltas[k % script.deltas.size()];
          Done entry;
          entry.step = k;
          const double sent = clock.now_ms();
          d->submit_line(line.text);
          const Received r = boxes.pop(t, kDrainTimeoutMs);
          if (r.record.empty()) {
            entry.why = "no record";
            mine.push_back(std::move(entry));
            break;
          }
          entry.latency_ms = r.at_ms - sent;
          last_ms[ti] = r.at_ms;
          const obs::Json j = obs::Json::parse(r.record);
          entry.why = check_record(j, line.expect);
          entry.queue_ms = record_number(j, "queue_ms", -1.0);
          entry.wall_ms = record_number(j, "wall_ms", -1.0);
          mine.push_back(std::move(entry));
        }
      });
    }
  }
  run.cpu_s = process_cpu_s() - cpu0;
  run.elapsed_s =
      (std::max(start, *std::max_element(last_ms.begin(), last_ms.end())) -
       start) / 1e3;

  std::vector<const Line*> period;
  for (int t = 0; t < tenants; ++t) {
    const SessionScript& script = input.tenants[static_cast<std::size_t>(t)];
    for (const Line& line : script.deltas) period.push_back(&line);
    for (const Done& entry : done[static_cast<std::size_t>(t)]) {
      ++run.attempted;
      if (!entry.why.empty()) {
        const Line& line = script.deltas[entry.step % script.deltas.size()];
        fail(run, tenant_name(t) + " step " + std::to_string(entry.step) +
                      " (" + line.family + "): " + entry.why);
        run.latency_ms.push_back(std::numeric_limits<double>::infinity());
        continue;
      }
      ++run.completed;
      run.latency_ms.push_back(entry.latency_ms);
      if (entry.queue_ms >= 0.0) run.queue_ms.push_back(entry.queue_ms);
      if (entry.wall_ms >= 0.0) {
        run.envelope_ms.push_back(entry.latency_ms - entry.wall_ms);
      }
    }
  }
  run.alg_over_lp = alg_over_lp(period);
  return run;
}

}  // namespace nat::e2e
