#include "daemon/daemon.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <utility>

#include "obs/counters.hpp"
#include "service/jsonl.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace nat::daemon {

namespace {

/// Shared skeleton of every daemon-originated record (solver records
/// come from cell_record/session_op_record instead and only get the
/// envelope overlaid).
obs::Json base_record(std::uint64_t seq, const std::string& tenant,
                      const std::string& op, const std::string& id) {
  obs::Json j = obs::Json::object();
  j["index"] = static_cast<std::int64_t>(seq);
  if (!id.empty()) j["id"] = id;
  if (!tenant.empty()) j["tenant"] = tenant;
  if (!op.empty()) j["op"] = op;
  return j;
}

obs::Json failure_record(std::uint64_t seq, const std::string& tenant,
                         const std::string& op, const std::string& id,
                         const char* status, const std::string& failure_class,
                         const std::string& error) {
  obs::Json j = base_record(seq, tenant, op, id);
  j["status"] = status;
  j["failure_class"] = failure_class;
  j["error"] = error;
  return j;
}

/// Nearest-rank percentile over a copy (the windows are small).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t idx = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  if (idx > 0) --idx;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

}  // namespace

/// One admitted request, owned by pending_ from admission until its
/// record has been emitted (shutdown finds the token here, and drain
/// cannot observe "idle" before the record is on the sink).
struct Daemon::Request {
  std::uint64_t seq = 0;
  std::string tenant;
  std::string op;
  std::string id;
  std::string line;
  util::CancelToken token;     // armed at enqueue: queue wait counts
  util::Stopwatch queue_sw;    // admission -> dispatch
};

struct Daemon::TenantState {
  std::mutex mu;  // serializes ops when max_in_flight > 1 / FIFO mode
  service::SessionManager sessions;
};

void Daemon::LatencyWindow::add(double ms) {
  constexpr std::size_t kCap = 4096;
  if (window.size() < kCap) {
    window.push_back(ms);
  } else {
    window[next] = ms;
    next = (next + 1) % kCap;
  }
  ++completed;
}

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)),
      pool_(options_.threads),
      fair_queue_(FairQueueOptions{options_.fifo, options_.tenant_defaults}) {
  paused_ = options_.start_paused;
  sink_ = options_.sink;
}

Daemon::~Daemon() {
  shutdown();
  drain();
  // drain() waits for the *requests*, not the worker loops: a loop can
  // still be between its last unlock and its final failed pick. Join
  // every pool task before the scheduler members are destroyed.
  try {
    pool_.wait_idle();
  } catch (...) {
  }
}

void Daemon::emit(const std::string& record) {
  std::lock_guard<std::mutex> lk(emit_mu_);
  if (!sink_) return;
  try {
    sink_(record);
  } catch (...) {
    // A sink failure (e.g. a broken pipe wrapper that throws) must not
    // unwind through the scheduler accounting; the record is dropped.
  }
}

void Daemon::emit(const obs::Json& record) { emit(record.dump()); }

void Daemon::set_sink(RecordSink sink) {
  std::lock_guard<std::mutex> lk(emit_mu_);
  sink_ = std::move(sink);
}

void Daemon::maybe_dispatch_locked(std::size_t slots) {
  if (paused_) return;
  const std::size_t width = pool_.thread_count();
  for (std::size_t i = 0; i < slots && active_workers_ < width; ++i) {
    ++active_workers_;
    pool_.submit([this] { worker_body(); });
  }
}

bool Daemon::submit_line(const std::string& line) {
  static obs::Counter& c_requests = obs::counter("at.daemon.requests");
  c_requests.add(1);

  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    seq = seq_++;
    ++submitted_;
  }

  std::string tenant = "default";
  std::string op;
  std::string id;
  std::int64_t deadline_ms = options_.default_deadline_ms;
  bool explicit_deadline = false;
  obs::Json parsed;
  try {
    parsed = obs::Json::parse(line);
    NAT_CHECK_MSG(parsed.is_object(), "request line is not a JSON object");
    const obs::Json* opf = parsed.find("op");
    NAT_CHECK_MSG(opf != nullptr && opf->type() == obs::Json::Type::kString,
                  "request line: missing string \"op\"");
    op = opf->as_string();
    if (const obs::Json* t = parsed.find("tenant")) {
      NAT_CHECK_MSG(t->type() == obs::Json::Type::kString &&
                        !t->as_string().empty(),
                    "request line: \"tenant\" must be a non-empty string");
      tenant = t->as_string();
    }
    if (const obs::Json* i = parsed.find("id")) {
      NAT_CHECK_MSG(i->type() == obs::Json::Type::kString,
                    "request line: \"id\" must be a string");
      id = i->as_string();
    }
    if (const obs::Json* d = parsed.find("deadline_ms")) {
      NAT_CHECK_MSG(d->is_number(),
                    "request line: \"deadline_ms\" must be a number");
      deadline_ms = d->as_int();
      explicit_deadline = true;
    }
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++errors_;
    }
    emit(failure_record(seq, tenant, op, id, "error", "input:parse",
                        e.what()));
    return !draining();
  }

  // Inline ops are answered on the submitting thread.
  if (op == "tenant") {
    emit(handle_tenant_op(seq, tenant, parsed));
    return !draining();
  }
  if (op == "stats") {
    obs::Json j = stats_record();
    j["index"] = static_cast<std::int64_t>(seq);
    emit(j);
    return !draining();
  }
  if (op == "shutdown") {
    obs::Json j = base_record(seq, tenant, op, id);
    j["status"] = "ok";
    emit(j);
    shutdown();
    return false;
  }

  if (op != "solve" && op != "open" && op != "delta" && op != "close") {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++errors_;
    }
    emit(failure_record(seq, tenant, op, id, "error", "input:op",
                        "request line: unknown op \"" + op + "\""));
    return !draining();
  }

  auto request = std::make_unique<Request>();
  request->seq = seq;
  request->tenant = tenant;
  request->op = op;
  request->id = (id.empty() && op == "solve")
                    ? tenant + "-" + std::to_string(seq)
                    : id;
  request->line = line;
  // Armed before the token is shared with workers; an explicit
  // "deadline_ms" <= 0 means already expired (a default of 0 means no
  // deadline at all).
  if (explicit_deadline || deadline_ms > 0) {
    request->token.set_timeout_ms(deadline_ms);
  }

  static obs::Counter& c_rejects = obs::counter("at.daemon.admission_rejects");
  static obs::Gauge& g_queue = obs::gauge("at.daemon.queue_depth");
  std::unique_lock<std::mutex> lk(mu_);
  if (draining_) {
    ++rejected_;
    lk.unlock();
    emit(failure_record(seq, tenant, op, request->id, "rejected",
                        "daemon:draining", "daemon is shutting down"));
    return false;
  }
  if (!fair_queue_.try_enqueue(tenant, seq)) {
    ++rejected_;
    const TenantConfig config = fair_queue_.config(tenant);
    lk.unlock();
    c_rejects.add(1);
    emit(failure_record(
        seq, tenant, op, request->id, "rejected", "admission:rejected",
        "tenant \"" + tenant + "\" queue-depth cap (" +
            std::to_string(config.max_queue_depth) + ") reached"));
    return true;
  }
  ++admitted_;
  pending_.emplace(seq, std::move(request));
  g_queue.set(static_cast<double>(fair_queue_.queued()));
  maybe_dispatch_locked(1);
  return true;
}

obs::Json Daemon::handle_tenant_op(std::uint64_t seq, const std::string& tenant,
                                   const obs::Json& parsed) {
  obs::Json j = base_record(seq, tenant, "tenant", "");
  try {
    std::lock_guard<std::mutex> lk(mu_);
    TenantConfig config = fair_queue_.config(tenant);
    if (const obs::Json* w = parsed.find("weight")) {
      NAT_CHECK_MSG(w->is_number(), "tenant line: \"weight\" must be a number");
      config.weight = w->as_double();
    }
    if (const obs::Json* q = parsed.find("max_queue_depth")) {
      NAT_CHECK_MSG(q->is_number(),
                    "tenant line: \"max_queue_depth\" must be a number");
      config.max_queue_depth = service::narrow_int(
          q->as_int(), "tenant line: \"max_queue_depth\"");
    }
    if (const obs::Json* f = parsed.find("max_in_flight")) {
      NAT_CHECK_MSG(f->is_number(),
                    "tenant line: \"max_in_flight\" must be a number");
      config.max_in_flight = service::narrow_int(
          f->as_int(), "tenant line: \"max_in_flight\"");
    }
    fair_queue_.configure_tenant(tenant, config);  // validates ranges
    j["status"] = "ok";
    j["weight"] = config.weight;
    j["max_queue_depth"] = static_cast<std::int64_t>(config.max_queue_depth);
    j["max_in_flight"] = static_cast<std::int64_t>(config.max_in_flight);
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++errors_;
    }
    j["status"] = "error";
    j["failure_class"] = "input:validate";
    j["error"] = e.what();
  }
  return j;
}

void Daemon::worker_body() {
  static obs::Gauge& g_queue = obs::gauge("at.daemon.queue_depth");
  static obs::Gauge& g_in_flight = obs::gauge("at.daemon.in_flight");
  static obs::Gauge& g_lag = obs::gauge("at.daemon.vruntime_lag_ms");
  static obs::Counter& c_solved = obs::counter("at.daemon.solved");
  static obs::Counter& c_errors = obs::counter("at.daemon.errors");
  static obs::Counter& c_timeouts = obs::counter("at.daemon.timeouts");

  for (;;) {
    std::uint64_t ticket = 0;
    std::string tenant;
    std::unique_lock<std::mutex> lk(mu_);
    if (paused_ || !fair_queue_.pick(&ticket, &tenant)) {
      --active_workers_;
      return;
    }
    // The map node is stable: only this worker erases this ticket, and
    // it does so after the record is emitted.
    Request* request = pending_.at(ticket).get();
    ++in_flight_;
    g_queue.set(static_cast<double>(fair_queue_.queued()));
    g_in_flight.set(static_cast<double>(in_flight_));
    lk.unlock();

    Executed done = execute(*request);

    lk.lock();
    fair_queue_.charge(tenant, done.solve_ns);
    latencies_[tenant].add(done.total_ms);
    switch (done.status) {
      case service::CellStatus::kSolved:
        ++solved_;
        c_solved.add(1);
        break;
      case service::CellStatus::kTimeout:
        ++timeouts_;
        c_timeouts.add(1);
        break;
      default:
        ++errors_;
        c_errors.add(1);
        break;
    }
    g_lag.set(fair_queue_.vruntime_lag_ms());
    lk.unlock();

    emit(done.record);

    // Erase only after the record is on the sink, so drain() implies
    // every terminal record has been flushed.
    lk.lock();
    pending_.erase(ticket);
    --in_flight_;
    g_in_flight.set(static_cast<double>(in_flight_));
    if (pending_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    lk.unlock();
  }
}

Daemon::Executed Daemon::execute(Request& request) {
  const double queue_ms = request.queue_sw.millis();
  Executed done;
  obs::Json j;
  const util::Stopwatch solve_sw;
  if (request.token.cancelled()) {
    // Expired (or shutdown-cancelled) while queued: terminal record
    // without ever touching a solver.
    const bool explicit_cancel = request.token.cancel_requested();
    j = failure_record(request.seq, request.tenant, request.op, request.id,
                       "timeout", explicit_cancel ? "cancelled" : "timeout",
                       explicit_cancel
                           ? "cancelled while queued (daemon shutdown)"
                           : "deadline expired while queued");
    done.status = service::CellStatus::kTimeout;
  } else if (request.op == "solve") {
    service::BatchItem item;
    item.id = request.id;
    item.text = request.line;
    item.format = service::BatchItem::Format::kJson;
    const service::CellResult cell = service::solve_cell(
        item, static_cast<int>(request.seq), options_.batch, &request.token);
    j = service::cell_record(cell);
    j["tenant"] = request.tenant;
    j["op"] = request.op;
    done.status = cell.status;
  } else {
    TenantState& state = tenant_state(request.tenant);
    std::lock_guard<std::mutex> slk(state.mu);
    const service::SessionOpResult r = state.sessions.process_line(
        request.line, static_cast<int>(request.seq), &request.token);
    j = service::session_op_record(r);
    j["tenant"] = request.tenant;
    done.status = r.status;
  }
  done.solve_ns = solve_sw.nanos();
  const double solve_ms = static_cast<double>(done.solve_ns) / 1e6;
  j["queue_ms"] = queue_ms;
  j["solve_ms"] = solve_ms;
  j["wall_ms"] = queue_ms + solve_ms;
  if (request.token.deadline_armed()) {
    j["deadline_left_ms"] = static_cast<double>(request.token.remaining_ms());
  }
  done.total_ms = queue_ms + solve_ms;
  done.record = j.dump();
  return done;
}

Daemon::TenantState& Daemon::tenant_state(const std::string& tenant) {
  std::lock_guard<std::mutex> lk(mu_);
  std::unique_ptr<TenantState>& slot = tenant_state_[tenant];
  if (!slot) slot = std::make_unique<TenantState>();
  return *slot;
}

void Daemon::pause() {
  std::lock_guard<std::mutex> lk(mu_);
  paused_ = true;
}

void Daemon::resume() {
  std::lock_guard<std::mutex> lk(mu_);
  paused_ = false;
  maybe_dispatch_locked(pool_.thread_count());
}

void Daemon::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  paused_ = false;
  maybe_dispatch_locked(pool_.thread_count());
  idle_cv_.wait(lk, [&] { return pending_.empty() && in_flight_ == 0; });
}

void Daemon::shutdown() {
  std::lock_guard<std::mutex> lk(mu_);
  if (!draining_) {
    draining_ = true;
    // Queued requests fast-fail with "cancelled" records; in-flight
    // solves unwind at their next poll point.
    for (auto& [seq, request] : pending_) request->token.cancel();
  }
  paused_ = false;
  maybe_dispatch_locked(pool_.thread_count());
}

bool Daemon::draining() const {
  std::lock_guard<std::mutex> lk(mu_);
  return draining_;
}

DaemonStats Daemon::stats_locked() {
  DaemonStats s;
  s.submitted = submitted_;
  s.admitted = admitted_;
  s.rejected = rejected_;
  s.solved = solved_;
  s.errors = errors_;
  s.timeouts = timeouts_;
  s.queue_depth = fair_queue_.queued();
  s.in_flight = in_flight_;
  s.vruntime_lag_ms = fair_queue_.vruntime_lag_ms();
  s.pool_workers = pool_.thread_count();
  s.pool = pool_.stats();
  std::vector<double> all;
  for (const auto& [name, counters] : fair_queue_.counters()) {
    TenantStats t;
    t.queue = counters;
    const auto lit = latencies_.find(name);
    if (lit != latencies_.end()) {
      t.completed = lit->second.completed;
      t.p50_ms = percentile(lit->second.window, 50.0);
      t.p99_ms = percentile(lit->second.window, 99.0);
      all.insert(all.end(), lit->second.window.begin(),
                 lit->second.window.end());
    }
    const auto tit = tenant_state_.find(name);
    if (tit != tenant_state_.end()) {
      std::lock_guard<std::mutex> tl(tit->second->mu);
      t.open_sessions = tit->second->sessions.open_sessions();
    }
    s.tenants.emplace(name, std::move(t));
  }
  s.p50_ms = percentile(all, 50.0);
  s.p99_ms = percentile(std::move(all), 99.0);
  obs::gauge("at.daemon.p50_ms").set(s.p50_ms);
  obs::gauge("at.daemon.p99_ms").set(s.p99_ms);
  return s;
}

DaemonStats Daemon::stats() {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_locked();
}

obs::Json Daemon::stats_record() {
  const DaemonStats s = stats();
  obs::Json j = obs::Json::object();
  j["op"] = "stats";
  j["status"] = "ok";
  j["submitted"] = s.submitted;
  j["admitted"] = s.admitted;
  j["rejected"] = s.rejected;
  j["solved"] = s.solved;
  j["errors"] = s.errors;
  j["timeouts"] = s.timeouts;
  j["queue_depth"] = static_cast<std::int64_t>(s.queue_depth);
  j["in_flight"] = static_cast<std::int64_t>(s.in_flight);
  j["vruntime_lag_ms"] = s.vruntime_lag_ms;
  j["p50_ms"] = s.p50_ms;
  j["p99_ms"] = s.p99_ms;
  obs::Json pool = obs::Json::object();
  pool["workers"] = static_cast<std::int64_t>(s.pool_workers);
  pool["queue_depth"] = static_cast<std::int64_t>(s.pool.queue_depth);
  pool["in_flight"] = static_cast<std::int64_t>(s.pool.in_flight);
  j["pool"] = std::move(pool);
  obs::Json tenants = obs::Json::array();
  for (const auto& [name, t] : s.tenants) {
    obs::Json tj = obs::Json::object();
    tj["tenant"] = name;
    tj["weight"] = t.queue.weight;
    tj["queued"] = static_cast<std::int64_t>(t.queue.queued);
    tj["in_flight"] = static_cast<std::int64_t>(t.queue.in_flight);
    tj["dispatched"] = t.queue.dispatched;
    tj["rejected"] = t.queue.rejected;
    tj["vruntime_ms"] = t.queue.vruntime_ms;
    tj["completed"] = t.completed;
    tj["open_sessions"] = static_cast<std::int64_t>(t.open_sessions);
    tj["p50_ms"] = t.p50_ms;
    tj["p99_ms"] = t.p99_ms;
    tenants.push_back(std::move(tj));
  }
  j["tenants"] = std::move(tenants);
  return j;
}

int Daemon::serve(std::istream& in, std::ostream& out) {
  set_sink([&out](const std::string& record) {
    service::write_jsonl_record(out, record);
  });
  std::string line;
  bool accepting = true;
  while (accepting && service::read_jsonl_record(in, &line)) {
    accepting = submit_line(line);
  }
  drain();
  // Drop the reference to `out` before it can dangle; state (tenants,
  // vruntime, sessions) stays resident for the next serve() call.
  set_sink(options_.sink);
  return 0;
}

}  // namespace nat::daemon
