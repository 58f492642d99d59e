// Load generation and layer timing for the service benchmark.
//
// The load is closed-loop: every client thread owns its connection and
// waits for each reply before sending the next request. A thread runs
// whole cycles of a fixed operation sequence and checks the clock only
// between cycles, so every run attempts whole cycles and the share of
// operations that fail on a known fault is the same in every run.
//
// Layer timing lives here, outside the program: a Transport decorator on
// the client side of each seam (Metered), a RequestHandler decorator
// between the network server and its handler (TimedHandler), and a
// Transport decorator on each cluster replica (ShardProbe). All three
// record only while `tracing` is set, so the untraced slices of a traced
// run pay one branch per call.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cloud/channel.h"
#include "cloud/handler.h"
#include "cloud/protocol.h"
#include "model.h"

namespace servicebench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set while a traced slice runs; every decorator records only then.
inline std::atomic<bool> tracing{false};

/// Median / quantile of a sample (nearest-rank on a sorted copy); 0 when
/// empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

enum OpType : std::size_t { kRanked = 0, kMulti = 1, kUpdate = 2, kOpTypes = 3 };
inline constexpr const char* kOpNames[kOpTypes] = {"ranked_search", "multi_search",
                                                   "update"};

/// One answer kept for the checks made after the timed phase.
struct Check {
  std::size_t target = 0;  ///< which model answers it
  OpType type = kRanked;
  std::vector<std::string> terms;
  bool conjunctive = false;
  std::size_t k = 0;
  std::uint64_t lo = 0, hi = 0;  ///< model versions acknowledged during the call
  Answer answer;
  /// A search the named fault breaks: a wrong answer counts as failed,
  /// a right one as done (with these figures) only once it is checked.
  bool known_fault = false;
  double seconds = 0, done_at = 0;
};

/// Everything one client thread observed in one slice.
struct Recorder {
  Clock::time_point start = Clock::now();  ///< of the slice
  std::array<std::vector<double>, kOpTypes> latency_ms;
  std::array<std::vector<double>, kOpTypes> done_s;  ///< completion, s after start
  std::array<std::uint64_t, kOpTypes> attempted{};
  std::array<std::uint64_t, kOpTypes> failed{};
  std::uint64_t known_faults = 0;       ///< failures of the named fault
  std::vector<std::string> unexpected;  ///< other failures (first few kept)
  std::uint64_t search_bytes = 0;       ///< response bytes of ranked searches
  std::uint64_t searches_ok = 0;
  std::uint64_t update_docs = 0;
  std::vector<Check> checks;
  // Traced slices only.
  std::vector<double> user_self_us;  ///< ranked search minus its transport call
  std::vector<double> call_us;       ///< transport call of each ranked search
  std::vector<double> multi_call_us;

  /// Records one successful operation of `type` that took `seconds`.
  void done(OpType type, double seconds) {
    latency_ms[type].push_back(seconds * 1e3);
    done_s[type].push_back(std::chrono::duration<double>(Clock::now() - start).count());
  }

  void fail(OpType type, const std::string& why) {
    ++failed[type];
    if (unexpected.size() < 8) unexpected.push_back(std::string(kOpNames[type]) + ": " + why);
  }

  void merge(Recorder&& o) {
    for (std::size_t t = 0; t < kOpTypes; ++t) {
      latency_ms[t].insert(latency_ms[t].end(), o.latency_ms[t].begin(),
                           o.latency_ms[t].end());
      done_s[t].insert(done_s[t].end(), o.done_s[t].begin(), o.done_s[t].end());
      attempted[t] += o.attempted[t];
      failed[t] += o.failed[t];
    }
    known_faults += o.known_faults;
    for (auto& u : o.unexpected)
      if (unexpected.size() < 8) unexpected.push_back(std::move(u));
    search_bytes += o.search_bytes;
    searches_ok += o.searches_ok;
    update_docs += o.update_docs;
    for (auto& c : o.checks) checks.push_back(std::move(c));
    auto append = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    append(user_self_us, o.user_self_us);
    append(call_us, o.call_us);
    append(multi_call_us, o.multi_call_us);
  }
};

/// Client-side pass-through: remembers the size of the last response
/// (for bytes per search) and, while tracing, the duration of the last
/// call. One instance per client thread.
class Metered final : public rsse::cloud::Transport {
 public:
  explicit Metered(rsse::cloud::Transport& inner) : inner_(inner) {}

  using rsse::cloud::Transport::call;
  rsse::Bytes call(rsse::cloud::MessageType type, rsse::BytesView request,
                   const rsse::Deadline& deadline) override {
    return run(request, [&] { return inner_.call(type, request, deadline); });
  }
  rsse::Bytes call(rsse::cloud::MessageType type, rsse::BytesView request,
                   const rsse::Deadline& deadline, rsse::obs::TraceRecorder* trace,
                   std::uint64_t parent_span_id) override {
    return run(request,
               [&] { return inner_.call(type, request, deadline, trace, parent_span_id); });
  }

  std::size_t last_bytes = 0;
  double last_us = 0;

 private:
  template <typename F>
  rsse::Bytes run(rsse::BytesView request, F&& f) {
    last_us = 0;
    if (!tracing.load(std::memory_order_relaxed)) {
      rsse::Bytes out = f();
      last_bytes = out.size();
      account(request.size(), out.size());
      return out;
    }
    const auto t0 = Clock::now();
    rsse::Bytes out = f();
    last_us = seconds_since(t0) * 1e6;
    last_bytes = out.size();
    account(request.size(), out.size());
    return out;
  }

  rsse::cloud::Transport& inner_;
};

/// Replays a client call without the wire or the server: while
/// `record` is set each call goes to `inner` and its reply is kept;
/// otherwise the kept reply comes back at once. Timing a DataUser call
/// in replay leaves its own work: trapdoor, response parse, decryption.
class Replayed final : public rsse::cloud::Transport {
 public:
  explicit Replayed(rsse::cloud::Transport& inner) : inner_(inner) {}

  using rsse::cloud::Transport::call;
  rsse::Bytes call(rsse::cloud::MessageType type, rsse::BytesView request,
                   const rsse::Deadline& deadline) override {
    if (record) reply_ = inner_.call(type, request, deadline);
    account(request.size(), reply_.size());
    return reply_;
  }

  bool record = true;

 private:
  rsse::cloud::Transport& inner_;
  rsse::Bytes reply_;
};

/// Thread-safe sample sink shared by server-side decorators.
class Samples {
 public:
  void add(OpType type, double us) {
    const std::lock_guard<std::mutex> lock(mutex_);
    us_[type].push_back(us);
  }
  [[nodiscard]] std::vector<double> of(OpType type) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return us_[type];
  }
  [[nodiscard]] std::vector<double> all() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const auto& v : us_) out.insert(out.end(), v.begin(), v.end());
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::array<std::vector<double>, kOpTypes> us_;
};

/// The operation a request carries, looking inside a tenant envelope.
inline bool op_of(rsse::cloud::MessageType type, rsse::BytesView payload, OpType* op) {
  using rsse::cloud::MessageType;
  if (type == MessageType::kTenantScoped)
    return op_of(rsse::cloud::TenantScopedRequest::deserialize(payload).inner_type, {}, op);
  switch (type) {
    case MessageType::kRankedSearch: *op = kRanked; return true;
    case MessageType::kMultiSearch: *op = kMulti; return true;
    case MessageType::kUpdate: *op = kUpdate; return true;
    default: return false;
  }
}

/// Sits between the network server and its handler (a CloudServer or a
/// TenantHost) and times each handle() call while tracing.
class TimedHandler final : public rsse::cloud::RequestHandler {
 public:
  explicit TimedHandler(const rsse::cloud::RequestHandler& inner) : inner_(inner) {}

  [[nodiscard]] rsse::Bytes handle(rsse::cloud::MessageType type,
                                   rsse::BytesView payload) const override {
    return timed(type, payload, [&] { return inner_.handle(type, payload); });
  }
  [[nodiscard]] rsse::Bytes handle(rsse::cloud::MessageType type, rsse::BytesView payload,
                                   const rsse::obs::TraceContext& ctx,
                                   std::vector<rsse::obs::Span>* spans) const override {
    return timed(type, payload, [&] { return inner_.handle(type, payload, ctx, spans); });
  }
  [[nodiscard]] rsse::obs::MetricsRegistry& metrics_registry() const override {
    return inner_.metrics_registry();
  }

  Samples samples;

 private:
  template <typename F>
  rsse::Bytes timed(rsse::cloud::MessageType type, rsse::BytesView payload, F&& f) const {
    if (!tracing.load(std::memory_order_relaxed)) return f();
    const auto t0 = Clock::now();
    rsse::Bytes out = f();
    const double us = seconds_since(t0) * 1e6;
    OpType op{};
    if (op_of(type, payload, &op)) const_cast<Samples&>(samples).add(op, us);
    return out;
  }

  const rsse::cloud::RequestHandler& inner_;
};

/// Shared by every replica decorator of a cluster: call durations while
/// tracing, plus the slowest call since the last reset (the single-
/// threaded replay uses it to split a coordinator call into its slowest
/// shard call and the coordinator's own time).
struct ShardStats {
  Samples samples;
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::int64_t> slowest_ns{0};
};

/// Decorator on each replica Transport handed to ReplicaSet::add_replica.
class ShardProbe final : public rsse::cloud::Transport {
 public:
  ShardProbe(std::unique_ptr<rsse::cloud::Transport> inner, ShardStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  using rsse::cloud::Transport::call;
  rsse::Bytes call(rsse::cloud::MessageType type, rsse::BytesView request,
                   const rsse::Deadline& deadline) override {
    return run(type, request, [&] { return inner_->call(type, request, deadline); });
  }
  rsse::Bytes call(rsse::cloud::MessageType type, rsse::BytesView request,
                   const rsse::Deadline& deadline, rsse::obs::TraceRecorder* trace,
                   std::uint64_t parent_span_id) override {
    return run(type, request, [&] {
      return inner_->call(type, request, deadline, trace, parent_span_id);
    });
  }

 private:
  template <typename F>
  rsse::Bytes run(rsse::cloud::MessageType type, rsse::BytesView request, F&& f) {
    if (!tracing.load(std::memory_order_relaxed)) {
      rsse::Bytes out = f();
      account(request.size(), out.size());
      return out;
    }
    const auto t0 = Clock::now();
    rsse::Bytes out = f();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
                        .count();
    account(request.size(), out.size());
    stats_.calls.fetch_add(1, std::memory_order_relaxed);
    std::int64_t cur = stats_.slowest_ns.load(std::memory_order_relaxed);
    while (cur < ns && !stats_.slowest_ns.compare_exchange_weak(cur, ns)) {
    }
    OpType op{};
    if (op_of(type, request, &op)) stats_.samples.add(op, static_cast<double>(ns) / 1e3);
    return out;
  }

  std::unique_ptr<rsse::cloud::Transport> inner_;
  ShardStats& stats_;
};

/// A closed-loop client: one thread, one connection, whole cycles.
class Client {
 public:
  virtual ~Client() = default;
  virtual void cycle(Recorder& rec) = 0;
};

/// Robust figures of one slice: the timed phase is cut into `windows`
/// equal windows and each figure is the median over the windows, so a
/// burst of outside load that spoils one window moves it little.
struct Windowed {
  double throughput_ops_s = 0;
  double search_p50_ms = 0;
  std::vector<double> per_window_ops_s;
};

inline Windowed windowed(const Recorder& r, double seconds, int windows) {
  const double width = seconds / windows;
  std::vector<double> tput, p50;
  for (int w = 0; w < windows; ++w) {
    const double lo = w * width, hi = lo + width;
    std::size_t ops = 0;
    std::vector<double> lat;
    for (std::size_t t = 0; t < kOpTypes; ++t) {
      for (std::size_t i = 0; i < r.done_s[t].size(); ++i) {
        if (r.done_s[t][i] < lo || r.done_s[t][i] >= hi) continue;
        ++ops;
        if (t == kRanked) lat.push_back(r.latency_ms[t][i]);
      }
    }
    tput.push_back(static_cast<double>(ops) / width);
    p50.push_back(quantile(lat, 0.50));
  }
  Windowed out{median(tput), median(p50), {}};
  out.per_window_ops_s = std::move(tput);
  return out;
}

/// Runs every client for `seconds` (whole cycles) and merges their
/// records. Throws when a client thread died of an unexpected error.
inline Recorder run_slice(std::vector<std::unique_ptr<Client>>& clients, double seconds) {
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  std::vector<Recorder> recs(clients.size());
  for (Recorder& r : recs) r.start = start;
  std::vector<std::string> errors(clients.size());
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        do {
          clients[i]->cycle(recs[i]);
        } while (Clock::now() < deadline);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Recorder total;
  total.start = start;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    if (!errors[i].empty()) throw std::runtime_error("client thread failed: " + errors[i]);
    total.merge(std::move(recs[i]));
  }
  return total;
}

}  // namespace servicebench
