// The service benchmark executable: builds a deployment from generated
// inputs, serves closed-loop traffic through the program's public entry
// points, checks every answer against the plaintext model, and prints
// the metrics as one JSON line.
//
//   servicebench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// Workloads (see README.md for the input make-up):
//   search_static          bare CloudServer behind the reactor, ranked search
//   tenants_update_mix     TenantHost behind the reactor, owner deltas + searches
//   cluster_multi_keyword  in-process ClusterCoordinator, 3 shards x 2 replicas
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced slices and adds a single-threaded replay, reporting the
// per-layer metrics.
#include <sched.h>
#include <sys/resource.h>

#include <array>
#include <bit>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cloud/auth.h"
#include "cloud/cloud_server.h"
#include "cloud/data_owner.h"
#include "cloud/data_user.h"
#include "cluster/coordinator.h"
#include "ext/conjunctive.h"
#include "harness.h"
#include "ir/inverted_index.h"
#include "model.h"
#include "net/remote_channel.h"
#include "net/server.h"
#include "obs/cost.h"
#include "obs/profiler.h"
#include "sse/trapdoor_gen.h"
#include "store/deployment.h"
#include "tenant/host.h"
#include "tenant/quota.h"
#include "tenant/scoped_transport.h"
#include "util/bytes.h"

namespace servicebench {
namespace {

using namespace rsse;
namespace fs = std::filesystem;

// ----------------------------------------------------------------------
// Inputs

constexpr std::size_t kCycle = 20;          // operations per client cycle
constexpr std::size_t kPlanLength = 4096;   // pre-generated operations per client
constexpr std::uint64_t kProbeRemoved = 900000;  // fixed probe documents
constexpr std::uint64_t kProbeAdded = 900001;
constexpr std::size_t kChurnRank = 20000;   // churn vocabulary ranks
constexpr std::size_t kChurnWords = 16;
constexpr std::size_t kChurnLive = 32;      // live churn documents kept
constexpr std::size_t kProbeRank = 30000;   // probe vocabulary ranks
constexpr double kDeltasPerSecond = 25;      // the owner's pace
constexpr std::size_t kStaticEvery = 7;      // 1 ranked search in 7 goes to `stat`
constexpr std::size_t kUpsertMinTokens = 5;  // an upsert's new text
constexpr std::size_t kUpsertMaxTokens = 15;

/// Top-k from the Fig. 8 values, mostly 10.
std::size_t draw_k(Rng& rng) {
  const std::uint64_t u = rng.below(10);
  return u < 7 ? 10 : u == 7 ? 25 : u == 8 ? 50 : 100;
}

/// Owner secrets derived from the seed, restored through the
/// DataOwner(MasterKey, Bytes, ...) constructor.
std::unique_ptr<cloud::DataOwner> make_owner(std::uint64_t seed, std::uint64_t who) {
  Rng rng(seed * 0x100000001B3ull + who * 7919 + 17);
  auto bytes = [&](std::size_t n) {
    Bytes b(n);
    for (auto& c : b) c = static_cast<std::uint8_t>(rng.next());
    return b;
  };
  sse::MasterKey key;
  key.x = bytes(32);
  key.y = bytes(32);
  key.z = bytes(32);
  Bytes file_master = bytes(32);
  return std::make_unique<cloud::DataOwner>(std::move(key), std::move(file_master),
                                            std::nullopt);
}

std::vector<ir::Document> to_documents(const std::vector<std::shared_ptr<const Doc>>& docs) {
  std::vector<ir::Document> out;
  for (const auto& d : docs)
    out.push_back(ir::Document{ir::file_id(d->id), "d" + std::to_string(d->id) + ".txt", d->text});
  return out;
}

ir::Corpus to_corpus(const std::vector<std::shared_ptr<const Doc>>& docs) {
  ir::Corpus corpus;
  for (ir::Document& d : to_documents(docs)) corpus.add(std::move(d));
  return corpus;
}

std::vector<sse::FileId> to_ids(const std::vector<std::uint64_t>& ids) {
  std::vector<sse::FileId> out;
  for (const std::uint64_t id : ids) out.push_back(ir::file_id(id));
  return out;
}

Answer answer_of(const std::vector<cloud::RetrievedFile>& files) {
  Answer a;
  for (const auto& f : files) {
    a.ids.push_back(ir::value(f.document.id));
    a.text_digests.push_back(digest(f.document.text));
  }
  return a;
}

/// The owner's quantizer interval, read from its public serialization.
Levels levels_of(const cloud::DataOwner& owner) {
  const Bytes raw = owner.quantizer()->serialize();
  ByteReader reader(raw);
  Levels l;
  l.min_score = std::bit_cast<double>(reader.read_u64());
  l.max_score = std::bit_cast<double>(reader.read_u64());
  l.levels = reader.read_u64();
  return l;
}

/// Setup-time checks: the quantizer interval is the model's eq. 2 score
/// range (so the analyzer indexed the tokens as generated), and the base
/// index is exactly rows x (label + nu x entry width), with rows the
/// model's distinct terms and nu its largest document frequency — the
/// full-nu padding property. The entry width is read from the row of the
/// most frequent term, which must itself be nu entries wide.
std::string check_base(const Model& model, const Levels& levels, const cloud::DataOwner& owner,
                       const std::vector<const sse::SecureIndex*>& parts) {
  if (levels.min_score != model.base_min_score() || levels.max_score != model.base_max_score())
    return "quantizer interval differs from the model's eq. 2 score range";
  std::uint64_t rows = 0, bytes = 0;
  const Bytes label = owner.rsse().row_label(word(0));
  const std::vector<Bytes>* row = nullptr;
  for (const sse::SecureIndex* index : parts) {
    rows += index->num_rows();
    bytes += index->byte_size();
    if (row == nullptr) row = index->row(label);
  }
  const std::uint64_t nu = model.base_max_df();
  if (row == nullptr || row->empty()) return "no index row for the most frequent term";
  if (row->size() != nu)
    return "row width " + std::to_string(row->size()) + ", want nu = " + std::to_string(nu);
  if (rows != model.base_terms())
    return "index has " + std::to_string(rows) + " rows, model has " +
           std::to_string(model.base_terms()) + " terms";
  const std::uint64_t want = rows * (label.size() + nu * row->front().size());
  if (bytes != want)
    return "index bytes " + std::to_string(bytes) + " != rows x (label + nu x width) = " +
           std::to_string(want);
  return {};
}

// ----------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back(Metric{name, value, unit});
  }
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Per-layer set-up timings and cost counts, summed over what one Setup
/// builds (several tenants, or one cluster deployment).
struct SetupLayers {
  double index_build_s = 0, build_index_s = 0, outsource_s = 0, save_s = 0, load_s = 0;
  obs::cost::Snapshot cost{};
  void add_cost(const obs::cost::Snapshot& d) {
    cost.hmac_invocations += d.hmac_invocations;
    cost.entries_encrypted += d.entries_encrypted;
    cost.bytes_encrypted += d.bytes_encrypted;
    cost.opm_mappings += d.opm_mappings;
    cost.hgd_samples += d.hgd_samples;
  }
};

/// outsource_rsse with rsse build's defaults (full_nu padding, one build
/// thread). With `layers`, also times the inverted-index scan and the
/// index build on their own (separate calls, not part of the Setup time
/// a --trace 0 run reports).
void outsource(cloud::DataOwner& owner, const ir::Corpus& corpus, cloud::CloudServer& server,
               SetupLayers* layers) {
  const sse::RsseScheme::BuildOptions options;  // full_nu, 1 thread
  if (layers != nullptr) {
    auto t0 = Clock::now();
    (void)ir::InvertedIndex::build(corpus, owner.rsse().analyzer());
    layers->index_build_s += seconds_since(t0);
    t0 = Clock::now();
    (void)owner.rsse().build_index(corpus, options);
    layers->build_index_s += seconds_since(t0);
  }
  const auto before = obs::cost::snapshot();
  const auto t0 = Clock::now();
  owner.outsource_rsse(corpus, server, options);
  if (layers != nullptr) {
    layers->outsource_s += seconds_since(t0);
    layers->add_cost(obs::cost::delta(before, obs::cost::snapshot()));
  }
}

template <typename F>
void timed_into(double* sink, F&& f) {
  const auto t0 = Clock::now();
  f();
  if (sink != nullptr) *sink += seconds_since(t0);
}

// ----------------------------------------------------------------------
// Operations shared by the clients

/// Versions of an updating collection: `sent` counts deltas handed to the
/// transport, `acked` deltas acknowledged (and recorded in the model).
struct VersionClock {
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> acked{0};
};

struct RankedOp {
  std::string term;
  std::size_t k = 10;
};
struct MultiOp {
  std::vector<std::string> terms;
  bool conjunctive = true;
  std::size_t k = 10;
};

void do_ranked(Recorder& rec, cloud::DataUser& user, Metered& meter, std::size_t target,
               const RankedOp& op, const VersionClock* clock) {
  ++rec.attempted[kRanked];
  const std::uint64_t lo = clock ? clock->acked.load() : 0;
  const auto t0 = Clock::now();
  std::vector<cloud::RetrievedFile> files;
  try {
    files = user.ranked_search(op.term, op.k);
  } catch (const std::exception& e) {
    rec.fail(kRanked, e.what());
    return;
  }
  const double s = seconds_since(t0);
  const std::uint64_t hi = clock ? clock->sent.load() : 0;
  rec.done(kRanked, s);
  rec.search_bytes += meter.last_bytes;
  ++rec.searches_ok;
  if (tracing.load(std::memory_order_relaxed)) {
    rec.call_us.push_back(meter.last_us);
    rec.user_self_us.push_back(s * 1e6 - meter.last_us);
  }
  rec.checks.push_back(Check{target, kRanked, {op.term}, false, op.k, lo, hi, answer_of(files)});
}

/// A multi-keyword search. With `known_fault` it runs on the updating
/// tenant, where CloudServer::multi_search reads only the base index: a
/// throw or a wrong answer there is counted as failed (the named fault)
/// rather than as an unexpected failure or a wrong answer.
void do_multi(Recorder& rec, cloud::DataUser& user, Metered& meter, std::size_t target,
              const MultiOp& op, const VersionClock* clock, bool known_fault) {
  ++rec.attempted[kMulti];
  const std::uint64_t lo = clock ? clock->acked.load() : 0;
  const auto t0 = Clock::now();
  std::vector<cloud::RetrievedFile> files;
  try {
    files = user.multi_search(op.terms, op.conjunctive, op.k);
  } catch (const std::exception& e) {
    if (known_fault) {
      ++rec.failed[kMulti];
      ++rec.known_faults;
    } else {
      rec.fail(kMulti, e.what());
    }
    return;
  }
  const double s = seconds_since(t0);
  const std::uint64_t hi = clock ? clock->sent.load() : 0;
  Check c{target, kMulti, op.terms, op.conjunctive, op.k, lo, hi, answer_of(files)};
  if (known_fault) {
    c.known_fault = true;
    c.seconds = s;
    c.done_at = seconds_since(rec.start);
  } else {
    rec.done(kMulti, s);
    if (tracing.load(std::memory_order_relaxed)) rec.multi_call_us.push_back(meter.last_us);
  }
  rec.checks.push_back(std::move(c));
}

std::vector<RankedOp> ranked_plan(Rng& rng, const Zipf& zipf, std::size_t rank_offset) {
  std::vector<RankedOp> plan;
  for (std::size_t i = 0; i < kPlanLength; ++i)
    plan.push_back(RankedOp{word(rank_offset + zipf.draw(rng)), draw_k(rng)});
  return plan;
}

/// 2 or 3 distinct keywords per search, from Zipf-drawn ranks, or
/// uniform over `uniform_words` ranks when that is not 0.
std::vector<MultiOp> multi_plan(Rng& rng, const Zipf& zipf, std::size_t rank_offset,
                                std::size_t uniform_words = 0) {
  std::vector<MultiOp> plan;
  for (std::size_t i = 0; i < kPlanLength; ++i) {
    MultiOp op;
    op.conjunctive = i % 2 == 0;
    const std::size_t n = 2 + rng.below(2);
    while (op.terms.size() < n) {
      std::string w = word(rank_offset + (uniform_words ? rng.below(uniform_words)
                                                        : zipf.draw(rng)));
      if (std::find(op.terms.begin(), op.terms.end(), w) == op.terms.end())
        op.terms.push_back(std::move(w));
    }
    op.k = 10;
    plan.push_back(std::move(op));
  }
  return plan;
}

std::unique_ptr<net::RemoteChannel> connect(std::uint16_t port) {
  auto ch = std::make_unique<net::RemoteChannel>(
      port, net::ConnectOptions{std::chrono::milliseconds(5000)});
  ch->set_call_timeout(std::chrono::milliseconds(30000));
  return ch;
}

// ----------------------------------------------------------------------
// The workloads

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the deployment and starts the endpoint; returns its seconds.
  virtual double setup(const std::string& dir, SetupLayers* layers) = 0;
  /// Deltas the workload needs before the timed phase (not timed).
  virtual void prepare() {}
  virtual std::vector<std::unique_ptr<Client>> clients(std::size_t n) = 0;
  /// Checks every kept answer; returns the failures (empty = correct).
  virtual std::vector<std::string> check(Recorder& rec) = 0;
  /// Checks after the load stops: base shape, and for updates visibility.
  virtual std::vector<std::string> final_checks() = 0;
  virtual std::uint64_t index_bytes() const = 0;
  /// Per-layer metrics of the traced run (counts, replay).
  virtual void layers(MetricSet& out, const Recorder& traced) = 0;
};

/// One served collection: owner, model, quantizer levels, user keys.
struct Collection {
  std::vector<std::shared_ptr<const Doc>> docs;
  std::unique_ptr<Model> model;
  std::unique_ptr<cloud::DataOwner> owner;
  Levels levels;
  cloud::UserCredentials creds;

  void outsourced() {
    levels = levels_of(*owner);
    creds = cloud::AuthorizationService::make_credentials(owner->master_key(),
                                                          owner->file_master());
  }
};

/// Checks every kept answer; a wrong answer of a known-fault search is
/// counted as failed, one that passes as done.
std::vector<std::string> check_all(Recorder& rec, const std::vector<const Collection*>& targets) {
  std::vector<std::string> errors;
  for (const Check& c : rec.checks) {
    const Collection& col = *targets[c.target];
    const std::string why =
        c.type == kRanked
            ? check_ranked_window(*col.model, col.levels, c.terms[0], c.k, c.answer, c.lo, c.hi)
            : check_multi(*col.model, c.terms, c.conjunctive, c.k, c.answer, c.lo, c.hi);
    if (c.known_fault) {
      if (why.empty()) {
        rec.latency_ms[c.type].push_back(c.seconds * 1e3);
        rec.done_s[c.type].push_back(c.done_at);
      } else {
        ++rec.failed[c.type];
        ++rec.known_faults;
      }
    } else if (!why.empty() && errors.size() < 8) {
      errors.push_back(why);
    }
  }
  return errors;
}

/// Single-threaded replay of ranked searches through each server layer.
struct ServerReplay {
  std::vector<double> sse_us, ranked_us, handle_us, row_entries;
};

void replay_ranked(const cloud::CloudServer& server, const cloud::DataOwner& owner,
                   const std::vector<RankedOp>& ops, ServerReplay& out) {
  for (const RankedOp& op : ops) {
    const sse::Trapdoor td = owner.rsse().trapdoor(op.term);
    const cloud::RankedSearchRequest req{td, op.k};
    const Bytes payload = req.serialize();
    auto t0 = Clock::now();
    const auto hits = sse::RsseScheme::search(server.index(), td, op.k);
    out.sse_us.push_back(seconds_since(t0) * 1e6);
    const std::vector<Bytes>* row = server.index().row(td.label);
    out.row_entries.push_back(row ? static_cast<double>(row->size()) : 0.0);
    t0 = Clock::now();
    const auto resp = server.ranked_search(req);
    out.ranked_us.push_back(seconds_since(t0) * 1e6);
    t0 = Clock::now();
    const Bytes wire = server.handle(cloud::MessageType::kRankedSearch, payload);
    out.handle_us.push_back(seconds_since(t0) * 1e6);
    (void)hits;
    (void)resp;
    (void)wire;
  }
}

void report_replay(MetricSet& out, const ServerReplay& r) {
  out.set("sse.search_us", median(r.sse_us), "us");
  out.set("sse.row_entries", median(r.row_entries), "count");
  out.set("cloud.ranked_search_us", median(r.ranked_us), "us");
  out.set("cloud.handle_us", median(r.handle_us), "us");
}

/// Single-threaded replay of multi-keyword searches on one server.
std::vector<double> replay_multi(const cloud::CloudServer& server,
                                 const cloud::UserCredentials& creds,
                                 const std::vector<MultiOp>& ops, std::size_t n) {
  std::vector<double> us;
  const sse::TrapdoorGenerator gen(creds.x, creds.y, creds.params.p_bits);
  for (std::size_t i = 0; i < n; ++i) {
    const MultiOp& op = ops[i];
    cloud::MultiSearchRequest req;
    req.trapdoor = ext::make_conjunctive_trapdoor(gen, op.terms);
    req.mode = op.conjunctive ? cloud::MultiSearchMode::kConjunctive
                              : cloud::MultiSearchMode::kDisjunctive;
    req.top_k = op.k;
    const auto t0 = Clock::now();
    (void)server.multi_search(req);
    us.push_back(seconds_since(t0) * 1e6);
  }
  return us;
}

/// The DataUser's own share of ranked searches (trapdoor, response
/// parse, file decryption): each search is answered once through
/// `inner`, then timed again against that kept answer.
std::vector<double> replay_user(const cloud::UserCredentials& creds, cloud::Transport& inner,
                                const std::vector<RankedOp>& ops) {
  Replayed replayed(inner);
  cloud::DataUser user(creds, replayed);
  std::vector<double> us;
  for (const RankedOp& op : ops) {
    replayed.record = true;
    (void)user.ranked_search(op.term, op.k);
    replayed.record = false;
    const auto t0 = Clock::now();
    (void)user.ranked_search(op.term, op.k);
    us.push_back(seconds_since(t0) * 1e6);
  }
  return us;
}

/// trace.coverage_pct: two spans measured apart, the DataUser's own work
/// (replayed) and the server side of a ranked search (timed under load),
/// over the traced end-to-end ranked p50. What is left is wire, loop
/// and queue wait.
void report_coverage(MetricSet& out, const Recorder& traced, const std::vector<double>& user_us,
                     double server_us) {
  const double user = median(user_us);
  out.set("cloud.user_replay_us", user, "us");
  const double p50_us = quantile(traced.latency_ms[kRanked], 0.50) * 1e3;
  out.set("trace.coverage_pct", p50_us > 0 ? 100.0 * (user + server_us) / p50_us : 0.0, "%");
}

void report_net(MetricSet& out, const Recorder& traced, const TimedHandler& handler,
                obs::MetricsRegistry& registry) {
  const double call = median(traced.call_us);
  const double handle = median(handler.samples.of(kRanked));
  out.set("net.call_us", call, "us");
  out.set("net.server_handle_us", handle, "us");
  out.set("net.wait_us", call - handle, "us");
  out.set("net.pipelined_requests",
          static_cast<double>(registry.counter("rsse_net_pipelined_requests_total", "").value()),
          "count");
  out.set("net.in_flight_peak",
          static_cast<double>(registry.gauge("rsse_net_in_flight_peak", "").value()), "count");
  out.set("net.shed", static_cast<double>(registry.counter("rsse_net_shed_total", "").value()),
          "count");
}

// ---- search_static ----------------------------------------------------

class SearchStatic final : public Workload {
 public:
  SearchStatic(std::uint64_t seed, bool traced) : seed_(seed), traced_(traced) {
    Rng rng(seed);
    col_.docs = generate_docs(spec(), 0, rng);
    col_.model = std::make_unique<Model>(col_.docs);
  }

  static CorpusSpec spec() { return CorpusSpec{500, 400, 1.0, 20, 100, 0}; }

  double setup(const std::string& dir, SetupLayers* layers) override {
    const ir::Corpus corpus = to_corpus(col_.docs);
    const auto t0 = Clock::now();
    col_.owner = make_owner(seed_, 0);
    {
      cloud::CloudServer built;
      outsource(*col_.owner, corpus, built, layers);
      timed_into(layers ? &layers->save_s : nullptr,
                 [&] { store::save_deployment(built, dir); });
    }
    timed_into(layers ? &layers->load_s : nullptr,
               [&] { store::load_deployment(dir, server_); });
    server_.enable_background_compaction();
    handler_ = std::make_unique<TimedHandler>(server_);
    net_ = std::make_unique<net::NetworkServer>(
        traced_ ? static_cast<const cloud::RequestHandler&>(*handler_) : server_, 0,
        net::ServerOptions{});
    const double s = seconds_since(t0);
    col_.outsourced();
    return s;
  }

  std::vector<std::unique_ptr<Client>> clients(std::size_t n) override {
    std::vector<std::unique_ptr<Client>> out;
    const Zipf zipf(spec().vocabulary, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      Rng rng(seed_ * 31 + 1000 + i);
      auto c = std::make_unique<Searcher>(connect(net_->port()), col_.creds,
                                          ranked_plan(rng, zipf, 0));
      if (i == 0) replay_ops_ = c->plan;
      out.push_back(std::move(c));
    }
    return out;
  }

  std::vector<std::string> check(Recorder& rec) override {
    return check_all(rec, {&col_});
  }

  std::vector<std::string> final_checks() override {
    std::vector<std::string> errors;
    const std::string why = check_base(*col_.model, col_.levels, *col_.owner, {&server_.index()});
    if (!why.empty()) errors.push_back(why);
    return errors;
  }

  std::uint64_t index_bytes() const override {
    return server_.index().byte_size() + server_.segments().byte_size();
  }

  void layers(MetricSet& out, const Recorder& traced) override {
    report_net(out, traced, *handler_, server_.metrics_registry());
    const std::vector<RankedOp> ops(replay_ops_.begin(), replay_ops_.begin() + 400);
    ServerReplay r;
    replay_ranked(server_, *col_.owner, ops, r);
    report_replay(out, r);
    cloud::Channel direct(server_);
    report_coverage(out, traced, replay_user(col_.creds, direct, ops),
                    median(handler_->samples.of(kRanked)));
  }

 private:
  struct Searcher final : Client {
    Searcher(std::unique_ptr<net::RemoteChannel> ch, const cloud::UserCredentials& creds,
             std::vector<RankedOp> p)
        : channel(std::move(ch)), meter(*channel), user(creds, meter), plan(std::move(p)) {}
    void cycle(Recorder& rec) override {
      for (std::size_t i = 0; i < kCycle; ++i)
        do_ranked(rec, user, meter, 0, plan[next++ % plan.size()], nullptr);
    }
    std::unique_ptr<net::RemoteChannel> channel;
    Metered meter;
    cloud::DataUser user;
    std::vector<RankedOp> plan;
    std::size_t next = 0;
  };

  std::uint64_t seed_;
  bool traced_;
  Collection col_;
  // In start order, so the endpoint stops before what it serves goes.
  cloud::CloudServer server_;
  std::unique_ptr<TimedHandler> handler_;
  std::unique_ptr<net::NetworkServer> net_;
  std::vector<RankedOp> replay_ops_;
};

// ---- tenants_update_mix -----------------------------------------------

class TenantsUpdateMix final : public Workload {
 public:
  static constexpr const char* kIds[2] = {"upd", "stat"};  // 0 updates, 1 static

  TenantsUpdateMix(std::uint64_t seed, bool traced) : seed_(seed), traced_(traced) {
    for (std::size_t t = 0; t < 2; ++t) {
      Rng rng(seed * 7 + t);
      cols_[t].docs = generate_docs(spec(), 0, rng);
    }
    // The updating tenant's base also holds the fixed probe document the
    // probe delta removes.
    cols_[0].docs.push_back(make_doc(kProbeRemoved, probe_tokens(0)));
    for (auto& c : cols_) c.model = std::make_unique<Model>(c.docs);
  }

  static CorpusSpec spec() { return CorpusSpec{300, 300, 1.0, 20, 100, 0}; }

  /// Fixed probe texts (independent of the seed).
  static std::vector<std::string> probe_tokens(int which) {
    const std::size_t a = kProbeRank + 2 * which;
    return {word(a), word(a + 1), word(a), word(a + 1), word(a)};
  }

  double setup(const std::string& root, SetupLayers* layers) override {
    root_ = root;
    const auto t0 = Clock::now();
    tenant::TenantRegistry registry;
    for (std::size_t t = 0; t < 2; ++t) {
      cols_[t].owner = make_owner(seed_, 1 + t);
      cloud::CloudServer built;
      outsource(*cols_[t].owner, to_corpus(cols_[t].docs), built, layers);
      timed_into(layers ? &layers->save_s : nullptr,
                 [&] { store::save_deployment(built, store::tenant_dir(root, kIds[t])); });
      registry.add(tenant::TenantConfig{kIds[t], {}, true});
    }
    store::save_tenant_registry(registry, root);
    host_ = std::make_unique<tenant::TenantHost>();
    timed_into(layers ? &layers->load_s : nullptr,
               [&] { store::load_tenant_deployment(root, *host_); });
    for (const char* id : kIds) host_->find_server(id)->enable_background_compaction();
    handler_ = std::make_unique<TimedHandler>(*host_);
    net_ = std::make_unique<net::NetworkServer>(
        traced_ ? static_cast<const cloud::RequestHandler&>(*handler_) : *host_, 0,
        net::ServerOptions{});
    const double s = seconds_since(t0);
    for (auto& c : cols_) c.outsourced();
    return s;
  }

  void prepare() override {
    owner_channel_ = connect(net_->port());
    owner_scoped_ = std::make_unique<tenant::ScopedTransport>(*owner_channel_, kIds[0]);
    owner_rng_ = std::make_unique<Rng>(seed_ * 13 + 5);
    // Probe delta: remove one fixed document, add another.
    apply({make_doc(kProbeAdded, probe_tokens(1))}, {kProbeRemoved}, nullptr);
    // Fill the churn set so every timed delta adds one and removes one.
    std::vector<std::shared_ptr<const Doc>> fill;
    for (std::size_t i = 0; i < kChurnLive; ++i) fill.push_back(churn_doc());
    apply(fill, {}, nullptr);
  }

  std::vector<std::unique_ptr<Client>> clients(std::size_t n) override {
    std::vector<std::unique_ptr<Client>> out;
    paced_from_ = Clock::now();
    const Zipf zipf(spec().vocabulary, 1.0);
    {
      Rng rng(seed_ * 31 + 1999);
      auto owner = std::make_unique<Owner>(*this);
      owner->multi = multi_plan(rng, zipf, kChurnRank, kChurnWords);
      out.push_back(std::move(owner));
    }
    for (std::size_t i = 0; i < n; ++i) {
      Rng rng(seed_ * 31 + 2000 + i);
      auto c = std::make_unique<Searcher>(*this, connect(net_->port()));
      for (std::size_t t = 0; t < 2; ++t) c->ranked[t] = ranked_plan(rng, zipf, 0);
      c->multi[0] = multi_plan(rng, zipf, kChurnRank, kChurnWords);
      c->multi[1] = multi_plan(rng, zipf, 0);
      if (i == 0) {
        replay_ops_ = c->ranked[0];
        replay_static_ops_ = c->ranked[1];
        replay_multi_ = c->multi;
      }
      out.push_back(std::move(c));
    }
    return out;
  }

  std::vector<std::string> check(Recorder& rec) override {
    return check_all(rec, {&cols_[0], &cols_[1]});
  }

  std::vector<std::string> final_checks() override {
    std::vector<std::string> errors;
    for (std::size_t t = 0; t < 2; ++t) {
      const cloud::CloudServer& server = *host_->find_server(kIds[t]);
      const std::string why = check_base(*cols_[t].model, cols_[t].levels, *cols_[t].owner, {&server.index()});
      if (!why.empty()) errors.push_back(std::string(kIds[t]) + ": " + why);
    }
    // Every acknowledged add, upsert and remove is visible: full rankings
    // of every churn word and of a word of each upserted document, at the
    // final version.
    tenant::ScopedTransport scoped(*owner_channel_, kIds[0]);
    Metered meter(scoped);
    cloud::DataUser user(cols_[0].creds, meter);
    std::vector<std::string> terms;
    for (std::size_t w = 0; w < kChurnWords; ++w) terms.push_back(word(kChurnRank + w));
    for (const std::uint64_t id : upserted_) {
      const Doc* doc = cols_[0].model->at(id, clock_.acked.load());
      if (doc != nullptr && terms.size() < kChurnWords + 64)
        terms.push_back(doc->tf.rbegin()->first);
    }
    const std::uint64_t v = clock_.acked.load();
    for (const std::string& term : terms) {
      std::string why;
      try {
        why = check_ranked(*cols_[0].model, cols_[0].levels, term, 0,
                           answer_of(user.ranked_search(term, 0)), v);
      } catch (const std::exception& e) {
        why = term + ": " + e.what();
      }
      if (!why.empty() && errors.size() < 8) errors.push_back("after the run: " + why);
    }
    return errors;
  }

  std::uint64_t index_bytes() const override {
    std::uint64_t total = 0;
    for (const char* id : kIds) {
      const cloud::CloudServer& s = *host_->find_server(id);
      total += s.index().byte_size() + s.segments().byte_size();
    }
    return total;
  }

  void layers(MetricSet& out, const Recorder& traced) override {
    report_net(out, traced, *handler_, host_->metrics_registry());
    const double host_us = median(handler_->samples.of(kRanked));
    out.set("tenant.handle_us", host_us, "us");
    double shed = 0;
    for (const char* id : kIds)
      for (const auto reason : {tenant::ShedReason::kRate, tenant::ShedReason::kInFlight,
                                tenant::ShedReason::kQueue})
        shed += static_cast<double>(
            host_->metrics_registry()
                .counter("rsse_tenant_shed_total", "Requests shed per tenant",
                         {{"tenant", id}, {"reason", tenant::to_string(reason)}})
                .value());
    out.set("tenant.shed", shed, "count");

    cloud::CloudServer& upd = *host_->find_server(kIds[0]);
    const seg::SegmentedIndex& overlay = upd.segments();
    out.set("seg.sealed_segments", static_cast<double>(overlay.sealed_count()), "count");
    out.set("seg.memtable_entries", static_cast<double>(overlay.memtable_entries()), "count");
    out.set("seg.compactions", static_cast<double>(upd.compactions_completed()), "count");
    out.set("seg.overlay_bytes", static_cast<double>(overlay.byte_size()), "bytes");
    std::error_code ec;
    const auto wal = fs::file_size(store::wal_path(store::tenant_dir(root_, kIds[0])), ec);
    const double wal_bytes = ec ? 0.0 : static_cast<double>(wal);
    out.set("store.wal_bytes", wal_bytes, "bytes");
    out.set("store.wal_bytes_per_doc_byte",
            delta_text_bytes_ > 0 ? wal_bytes / static_cast<double>(delta_text_bytes_) : 0.0,
            "ratio");

    // Replay, single-threaded, on the quiet host: the server layers on the
    // updating tenant (dynamic path), the tenant envelope around them,
    // multi-keyword search on each tenant, and the users' own work.
    // The inner and user replays split their searches over the tenants
    // as the searchers do (6 to 1).
    constexpr std::size_t kUpdOps = 384, kStatOps = kUpdOps / (kStaticEvery - 1);
    ServerReplay r;
    const std::vector<RankedOp> ops(replay_ops_.begin(), replay_ops_.begin() + kUpdOps);
    replay_ranked(upd, *cols_[0].owner, ops, r);
    report_replay(out, r);
    ServerReplay r_stat;
    replay_ranked(*host_->find_server(kIds[1]), *cols_[1].owner,
                  std::vector<RankedOp>(replay_static_ops_.begin(),
                                        replay_static_ops_.begin() + kStatOps),
                  r_stat);
    std::vector<double> inner = r.handle_us;
    inner.insert(inner.end(), r_stat.handle_us.begin(), r_stat.handle_us.end());
    out.set("tenant.inner_handle_us", median(inner), "us");
    out.set("tenant.overhead_us", host_us - median(inner), "us");
    out.set("cloud.multi_search_us",
            median(replay_multi(*host_->find_server(kIds[1]), cols_[1].creds, replay_multi_[1],
                                200)),
            "us");
    out.set("cloud.multi_search_dynamic_us",
            median(replay_multi(upd, cols_[0].creds, replay_multi_[0], 200)), "us");
    cloud::Channel direct(*host_);
    std::vector<double> user_us;
    for (std::size_t t = 0; t < 2; ++t) {
      tenant::ScopedTransport scoped(direct, kIds[t]);
      const auto& plan = t == 0 ? replay_ops_ : replay_static_ops_;
      const std::size_t n = (t == 0 ? kUpdOps : kStatOps) / 2;
      const auto us = replay_user(cols_[t].creds, scoped,
                                  std::vector<RankedOp>(plan.begin(), plan.begin() + n));
      user_us.insert(user_us.end(), us.begin(), us.end());
    }
    report_coverage(out, traced, user_us, host_us);

    // Owner side per delta: build time and cost counts; then the server
    // applying those deltas (seg apply + WAL append) straight through
    // its handler.
    std::vector<double> build_us, apply_us;
    obs::cost::Snapshot sum{};
    std::vector<cloud::UpdateRequest> reqs;
    for (std::size_t i = 0; i < 20; ++i) {
      auto [adds, removes] = next_delta();
      const auto before = obs::cost::snapshot();
      const auto t0 = Clock::now();
      cloud::UpdateRequest req;
      req.delta_id = 1000000 + i;
      req.delta = cols_[0].owner->build_update(to_documents(adds), to_ids(removes));
      build_us.push_back(seconds_since(t0) * 1e6);
      const auto d = obs::cost::delta(before, obs::cost::snapshot());
      sum.hmac_invocations += d.hmac_invocations;
      sum.entries_encrypted += d.entries_encrypted;
      sum.bytes_encrypted += d.bytes_encrypted;
      sum.opm_mappings += d.opm_mappings;
      sum.hgd_samples += d.hgd_samples;
      reqs.push_back(std::move(req));
    }
    for (const auto& req : reqs) {
      const Bytes payload = req.serialize();
      const auto t0 = Clock::now();
      (void)upd.handle(cloud::MessageType::kUpdate, payload);
      apply_us.push_back(seconds_since(t0) * 1e6);
    }
    out.set("cloud.build_update_us", median(build_us), "us");
    out.set("cloud.apply_update_us", median(apply_us), "us");
    const double n = static_cast<double>(reqs.size());
    out.set("crypto.hmac_invocations_per_delta", sum.hmac_invocations / n, "count");
    out.set("crypto.entries_encrypted_per_delta", sum.entries_encrypted / n, "count");
    out.set("crypto.bytes_encrypted_per_delta", sum.bytes_encrypted / n, "bytes");
    out.set("opse.opm_mappings_per_delta", sum.opm_mappings / n, "count");
    out.set("opse.hgd_samples_per_delta", sum.hgd_samples / n, "count");
  }

 private:
  using Delta = std::pair<std::vector<std::shared_ptr<const Doc>>, std::vector<std::uint64_t>>;

  std::shared_ptr<const Doc> churn_doc() {
    Rng& rng = *owner_rng_;
    // Every churn word once, so each of them always matches every live
    // churn document, then more churn words up to 20 to 60 tokens.
    const std::size_t n = 20 + rng.below(41);
    std::vector<std::string> tokens;
    for (std::size_t w = 0; w < kChurnWords; ++w) tokens.push_back(word(kChurnRank + w));
    while (tokens.size() < n) tokens.push_back(word(kChurnRank + rng.below(kChurnWords)));
    auto doc = make_doc(next_churn_id_++, tokens);
    live_churn_.push_back(doc->id);
    return doc;
  }

  /// One timed delta: a fresh churn document, an upsert of a base
  /// document with new text, and the removal of the oldest churn one.
  Delta next_delta() {
    Rng& rng = *owner_rng_;
    Delta d;
    d.first.push_back(churn_doc());
    const std::uint64_t id = rng.below(spec().docs);
    const CorpusSpec s = spec();
    const Zipf zipf(s.vocabulary, s.zipf);
    const std::size_t n = kUpsertMinTokens + rng.below(kUpsertMaxTokens - kUpsertMinTokens + 1);
    std::vector<std::string> tokens;
    for (std::size_t i = 0; i < n; ++i) tokens.push_back(word(zipf.draw(rng)));
    d.first.push_back(make_doc(id, tokens));
    d.second.push_back(live_churn_.front());
    live_churn_.erase(live_churn_.begin());
    return d;
  }

  /// Streams one delta and records it in the model once acknowledged.
  void apply(const std::vector<std::shared_ptr<const Doc>>& adds,
             const std::vector<std::uint64_t>& removes, Recorder* rec) {
    clock_.sent.fetch_add(1);
    const auto t0 = Clock::now();
    try {
      (void)cols_[0].owner->stream_update(*owner_scoped_, to_documents(adds), to_ids(removes));
    } catch (const std::exception& e) {
      if (rec == nullptr) throw;
      rec->fail(kUpdate, e.what());
      return;
    }
    const double s = seconds_since(t0);
    cols_[0].model->apply(adds, removes);
    clock_.acked.fetch_add(1);
    if (rec != nullptr) {
      rec->done(kUpdate, s);
      rec->update_docs += adds.size() + removes.size();
    }
    for (const auto& d : adds) {
      delta_text_bytes_ += d->text.size();
      if (d->id < spec().docs && upserted_.size() < 64 &&
          std::find(upserted_.begin(), upserted_.end(), d->id) == upserted_.end())
        upserted_.push_back(d->id);
    }
  }

  MultiOp probe(int which) const {
    const std::size_t a = kProbeRank + 2 * which;
    return MultiOp{{word(a), word(a + 1)}, which == 0, 10};
  }

  /// The four searches every cycle of every client makes on `upd`, all
  /// broken by the named fault: the two fixed probes and two generated
  /// AND/OR searches over the churn words (which every live churn
  /// document holds, so the right answer is never empty, while the base
  /// index has no churn rows). So the failed share is the same for every
  /// client and every run.
  static void known_fault_searches(Recorder& rec, TenantsUpdateMix& w, cloud::DataUser& user,
                                   Metered& meter, const std::vector<MultiOp>& plan,
                                   std::size_t& next) {
    for (int which = 0; which < 2; ++which)
      do_multi(rec, user, meter, 0, w.probe(which), &w.clock_, true);
    for (int i = 0; i < 2; ++i)
      do_multi(rec, user, meter, 0, plan[next++ % plan.size()], &w.clock_, true);
  }

  /// The owner: the four searches on `upd`, then 16 deltas to it at a
  /// fixed pace. Every ranked search on `upd` gets slower as the overlay
  /// grows, so an owner running flat out would make the search figures
  /// depend on how fast the machine happened to be; paced, the overlay at
  /// a given second of the run is the same in every run. Each delta still
  /// waits for its acknowledgement; an owner behind its pace does not
  /// sleep.
  struct Owner final : Client {
    explicit Owner(TenantsUpdateMix& w)
        : w(w), meter(*w.owner_scoped_), user(w.cols_[0].creds, meter) {}
    void cycle(Recorder& rec) override {
      known_fault_searches(rec, w, user, meter, multi, next_multi);
      for (std::size_t i = 4; i < kCycle; ++i) {
        std::this_thread::sleep_until(
            w.paced_from_ + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(w.paced_++ / kDeltasPerSecond)));
        ++rec.attempted[kUpdate];
        auto [adds, removes] = w.next_delta();
        w.apply(adds, removes, &rec);
      }
    }
    TenantsUpdateMix& w;
    Metered meter;
    cloud::DataUser user;
    std::vector<MultiOp> multi;
    std::size_t next_multi = 0;
  };

  /// A searcher: the four searches on `upd`, 2 multi-keyword searches on
  /// the static tenant, and 14 ranked searches per cycle, 12 on `upd` and
  /// 2 on `stat`. Ranked searches on `upd` take the dynamic path and cost
  /// about twice those on `stat`; an even split would put the median of
  /// their latencies in the gap between the two, where it swings widely.
  struct Searcher final : Client {
    Searcher(TenantsUpdateMix& w, std::unique_ptr<net::RemoteChannel> ch)
        : w(w), channel(std::move(ch)),
          scoped{tenant::ScopedTransport(*channel, kIds[0]),
                 tenant::ScopedTransport(*channel, kIds[1])},
          meters{Metered(scoped[0]), Metered(scoped[1])},
          users{cloud::DataUser(w.cols_[0].creds, meters[0]),
                cloud::DataUser(w.cols_[1].creds, meters[1])} {}
    void cycle(Recorder& rec) override {
      known_fault_searches(rec, w, users[0], meters[0], multi[0], next_multi[0]);
      for (std::size_t i = 0; i < 2; ++i)
        do_multi(rec, users[1], meters[1], 1, multi[1][next_multi[1]++ % multi[1].size()],
                 nullptr, false);
      for (std::size_t i = 0; i < 14; ++i) {
        const std::size_t t = i % kStaticEvery == kStaticEvery - 1 ? 1 : 0;
        do_ranked(rec, users[t], meters[t], t, ranked[t][next[t]++ % ranked[t].size()],
                  t == 0 ? &w.clock_ : nullptr);
      }
    }
    TenantsUpdateMix& w;
    std::unique_ptr<net::RemoteChannel> channel;
    std::array<tenant::ScopedTransport, 2> scoped;
    std::array<Metered, 2> meters;
    std::array<cloud::DataUser, 2> users;
    std::array<std::vector<RankedOp>, 2> ranked;
    std::array<std::vector<MultiOp>, 2> multi;  ///< per tenant
    std::array<std::size_t, 2> next{}, next_multi{};
  };

  std::uint64_t seed_;
  bool traced_;
  std::string root_;
  std::array<Collection, 2> cols_;
  // In start order, so the endpoint stops before what it serves goes.
  std::unique_ptr<tenant::TenantHost> host_;
  std::unique_ptr<TimedHandler> handler_;
  std::unique_ptr<net::NetworkServer> net_;
  std::unique_ptr<net::RemoteChannel> owner_channel_;
  std::unique_ptr<tenant::ScopedTransport> owner_scoped_;
  std::unique_ptr<Rng> owner_rng_;
  VersionClock clock_;
  Clock::time_point paced_from_ = Clock::now();  ///< set when the load starts
  double paced_ = 0;                             ///< deltas the pace has allowed
  std::uint64_t next_churn_id_ = 100000;
  std::vector<std::uint64_t> live_churn_;
  std::vector<std::uint64_t> upserted_;
  std::uint64_t delta_text_bytes_ = 0;
  std::vector<RankedOp> replay_ops_;
  std::vector<RankedOp> replay_static_ops_;
  std::array<std::vector<MultiOp>, 2> replay_multi_;
};

// ---- cluster_multi_keyword --------------------------------------------

class ClusterMultiKeyword final : public Workload {
 public:
  static constexpr std::uint32_t kShards = 3;
  static constexpr std::uint32_t kReplicas = 2;

  ClusterMultiKeyword(std::uint64_t seed, bool traced) : seed_(seed), traced_(traced) {
    Rng rng(seed * 11 + 3);
    col_.docs = generate_docs(spec(), 0, rng);
    col_.model = std::make_unique<Model>(col_.docs);
  }

  static CorpusSpec spec() { return CorpusSpec{500, 400, 1.0, 20, 100, 0}; }

  double setup(const std::string& dir, SetupLayers* layers) override {
    const ir::Corpus corpus = to_corpus(col_.docs);
    const auto t0 = Clock::now();
    col_.owner = make_owner(seed_, 9);
    {
      cloud::CloudServer built;
      outsource(*col_.owner, corpus, built, layers);
      timed_into(layers ? &layers->save_s : nullptr,
                 [&] { store::save_cluster_deployment(built, kShards, dir); });
    }
    // Wired the way `rsse search` wires a cluster deployment, with each
    // shard loaded twice as its two replicas.
    cluster::ClusterManifest manifest;
    std::vector<std::unique_ptr<cluster::ReplicaSet>> sets;
    timed_into(layers ? &layers->load_s : nullptr, [&] {
      manifest = store::load_cluster_manifest(dir);
      for (std::uint32_t s = 0; s < manifest.num_shards; ++s) {
        auto set = std::make_unique<cluster::ReplicaSet>();
        for (std::uint32_t r = 0; r < kReplicas; ++r) {
          auto server = std::make_unique<cloud::CloudServer>();
          store::load_cluster_shard(dir, s, *server);
          server->enable_background_compaction();
          std::unique_ptr<cloud::Transport> link = std::make_unique<cloud::Channel>(*server);
          if (traced_) link = std::make_unique<ShardProbe>(std::move(link), shard_stats_);
          set->add_replica(std::move(link));
          servers_.push_back(std::move(server));
        }
        sets.push_back(std::move(set));
      }
    });
    coordinator_ = std::make_unique<cluster::ClusterCoordinator>(manifest, std::move(sets));
    const double s = seconds_since(t0);
    col_.outsourced();
    return s;
  }

  std::vector<std::unique_ptr<Client>> clients(std::size_t n) override {
    std::vector<std::unique_ptr<Client>> out;
    const Zipf zipf(spec().vocabulary, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      Rng rng(seed_ * 31 + 3000 + i);
      auto c = std::make_unique<User>(*coordinator_, col_.creds);
      c->ranked = ranked_plan(rng, zipf, 0);
      c->multi = multi_plan(rng, zipf, 0);
      if (i == 0) replay_multi_ = c->multi;
      if (i == 0) replay_ops_ = c->ranked;
      out.push_back(std::move(c));
    }
    return out;
  }

  std::vector<std::string> check(Recorder& rec) override {
    return check_all(rec, {&col_});
  }

  std::vector<std::string> final_checks() override {
    std::vector<std::string> parts_err;
    std::vector<const sse::SecureIndex*> parts;
    for (std::size_t s = 0; s < servers_.size(); s += kReplicas)
      parts.push_back(&servers_[s]->index());
    const std::string why = check_base(*col_.model, col_.levels, *col_.owner, parts);
    if (!why.empty()) parts_err.push_back(why);
    return parts_err;
  }

  std::uint64_t index_bytes() const override {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < servers_.size(); s += kReplicas)
      total += servers_[s]->index().byte_size() + servers_[s]->segments().byte_size();
    return total;
  }

  void layers(MetricSet& out, const Recorder& traced) override {
    out.set("cluster.call_us", median([&] {
              auto v = traced.call_us;
              v.insert(v.end(), traced.multi_call_us.begin(), traced.multi_call_us.end());
              return v;
            }()),
            "us");
    out.set("cluster.call_us.ranked_search", median(traced.call_us), "us");
    out.set("cluster.call_us.multi_search", median(traced.multi_call_us), "us");
    out.set("cluster.shard_call_us", median(shard_stats_.samples.all()), "us");
    const double queries = static_cast<double>(traced.call_us.size() + traced.multi_call_us.size());
    out.set("cluster.shard_calls_per_query",
            queries > 0 ? static_cast<double>(shard_stats_.calls.load()) / queries : 0.0, "ratio");
    const auto snap = coordinator_->metrics();
    out.set("cluster.scatter_gathers", static_cast<double>(snap.scatter_gathers), "count");
    double failovers = 0;
    for (std::uint32_t s = 0; s < kShards; ++s)
      failovers += static_cast<double>(coordinator_->shard(s).failovers());
    out.set("cluster.failovers", failovers, "count");

    // Replay, single-threaded: coordinator self time per multi-keyword
    // query (call minus its slowest shard call, which the replica probes
    // record only while tracing), and the server layers on each
    // keyword's owning shard.
    std::vector<double> self_us, multi_us;
    tracing.store(true);
    const sse::TrapdoorGenerator gen(col_.creds.x, col_.creds.y, col_.creds.params.p_bits);
    for (std::size_t i = 0; i < 200; ++i) {
      const MultiOp& op = replay_multi_[i];
      cloud::MultiSearchRequest req;
      req.trapdoor = ext::make_conjunctive_trapdoor(gen, op.terms);
      req.mode = op.conjunctive ? cloud::MultiSearchMode::kConjunctive
                                : cloud::MultiSearchMode::kDisjunctive;
      req.top_k = op.k;
      const Bytes payload = req.serialize();
      shard_stats_.slowest_ns.store(0);
      auto t0 = Clock::now();
      (void)coordinator_->call(cloud::MessageType::kMultiSearch, payload);
      const double call_us = seconds_since(t0) * 1e6;
      self_us.push_back(call_us - static_cast<double>(shard_stats_.slowest_ns.load()) / 1e3);
      // The same query as the shards see it: one sub-request per owning
      // shard, each answered by that shard's server.
      std::map<std::uint32_t, cloud::MultiSearchRequest> groups;
      for (const sse::Trapdoor& td : req.trapdoor.trapdoors) {
        auto& g = groups[coordinator_->shard_map().shard_of_label(td.label)];
        g.mode = req.mode;
        g.top_k = req.top_k;
        g.trapdoor.trapdoors.push_back(td);
      }
      double sum = 0;
      for (const auto& [shard, sub] : groups) {
        t0 = Clock::now();
        (void)servers_[shard * kReplicas]->multi_search(sub);
        sum += seconds_since(t0) * 1e6;
      }
      multi_us.push_back(sum);
    }
    tracing.store(false);
    out.set("cluster.self_us", median(self_us), "us");
    out.set("cloud.multi_search_us", median(multi_us), "us");
    ServerReplay r;
    for (std::size_t i = 0; i < 400; ++i) {
      const RankedOp& op = replay_ops_[i];
      const sse::Trapdoor td = col_.owner->rsse().trapdoor(op.term);
      const std::uint32_t shard = coordinator_->shard_map().shard_of_label(td.label);
      replay_ranked(*servers_[shard * kReplicas], *col_.owner, {op}, r);
    }
    report_replay(out, r);
    report_coverage(out, traced,
                    replay_user(col_.creds, *coordinator_,
                                std::vector<RankedOp>(replay_ops_.begin(),
                                                      replay_ops_.begin() + 200)),
                    median(traced.call_us));
  }

 private:
  /// A user of the cluster: 10 ranked, 5 AND and 5 OR searches a cycle.
  struct User final : Client {
    User(cloud::Transport& coordinator, const cloud::UserCredentials& creds)
        : meter(coordinator), user(creds, meter) {}
    void cycle(Recorder& rec) override {
      for (std::size_t i = 0; i < kCycle; ++i) {
        if (i % 2 == 0)
          do_ranked(rec, user, meter, 0, ranked[next_ranked++ % ranked.size()], nullptr);
        else
          do_multi(rec, user, meter, 0, multi[next_multi++ % multi.size()], nullptr, false);
      }
    }
    Metered meter;
    cloud::DataUser user;
    std::vector<RankedOp> ranked;
    std::vector<MultiOp> multi;
    std::size_t next_ranked = 0, next_multi = 0;
  };

  std::uint64_t seed_;
  bool traced_;
  Collection col_;
  // The coordinator goes first, then the replicas and the probes' stats.
  ShardStats shard_stats_;
  std::vector<std::unique_ptr<cloud::CloudServer>> servers_;
  std::unique_ptr<cluster::ClusterCoordinator> coordinator_;
  std::vector<MultiOp> replay_multi_;
  std::vector<RankedOp> replay_ops_;
};

// ----------------------------------------------------------------------
// Command line and the run

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_work";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> make(const Args& a) {
  if (a.workload == "search_static") return std::make_unique<SearchStatic>(a.seed, a.trace);
  if (a.workload == "tenants_update_mix")
    return std::make_unique<TenantsUpdateMix>(a.seed, a.trace);
  if (a.workload == "cluster_multi_keyword")
    return std::make_unique<ClusterMultiKeyword>(a.seed, a.trace);
  throw std::invalid_argument("unknown workload " + a.workload);
}

/// Pins the process (every thread it starts from here on) to the last
/// CPU it may run on. On a virtual machine whose vCPUs share physical
/// cores with other guests, a request handed between threads on
/// different vCPUs waits whenever the target vCPU is not running, and
/// that wait swings with the neighbours' load; on one CPU every hand-off
/// is a local context switch and the figures hold still.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) last = c;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0)
    throw std::runtime_error("sched_setaffinity failed");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string json_number(double v) {
  std::ostringstream s;
  s.precision(10);
  s << v;
  return s.str();
}

int run(const Args& args) {
  obs::Profiler::global().set_enabled(true);  // as `rsse serve` runs it
  fs::remove_all(args.workdir);
  fs::create_directories(args.workdir);
  pin_to_one_cpu();
  // One searching connection (plus the owner's on tenants_update_mix):
  // on one CPU a second searcher would only queue behind the first.
  const std::size_t searchers = 1;

  // Set-up, several times; the last deployment serves the run.
  const int setups = args.trace ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  SetupLayers setup_layers;
  for (int r = 0; r < setups; ++r) {
    w.reset();
    const std::string dir = args.workdir + "/deploy" + std::to_string(r);
    w = make(args);
    setup_s.push_back(w->setup(dir, args.trace ? &setup_layers : nullptr));
    std::cerr << "setup " << r << ": " << setup_s.back() << " s\n";
  }
  w->prepare();
  auto clients = w->clients(searchers);

  const double warmup = std::min(1.0, args.seconds / 5);
  (void)run_slice(clients, warmup);

  Recorder untraced, traced;
  if (!args.trace) {
    untraced = run_slice(clients, args.seconds);
  } else {
    // Untraced and traced slices in the order U T T U U T T U, so steady
    // drift (a growing overlay) lands on both sides of
    // trace.overhead_pct alike.
    constexpr int kSlices = 8;
    for (int i = 0; i < kSlices; ++i) {
      const bool traced_slice = (i + 1) / 2 % 2 == 1;
      tracing.store(traced_slice);
      (traced_slice ? traced : untraced).merge(run_slice(clients, args.seconds / kSlices));
    }
    tracing.store(false);
  }

  // Correctness of every kept answer, then the after-the-run checks.
  std::vector<std::string> errors = w->check(untraced);
  for (auto& e : w->check(traced)) errors.push_back(std::move(e));
  for (auto& e : w->final_checks()) errors.push_back(std::move(e));

  // Latencies come from the untraced slices; counts cover every slice.
  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t t = 0; t < kOpTypes; ++t) {
    const std::uint64_t a = untraced.attempted[t] + traced.attempted[t];
    const std::uint64_t f = untraced.failed[t] + traced.failed[t];
    attempted += a;
    failed += f;
    std::cout << "ops " << kOpNames[t] << " attempted=" << a << " failed=" << f << "\n";
  }
  std::cout << "known-fault failures (multi-keyword search ignores the update overlay): "
            << untraced.known_faults + traced.known_faults << "\n";
  for (const auto& u : untraced.unexpected) std::cerr << "unexpected failure: " << u << "\n";
  for (const auto& u : traced.unexpected) std::cerr << "unexpected failure: " << u << "\n";
  for (const auto& e : errors) std::cerr << "wrong answer: " << e << "\n";

  MetricSet m;
  if (!args.trace) {
    // Throughput and median latency: medians over 2 s windows.
    const int windows = std::max(1, static_cast<int>(args.seconds / 2 + 0.5));
    const Windowed win = windowed(untraced, args.seconds, windows);
    std::cerr << "window throughput (ops/s):";
    for (const double x : win.per_window_ops_s) std::cerr << " " << x;
    std::cerr << "\n";
    m.set("setup_s", median(setup_s), "s");
    m.set("throughput_ops_s", win.throughput_ops_s, "ops/s");
    m.set("search_p50_ms", win.search_p50_ms, "ms");
    // The tail over the whole timed phase: a 2 s window of the update mix
    // holds too few ranked searches for ten samples beyond its p99.
    m.set("search_p99_ms", quantile(untraced.latency_ms[kRanked], 0.99), "ms");
    m.set("index_bytes", static_cast<double>(w->index_bytes()), "bytes");
    m.set("bytes_per_search",
          untraced.searches_ok ? static_cast<double>(untraced.search_bytes) / untraced.searches_ok : 0.0,
          "bytes");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    // Every per-layer metric, 0 where the workload leaves a layer idle.
    for (const char* name :
         {"ir.index_build_s", "sse.build_index_s", "cloud.outsource_s", "cloud.file_encrypt_s",
          "store.save_s", "store.load_s"})
      m.set(name, 0, "s");
    for (const char* name : {"crypto.hmac_invocations", "crypto.entries_encrypted",
                             "opse.opm_mappings", "opse.hgd_samples",
                             "crypto.hmac_invocations_per_delta",
                             "crypto.entries_encrypted_per_delta",
                             "opse.opm_mappings_per_delta", "opse.hgd_samples_per_delta",
                             "sse.row_entries", "net.pipelined_requests", "net.in_flight_peak",
                             "net.shed", "tenant.shed", "seg.sealed_segments",
                             "seg.memtable_entries", "seg.compactions",
                             "cluster.scatter_gathers", "cluster.failovers"})
      m.set(name, 0, "count");
    for (const char* name : {"crypto.bytes_encrypted", "crypto.bytes_encrypted_per_delta",
                             "seg.overlay_bytes", "store.wal_bytes"})
      m.set(name, 0, "bytes");
    for (const char* name :
         {"sse.search_us", "cloud.ranked_search_us", "cloud.handle_us", "cloud.multi_search_us",
          "cloud.multi_search_dynamic_us", "cloud.user_self_us", "cloud.user_replay_us",
          "net.call_us", "net.server_handle_us", "net.wait_us",
          "tenant.handle_us", "tenant.inner_handle_us", "tenant.overhead_us",
          "cloud.build_update_us", "cloud.apply_update_us", "cluster.call_us",
          "cluster.call_us.ranked_search", "cluster.call_us.multi_search",
          "cluster.shard_call_us", "cluster.self_us"})
      m.set(name, 0, "us");
    m.set("store.wal_bytes_per_doc_byte", 0, "ratio");
    m.set("cluster.shard_calls_per_query", 0, "ratio");

    m.set("ir.index_build_s", setup_layers.index_build_s, "s");
    m.set("sse.build_index_s", setup_layers.build_index_s, "s");
    m.set("cloud.outsource_s", setup_layers.outsource_s, "s");
    m.set("cloud.file_encrypt_s", setup_layers.outsource_s - setup_layers.build_index_s, "s");
    m.set("store.save_s", setup_layers.save_s, "s");
    m.set("store.load_s", setup_layers.load_s, "s");
    m.set("crypto.hmac_invocations", static_cast<double>(setup_layers.cost.hmac_invocations),
          "count");
    m.set("crypto.entries_encrypted", static_cast<double>(setup_layers.cost.entries_encrypted),
          "count");
    m.set("crypto.bytes_encrypted", static_cast<double>(setup_layers.cost.bytes_encrypted),
          "bytes");
    m.set("opse.opm_mappings", static_cast<double>(setup_layers.cost.opm_mappings), "count");
    m.set("opse.hgd_samples", static_cast<double>(setup_layers.cost.hgd_samples), "count");

    // The operation latencies that only some workloads have, from the
    // untraced slices.
    m.set("multi_search_p50_ms", quantile(untraced.latency_ms[kMulti], 0.50), "ms");
    m.set("multi_search_p99_ms", quantile(untraced.latency_ms[kMulti], 0.99), "ms");
    m.set("update_p50_ms", quantile(untraced.latency_ms[kUpdate], 0.50), "ms");
    m.set("update_p99_ms", quantile(untraced.latency_ms[kUpdate], 0.99), "ms");
    // The owner's unpaced service rate: documents acknowledged per second
    // spent waiting on stream_update (the pace itself would read 75).
    double update_s = 0;
    for (const double ms : untraced.latency_ms[kUpdate]) update_s += ms / 1e3;
    m.set("update_docs_s", update_s > 0 ? static_cast<double>(untraced.update_docs) / update_s : 0.0,
          "docs/s");

    m.set("cloud.user_self_us", median(traced.user_self_us), "us");
    w->layers(m, traced);

    const double untraced_p50 = quantile(untraced.latency_ms[kRanked], 0.50);
    const double traced_p50 = quantile(traced.latency_ms[kRanked], 0.50);
    m.set("trace.overhead_pct",
          untraced_p50 > 0 ? 100.0 * (traced_p50 - untraced_p50) / untraced_p50 : 0.0, "%");
  }

  clients.clear();
  w.reset();
  fs::remove_all(args.workdir);

  const bool correct = errors.empty();
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : m.all()) {
    out << (first ? "" : ", ") << "\"" << metric.name << "\": {\"value\": "
        << json_number(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace servicebench

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  try {
    return servicebench::run(servicebench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "servicebench: " << e.what() << "\n";
    return 1;
  }
}
