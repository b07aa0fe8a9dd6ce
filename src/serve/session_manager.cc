#include "serve/session_manager.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "distance/ted.h"
#include "engine/artifact_v4.h"
#include "engine/model.h"

namespace ida::serve {

namespace {

// Capture arrival timestamps: integral microseconds on the process-wide
// monotonic epoch (matches CaptureRecord::arrival_us).
uint64_t ArrivalMicros() {
  return static_cast<uint64_t>(obs::ProcessSeconds() * 1e6 + 0.5);
}

}  // namespace

SessionManager::SessionManager(
    std::shared_ptr<const engine::Predictor> predictor, ServeOptions options,
    obs::ObsConfig obs)
    // ida-lint: allow(lock-discipline): member initialization happens
    // before the object can be shared, so no lock is needed yet
    : options_(options), obs_(obs), current_(std::move(predictor)) {
  // Resolve the capture_path convenience knob into an owned recorder that
  // flushes the trace file when the manager is destroyed.
  if (obs_.enabled && obs_.capture == nullptr && !obs_.capture_path.empty()) {
    owned_capture_ = std::make_shared<obs::TraceRecorder>(obs_.capture_path);
    obs_.capture = owned_capture_.get();
  }
  if (options_.num_shards < 1) options_.num_shards = 1;
  const size_t shards = static_cast<size_t>(options_.num_shards);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (options_.max_live_sessions > 0) {
    // Even split, rounded up so the global ceiling is reachable.
    shard_capacity_ = (options_.max_live_sessions + shards - 1) / shards;
  }
  if (obs_.metrics_on()) {
    obs::MetricsRegistry& reg = obs_.reg();
    metrics_.opens = reg.GetCounter("ida.serve.opens");
    metrics_.closes = reg.GetCounter("ida.serve.closes");
    metrics_.evictions = reg.GetCounter("ida.serve.evictions");
    metrics_.appends = reg.GetCounter("ida.serve.appends");
    metrics_.advises = reg.GetCounter("ida.serve.advises");
    metrics_.batch_calls = reg.GetCounter("ida.serve.batch_calls");
    metrics_.batch_queries = reg.GetCounter("ida.serve.batch_queries");
    metrics_.context_updates = reg.GetCounter("ida.serve.context_updates");
    metrics_.reloads = reg.GetCounter("ida.serve.reloads");
    metrics_.live = reg.GetGauge("ida.serve.live_sessions");
    metrics_.epoch = reg.GetGauge("ida.serve.epoch");
    metrics_.advise_seconds =
        reg.GetHistogram("ida.serve.advise_seconds");
    metrics_.append_seconds =
        reg.GetHistogram("ida.serve.append_seconds");
    metrics_.epoch->Set(1.0);
  }
}

SessionManager::Shard& SessionManager::ShardFor(
    const std::string& session_id) {
  const size_t h = std::hash<std::string>{}(session_id);
  return *shards_[h % shards_.size()];
}

const std::shared_ptr<const engine::Predictor>& SessionManager::Model(
    Shard& shard) {
  // Lazy epoch refresh: the shard re-reads the published model only when
  // the lock-free epoch signal says one exists. model_mu_ is strictly
  // inner to the shard lock (Reload never takes a shard lock), so the
  // ordering is deadlock-free.
  const uint64_t published = epoch_.load(std::memory_order_acquire);
  if (shard.epoch != published) {
    MutexLock lock(&model_mu_);
    shard.predictor = current_;
    shard.epoch = epoch_.load(std::memory_order_acquire);
  }
  return shard.predictor;
}

void SessionManager::RefreshContext(LiveSession& s,
                                    const engine::Predictor& model) {
  const int t = s.tree.num_steps();
  const int n = model.config().n_context_size;
  if (s.context_step == t && s.context_n == n) return;
  s.builder.Extract(t, n, &s.context);
  // Re-prepare after every context change: the flattened view borrows
  // node storage from `context`, which Extract may have reallocated.
  s.flat = SessionDistance::Prepare(s.context);
  s.context_step = t;
  s.context_n = n;
  if (metrics_.context_updates != nullptr) {
    metrics_.context_updates->Increment();
  }
}

void SessionManager::Capture(obs::CaptureKind kind, uint64_t arrival_us,
                             const std::string& session_id,
                             const LiveSession& s, int parent,
                             const Prediction* answer,
                             std::string payload) const {
  obs::CaptureRecord r;
  r.kind = kind;
  r.arrival_us = arrival_us;
  r.session_id = session_id;
  r.step = s.tree.num_steps();
  r.parent = parent;
  r.context_digest = ContextDigest(s.context);
  if (answer != nullptr) {
    r.label = answer->label;
    r.confidence = answer->confidence;
  }
  r.payload = std::move(payload);
  obs_.capture->Record(std::move(r));
}

void SessionManager::Touch(Shard& shard, LiveSession& s) {
  if (s.lru != shard.lru.begin()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, s.lru);
  }
}

void SessionManager::SetLiveGauge() const {
  if (metrics_.live != nullptr) {
    metrics_.live->Set(
        static_cast<double>(live_sessions_.load(std::memory_order_relaxed)));
  }
}

Status SessionManager::Open(const std::string& session_id, DisplayPtr root,
                            const std::string& user_id,
                            const std::string& dataset_id) {
  if (root == nullptr) {
    return Status::InvalidArgument("session root display must not be null");
  }
  const uint64_t arrival = obs_.capture_on() ? ArrivalMicros() : 0;
  Shard& shard = ShardFor(session_id);
  MutexLock lock(&shard.mu);
  if (shard.sessions.count(session_id) > 0) {
    return Status::AlreadyExists("session '" + session_id +
                                 "' is already open");
  }
  // LRU eviction keeps the shard within its share of max_live_sessions.
  while (shard_capacity_ > 0 && shard.sessions.size() >= shard_capacity_ &&
         !shard.lru.empty()) {
    const std::string victim = shard.lru.back();
    shard.lru.pop_back();
    shard.sessions.erase(victim);
    live_sessions_.fetch_sub(1, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_.evictions != nullptr) metrics_.evictions->Increment();
  }
  auto session = std::make_unique<LiveSession>(session_id, user_id,
                                               dataset_id, std::move(root));
  LiveSession& s = *session;
  shard.lru.push_front(session_id);
  s.lru = shard.lru.begin();
  shard.sessions.emplace(session_id, std::move(session));
  live_sessions_.fetch_add(1, std::memory_order_relaxed);
  // Prepare the root state eagerly so the first Advise is already served
  // from a warm context.
  RefreshContext(s, *Model(shard));
  if (obs_.capture_on()) {
    Capture(obs::CaptureKind::kOpen, arrival, session_id, s, -1, nullptr,
            s.tree.dataset_id());
  }
  if (metrics_.opens != nullptr) metrics_.opens->Increment();
  SetLiveGauge();
  return Status::OK();
}

Result<int> SessionManager::Append(const std::string& session_id,
                                   int parent_id, const Action& action) {
  const bool timed = obs_.metrics_on();
  const obs::TracePoint t0 = timed ? obs::TraceNow() : obs::TracePoint{};
  const uint64_t arrival = obs_.capture_on() ? ArrivalMicros() : 0;
  Shard& shard = ShardFor(session_id);
  MutexLock lock(&shard.mu);
  auto it = shard.sessions.find(session_id);
  if (it == shard.sessions.end()) {
    return Status::NotFound("session '" + session_id + "' is not live");
  }
  LiveSession& s = *it->second;
  IDA_ASSIGN_OR_RETURN(int node, s.tree.ApplyFrom(parent_id, action, exec_));
  // The incremental update: O(affected subtree), not O(session length).
  RefreshContext(s, *Model(shard));
  Touch(shard, s);
  if (obs_.capture_on()) {
    Capture(obs::CaptureKind::kAppend, arrival, session_id, s, parent_id,
            nullptr, action.Serialize());
  }
  if (timed) {
    metrics_.appends->Increment();
    metrics_.append_seconds->Observe(obs::SecondsSince(t0));
  }
  return node;
}

Result<Prediction> SessionManager::Advise(const std::string& session_id) {
  const bool timed = obs_.metrics_on();
  const obs::TracePoint t0 = timed ? obs::TraceNow() : obs::TracePoint{};
  const uint64_t arrival = obs_.capture_on() ? ArrivalMicros() : 0;
  Shard& shard = ShardFor(session_id);
  MutexLock lock(&shard.mu);
  auto it = shard.sessions.find(session_id);
  if (it == shard.sessions.end()) {
    return Status::NotFound("session '" + session_id + "' is not live");
  }
  LiveSession& s = *it->second;
  const std::shared_ptr<const engine::Predictor>& model = Model(shard);
  // Covers the Open-then-Advise case and an n change across a reload; a
  // context already maintained by Append is served as-is.
  RefreshContext(s, *model);
  Prediction p = model->PredictPrepared(s.flat, s.scratch);
  Touch(shard, s);
  if (obs_.capture_on()) {
    Capture(obs::CaptureKind::kAdvise, arrival, session_id, s, -1, &p, {});
  }
  if (timed) {
    metrics_.advises->Increment();
    metrics_.advise_seconds->Observe(obs::SecondsSince(t0));
  }
  return p;
}

Result<std::vector<Prediction>> SessionManager::AdviseBatch(
    const std::vector<std::string>& session_ids) {
  const uint64_t arrival = obs_.capture_on() ? ArrivalMicros() : 0;
  std::vector<Prediction> out(session_ids.size());
  if (session_ids.empty()) return out;
  // Group request positions by shard, preserving input order within each
  // group (groups are visited in shard order, so two overlapping batches
  // lock shards in a consistent order).
  std::vector<std::vector<size_t>> by_shard(shards_.size());
  for (size_t i = 0; i < session_ids.size(); ++i) {
    const size_t h = std::hash<std::string>{}(session_ids[i]);
    by_shard[h % shards_.size()].push_back(i);
  }
  for (size_t si = 0; si < by_shard.size(); ++si) {
    const std::vector<size_t>& group = by_shard[si];
    if (group.empty()) continue;
    Shard& shard = *shards_[si];
    MutexLock lock(&shard.mu);
    const std::shared_ptr<const engine::Predictor>& model = Model(shard);
    std::vector<NContext> queries;
    queries.reserve(group.size());
    for (size_t pos : group) {
      auto it = shard.sessions.find(session_ids[pos]);
      if (it == shard.sessions.end()) {
        return Status::NotFound("session '" + session_ids[pos] +
                                "' is not live");
      }
      LiveSession& s = *it->second;
      RefreshContext(s, *model);
      queries.push_back(s.context);
      Touch(shard, s);
    }
    // One engine batch per shard: the existing PredictBatch fans the
    // group out over the model's thread pool; per-query output is
    // bitwise-identical to a lone Advise.
    std::vector<Prediction> group_out = model->PredictBatch(queries);
    for (size_t gi = 0; gi < group.size(); ++gi) {
      out[group[gi]] = group_out[gi];
      if (obs_.capture_on()) {
        // Batch members replay as individual Advise calls; the capture
        // stream needs no distinct batch kind.
        const std::string& sid = session_ids[group[gi]];
        Capture(obs::CaptureKind::kAdvise, arrival, sid,
                *shard.sessions.find(sid)->second, -1, &group_out[gi], {});
      }
    }
    if (metrics_.batch_calls != nullptr) {
      metrics_.batch_calls->Increment();
      metrics_.batch_queries->Add(group.size());
      metrics_.advises->Add(group.size());
    }
  }
  return out;
}

Status SessionManager::Close(const std::string& session_id) {
  const uint64_t arrival = obs_.capture_on() ? ArrivalMicros() : 0;
  Shard& shard = ShardFor(session_id);
  MutexLock lock(&shard.mu);
  auto it = shard.sessions.find(session_id);
  if (it == shard.sessions.end()) {
    return Status::NotFound("session '" + session_id + "' is not live");
  }
  if (obs_.capture_on()) {
    Capture(obs::CaptureKind::kClose, arrival, session_id, *it->second, -1,
            nullptr, {});
  }
  shard.lru.erase(it->second->lru);
  shard.sessions.erase(it);
  live_sessions_.fetch_sub(1, std::memory_order_relaxed);
  if (metrics_.closes != nullptr) metrics_.closes->Increment();
  SetLiveGauge();
  return Status::OK();
}

obs::ObsConfig SessionManager::PredictorObs() const {
  MutexLock lock(&model_mu_);
  return current_->obs();
}

void SessionManager::Publish(engine::Predictor next) {
  auto published = std::make_shared<const engine::Predictor>(std::move(next));
  uint64_t epoch = 0;
  {
    MutexLock lock(&model_mu_);
    current_ = std::move(published);
    epoch = epoch_.load(std::memory_order_relaxed) + 1;
    epoch_.store(epoch, std::memory_order_release);
  }
  if (metrics_.reloads != nullptr) {
    metrics_.reloads->Increment();
    metrics_.epoch->Set(static_cast<double>(epoch));
  }
}

Status SessionManager::Reload(engine::TrainedModel model) {
  // Build the replacement fully before publishing anything: a model that
  // fails validation leaves the served epoch untouched.
  IDA_ASSIGN_OR_RETURN(
      engine::Predictor loaded,
      engine::Predictor::Load(std::move(model), PredictorObs()));
  Publish(std::move(loaded));
  return Status::OK();
}

Status SessionManager::ReloadFromFile(const std::string& path) {
  // Magic / version / structure and every section checksum are validated
  // here, before any swap: a torn or corrupt artifact is rejected with
  // the loader's Status. A hot reload replaces a model that is serving
  // well, so it pays the eager check that a cold start may defer.
  const auto wrap = [&path](const Status& s) {
    return Status(s.code(), path + ": " + s.message());
  };
  IDA_ASSIGN_OR_RETURN(MappedArtifact mapped, MappedArtifact::Open(path));
  Result<ModelConfig> config = engine::v4::PeekConfig(mapped);
  if (!config.ok()) return wrap(config.status());
  config->load.eager_checksums = true;
  Result<engine::Predictor> loaded = engine::Predictor::LoadMapped(
      std::make_shared<const MappedArtifact>(std::move(mapped)),
      std::move(*config), PredictorObs());
  if (!loaded.ok()) return wrap(loaded.status());
  Publish(std::move(*loaded));
  return Status::OK();
}

ServeInfo SessionManager::Info() const {
  ServeInfo info;
  info.epoch = epoch_.load(std::memory_order_acquire);
  info.live_sessions = live_sessions_.load(std::memory_order_relaxed);
  info.evictions = evictions_.load(std::memory_order_relaxed);
  return info;
}

std::shared_ptr<const engine::Predictor> SessionManager::predictor() const {
  MutexLock lock(&model_mu_);
  return current_;
}

}  // namespace ida::serve
