#include "serve/registry.hpp"

#include <utility>

#include "math/rng.hpp"

namespace isr::serve {

const model::PerfModel* FittedModels::find(const std::string& arch,
                                           model::RendererKind kind) const {
  for (const Entry& e : entries)
    if (e.arch == arch && e.kind == kind) return &e.model;
  return nullptr;
}

std::uint64_t ModelRegistry::fingerprint(const model::StudyConfig& config) {
  // Length-prefix every list so ({"a","b"},{}) and ({"a"},{"b"}) cannot
  // collide by concatenation.
  std::uint64_t h = hash_seed(config.seed, std::uint64_t{0x5EBEDull});
  h = hash_combine(h, config.archs.size());
  for (const std::string& a : config.archs) h = hash_combine(h, a);
  h = hash_combine(h, config.renderers.size());
  for (const model::RendererKind k : config.renderers)
    h = hash_combine(h, static_cast<std::uint64_t>(k));
  h = hash_combine(h, config.sims.size());
  for (const std::string& s : config.sims) h = hash_combine(h, s);
  h = hash_combine(h, config.tasks.size());
  for (const int t : config.tasks) h = hash_combine(h, static_cast<std::uint64_t>(t));
  h = hash_combine(h, static_cast<std::uint64_t>(config.samples_per_config));
  h = hash_combine(h, static_cast<std::uint64_t>(config.min_image));
  h = hash_combine(h, static_cast<std::uint64_t>(config.max_image));
  h = hash_combine(h, static_cast<std::uint64_t>(config.min_n));
  h = hash_combine(h, static_cast<std::uint64_t>(config.max_n));
  h = hash_combine(h, static_cast<std::uint64_t>(config.vr_samples));
  h = hash_combine(h, static_cast<std::uint64_t>(config.sim_steps));
  return h;
}

FittedModels fit_bundle(const model::StudyConfig& config,
                        const std::vector<model::Observation>& observations,
                        std::uint64_t epoch) {
  FittedModels fitted;
  fitted.fingerprint = ModelRegistry::fingerprint(config);
  fitted.epoch = epoch;
  fitted.corpus_size = observations.size();
  for (const std::string& arch : config.archs) {
    for (const model::RendererKind kind : config.renderers) {
      const std::vector<model::RenderSample> samples =
          model::samples_for(observations, arch, kind);
      if (samples.empty()) continue;  // combination excluded from the corpus
      FittedModels::Entry entry;
      entry.arch = arch;
      entry.kind = kind;
      entry.model = model::PerfModel::fit(kind, samples);
      fitted.entries.push_back(std::move(entry));
    }
  }
  fitted.composite = model::CompositeModel::fit(model::composite_samples(observations));
  return fitted;
}

BundlePtr ModelRegistry::bundle_for(const model::StudyConfig& config) {
  const std::uint64_t key = fingerprint(config);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second.bundle;
  // A miss fits under the lock: concurrent first queries for the same
  // config must not both pay for (or race on) a calibration study. Fits
  // are rare (once per config) and the study uses its own pool, so the
  // coarse critical section costs nothing in steady state.
  Record record;
  record.config = config;
  record.observations = model::run_study(config);
  record.bundle = std::make_shared<const FittedModels>(
      fit_bundle(config, record.observations, /*epoch=*/1));
  ++fits_;
  return cache_.emplace(key, std::move(record)).first->second.bundle;
}

BundlePtr ModelRegistry::current(std::uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = cache_.find(fingerprint);
  return it == cache_.end() ? nullptr : it->second.bundle;
}

bool ModelRegistry::append_observations(std::uint64_t fingerprint,
                                        std::vector<model::Observation> observations) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = cache_.find(fingerprint);
  if (it == cache_.end()) return false;
  Record& record = it->second;
  record.pending.insert(record.pending.end(),
                        std::make_move_iterator(observations.begin()),
                        std::make_move_iterator(observations.end()));
  return true;
}

std::size_t ModelRegistry::pending_observations(std::uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = cache_.find(fingerprint);
  return it == cache_.end() ? 0 : it->second.pending.size();
}

BundlePtr ModelRegistry::refit(std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = cache_.find(fingerprint);
  if (it == cache_.end()) return nullptr;
  Record& record = it->second;
  // Fold the pending observations into the corpus, then fit exactly the
  // way the initial fit did — the new bundle is bit-identical to a fresh
  // fit_bundle() of the appended corpus. The regressions are linear solves
  // over a few dozen samples, so fitting under the lock is fine; heavy
  // observation GENERATION (a drift study) belongs to the caller, outside.
  record.observations.insert(record.observations.end(),
                             std::make_move_iterator(record.pending.begin()),
                             std::make_move_iterator(record.pending.end()));
  record.pending.clear();
  record.bundle = std::make_shared<const FittedModels>(
      fit_bundle(record.config, record.observations, record.bundle->epoch + 1));
  ++refits_;
  return record.bundle;
}

int ModelRegistry::fits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fits_;
}

int ModelRegistry::refits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return refits_;
}

}  // namespace isr::serve
