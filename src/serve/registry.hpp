// Fitted-model ownership for the serving layer: a ModelRegistry fits the
// §5.5 models from a calibration corpus ONCE and hands out the fitted
// bundle on every subsequent query. The old advisor CLI refit from scratch
// per invocation — fine for one question, fatal for query traffic, since a
// calibration study is seconds of work and a prediction is nanoseconds.
//
// Cache key: a hash_seed-derived fingerprint over every StudyConfig field
// that shapes the corpus. `threads` is deliberately excluded — run_study
// guarantees the corpus is bit-identical at any thread count, so a config
// that differs only in worker count must hit the same cache entry.
//
// Live recalibration: bundles are EPOCH-VERSIONED. The initial fit is
// epoch 1; append_observations() queues new measurements against a fitted
// fingerprint, and refit() folds them into the corpus and fits a fresh
// bundle at epoch + 1. The refitted bundle is bit-identical to a fresh
// fit_bundle() of the same appended corpus — refitting is re-fitting, not
// an incremental approximation. Bundles are handed out as shared_ptrs: an
// in-flight request pinning an old epoch keeps it alive across swaps, and
// a superseded bundle is freed when its last pin is released.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "model/perfmodel.hpp"
#include "model/study.hpp"

namespace isr::serve {

// Everything fitted from one calibration corpus: the up-to-six single-node
// models (arch x renderer, §5.5-§5.6) plus the compositing model (Eq. 5.5).
struct FittedModels {
  std::uint64_t fingerprint = 0;
  // Version of this bundle within its fingerprint: 1 = the initial fit,
  // +1 per refit. 0 only on a default-constructed (unfitted) value, so it
  // doubles as "no bundle" in cache-entry and metrics contexts.
  std::uint64_t epoch = 0;
  std::size_t corpus_size = 0;  // observations the fits consumed

  struct Entry {
    std::string arch;
    model::RendererKind kind = model::RendererKind::kRayTrace;
    model::PerfModel model;
  };
  std::vector<Entry> entries;  // calibration-config order (archs x renderers)
  model::CompositeModel composite;

  // Fitted model for (arch, kind), or nullptr when the calibration config
  // never produced samples for that combination (e.g. the volume renderer
  // on a surface-only corpus, or an arch outside the config).
  const model::PerfModel* find(const std::string& arch, model::RendererKind kind) const;
};

// Shared, immutable ownership of one bundle version. In-flight requests pin
// the epoch they were admitted under by holding one of these; swapping the
// registry's current bundle can never tear or invalidate what they read.
using BundlePtr = std::shared_ptr<const FittedModels>;

// The fitting core every path shares: fit each (arch, renderer) model that
// has samples in `observations`, then the compositing model, exactly in
// calibration-config order. A pure function of its arguments — the same
// observations produce bit-identical coefficients whether they arrive as
// one fresh corpus or as a fitted corpus plus appended measurements (the
// refit-vs-fresh-fit identity test_recal gates). `epoch` is stamped on the
// result; fingerprint is derived from `config`.
FittedModels fit_bundle(const model::StudyConfig& config,
                        const std::vector<model::Observation>& observations,
                        std::uint64_t epoch = 1);

class ModelRegistry {
 public:
  // Corpus fingerprint: pure function of the config fields that determine
  // the observations (sims, archs, renderers, tasks, sizes, seed — not
  // `threads`, see header comment).
  static std::uint64_t fingerprint(const model::StudyConfig& config);

  // The fitted bundle for `config`, running the calibration study and the
  // regressions at most once per fingerprint. Thread-safe. Returns shared
  // ownership of the CURRENT epoch's bundle: callers hold it for as long as
  // they read it, and the serving cluster pins one per admitted request so
  // an in-flight request finishes on the epoch it was admitted under even
  // while a refit swaps the current.
  BundlePtr bundle_for(const model::StudyConfig& config);

  // The current bundle for an already-fitted fingerprint; nullptr when the
  // fingerprint is unknown here. Never fits.
  BundlePtr current(std::uint64_t fingerprint) const;

  // Queues new observations against a fitted fingerprint for the next
  // refit. Returns false when the fingerprint is unknown. Cheap: no
  // fitting happens until refit().
  bool append_observations(std::uint64_t fingerprint,
                           std::vector<model::Observation> observations);

  // Observations appended but not yet folded in by a refit.
  std::size_t pending_observations(std::uint64_t fingerprint) const;

  // Folds every pending observation into the fingerprint's corpus and fits
  // a fresh bundle at epoch + 1, atomically replacing the current one
  // (pins on the superseded bundle stay valid). Returns the new bundle, or
  // nullptr when the fingerprint is unknown. Bit-identical to fit_bundle()
  // of the same appended corpus.
  BundlePtr refit(std::uint64_t fingerprint);

  // Number of calibration fits performed so far (cache misses; refits
  // excluded).
  int fits() const;
  // Number of refits performed so far.
  int refits() const;

 private:
  // One fingerprint's record: the config and corpus it was fitted from,
  // observations queued for the next refit, and the current bundle.
  struct Record {
    model::StudyConfig config;
    std::vector<model::Observation> observations;  // the fitted corpus
    std::vector<model::Observation> pending;       // appended, not yet fitted
    BundlePtr bundle;
  };

  mutable std::mutex mutex_;
  std::map<std::uint64_t, Record> cache_;
  int fits_ = 0;
  int refits_ = 0;
};

}  // namespace isr::serve
