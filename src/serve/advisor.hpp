// Batch feasibility-prediction serving: the paper's §5.9 questions ("how
// many images fit the budget?", "ray tracing or rasterization?") as a
// typed request/response API. An in situ framework faces these decisions
// online every cycle; this layer answers them at query rates from models
// fitted once (serve/registry.hpp). answer_batch is the evaluator; the
// one serving entry point that drives it — admission, caching, sharding,
// streaming — is cluster::ServingCluster (src/cluster/).
//
// Determinism contract: a response is a pure function of (request, fitted
// models, mapping constants). answer_batch writes responses into
// pre-sized slots, so any batching, chunking, or shard placement of the
// same requests is bit-identical — and, through to_jsonl, byte-identical —
// to answering them one at a time, the same guarantee model/study.* makes
// for the calibration corpus itself.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "core/arena.hpp"
#include "model/mapping.hpp"
#include "model/perfmodel.hpp"
#include "serve/registry.hpp"

namespace isr::serve {

// One feasibility query: a rendering configuration (the user-facing terms
// of §5.8 — per-task data size, rank count, image resolution) plus the
// question parameters (time budget, amortization horizon).
struct AdvisorRequest {
  // Which resident calibration corpus answers this request. Empty selects
  // the server's default corpus; a multi-corpus cluster (src/cluster/)
  // resolves names to fitted bundles, and an unknown name yields an
  // in-slot error response. answer_batch ignores the selector — its caller
  // already resolved it to the bundle it passes in.
  std::string corpus;
  std::string arch = "CPU1";
  model::RendererKind renderer = model::RendererKind::kRayTrace;
  int n_per_task = 200;        // N of the N^3 cells-per-task block
  int tasks = 32;              // simulated MPI ranks
  int image_edge = 1024;       // square image edge in pixels
  double budget_seconds = 60;  // Fig 14's budget question
  int frames = 100;            // Fig 15's BVH-amortization horizon

  // Streaming-admission QoS (src/cluster/ honors these; the batch paths
  // ignore them, and the canonical cache key deliberately excludes them —
  // the *answer* is the same whether the client was in a hurry).
  // deadline_us: answer-by budget in microseconds from admission; 0 (the
  // default) means no deadline, and a request whose estimated completion
  // exceeds its deadline at admission is shed (an explicit response, never
  // a silent stall). priority: class 0 (most urgent) .. 7; strict across
  // classes, earliest-deadline-first within one.
  long deadline_us = 0;
  int priority = 1;
};

struct AdvisorResponse {
  // Typed request outcome, replacing the old ok-bool + shed/degraded flag
  // trio (and the error-string sniffing that came with it):
  //   kOk       — answered; the prediction fields below are valid.
  //   kShed     — refused at admission: the cluster estimated completion
  //               would miss the request's deadline (streaming only).
  //   kDegraded — admitted but unanswerable within the fault-tolerance
  //               budget: retries exhausted, deadline passed during retry,
  //               a failed calibration fit, or shutdown raced the
  //               admission; never cached, error text starts "degraded: ".
  //   kError    — invalid request, unknown corpus/model, or an evaluation
  //               failure.
  // Shed and degraded serialize as error lines with their marker key
  // ("shed":true / "degraded":true), so the enum changes no wire bytes.
  enum class Status : unsigned char { kOk = 0, kShed = 1, kDegraded = 2, kError = 3 };

  Status status = Status::kError;
  std::string error;  // set when !ok(); every other field is then zero

  bool ok() const { return status == Status::kOk; }
  bool shed() const { return status == Status::kShed; }
  bool degraded() const { return status == Status::kDegraded; }

  // Fig 14: predicted cost of the requested (arch, renderer) configuration.
  double frame_seconds = 0.0;  // per frame, build amortized away
  double build_seconds = 0.0;  // one-time BVH build (ray tracing only)
  long images_in_budget = 0;

  // Fig 15: the RT-vs-RAST verdict on the requested arch over `frames`
  // frames. has_verdict is false when the calibration corpus lacks either
  // surface model for this arch.
  bool has_verdict = false;
  double rt_seconds = 0.0;    // frames * render + one build
  double rast_seconds = 0.0;  // frames * render
  double ratio = 0.0;         // rast / rt; > 1 means ray tracing wins
  bool prefer_ray_tracing = false;
};

// Wire token for a status ("ok"/"shed"/"degraded"/"error") — metrics and
// diagnostics share one spelling.
const char* status_name(AdvisorResponse::Status status);

// Exact equality of every field — the serial-vs-batched identity contract,
// single source of truth for test_serve and test_cluster.
bool responses_identical(const AdvisorResponse& a, const AdvisorResponse& b);

// Reusable scratch for answer_batch: an arena backing the grouping indices
// and the per-model SoA prediction columns. One per worker thread (it is
// not thread-safe); rewound and refilled every batch, so a warmed-up
// worker evaluates batch after batch with zero heap allocation.
struct EvalScratch {
  core::Arena arena;
};

// The CANONICAL evaluation entry point: answers `count` requests into
// pre-sized response slots. Internally the batch is grouped by
// (arch, renderer); per group the fitted-model and verdict-model lookups
// and their error strings are hoisted out of the item loop, configurations
// are mapped once into an arena-backed column, and each fitted model's
// polynomial terms are evaluated across the whole group in SoA layout
// (one prediction column per model). Each response is still a pure
// function of (fitted models, mapping constants, request[i]) — grouping,
// batch composition, and evaluation order cannot change a byte, which is
// what keeps the serial-vs-batched identity contract checkable.
//
// Gather form: requests[i]/responses[i] are pointers, so callers holding
// items in non-contiguous storage (cluster shards draining a mixed-corpus
// batch) can evaluate without copying requests.
void answer_batch(const FittedModels& fitted, const model::MappingConstants& constants,
                  const AdvisorRequest* const* requests, std::size_t count,
                  AdvisorResponse* const* responses, EvalScratch& scratch);

// Contiguous-span convenience overload of the same evaluator.
void answer_batch(const FittedModels& fitted, const model::MappingConstants& constants,
                  const AdvisorRequest* requests, std::size_t count,
                  AdvisorResponse* responses, EvalScratch& scratch);

// One response as a JSON line (no trailing newline). Fixed field order and
// numbers in printf's %.9g spelling (std::to_chars, general format, 9
// significant digits), so identical responses serialize to identical
// bytes. Schema documented in docs/ARCHITECTURE.md.
std::string to_jsonl(const AdvisorResponse& response);

// Zero-copy form: appends the line to a caller-owned reusable buffer (no
// temporary string churn — an ok line is formatted with to_chars into a
// stack buffer, then appended once). The allocating signature above
// delegates here; batch serializers reuse one buffer across a whole flush.
void to_jsonl(const AdvisorResponse& response, std::string& out);

// The wire format's JSON string escaping (quote, backslash, \u00xx control
// characters) — one definition for every line this repo emits, so error
// messages and metrics can never diverge on escaping.
std::string json_escape(const std::string& s);

// Appending form used by the zero-copy serializers.
void json_escape(const std::string& s, std::string& out);

// Renderer tokens used by the wire format: "raytrace" / "rasterize" /
// "volume". renderer_from_token returns false on anything else.
const char* renderer_token(model::RendererKind kind);
bool renderer_from_token(std::string_view token, model::RendererKind& kind);

struct ServiceConfig {
  // The calibration study the models are fitted from. The default is the
  // advisor's quick CPU1/GPU1 corpus (see default_calibration()).
  model::StudyConfig calibration;
  // §5.8 configuration -> model-variable mapping constants. spr_base <= 0
  // (the default) derives it from calibration.vr_samples when the cluster
  // resolves the corpus, keeping the SPR mapping consistent with the
  // sampling density the corpus was rendered at.
  model::MappingConstants constants;

  ServiceConfig();
};

// The quick calibration corpus the one-shot advisor CLI has always used:
// cloverleaf on CPU1/GPU1 at small sizes, all three renderers. Fits in
// about a second; pass a bigger StudyConfig for production-grade models.
model::StudyConfig default_calibration();

}  // namespace isr::serve
