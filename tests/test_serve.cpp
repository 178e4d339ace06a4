// Tests for the serving layer: registry fingerprinting and cache-hit
// behavior, the typed advisor API, answer_batch response identity at any
// batch size, and the JSON-lines front-end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "math/rng.hpp"
#include "serve/advisor.hpp"
#include "serve/jsonl.hpp"
#include "serve/registry.hpp"

namespace isr::serve {
namespace {

// A calibration corpus small enough that a registry fit costs well under a
// second: 1 sim x 2 tasks x 3 samples x 2 archs x 3 renderers = 36 obs.
model::StudyConfig tiny_calibration() {
  model::StudyConfig cfg;
  cfg.archs = {"CPU1", "GPU1"};
  cfg.sims = {"cloverleaf"};
  cfg.tasks = {1, 2};
  cfg.samples_per_config = 3;
  cfg.min_image = 96;
  cfg.max_image = 192;
  cfg.min_n = 16;
  cfg.max_n = 28;
  cfg.vr_samples = 120;
  cfg.sim_steps = 1;
  cfg.seed = 123;
  return cfg;
}

// One fitted bundle shared by the suite, so the calibration corpus is
// fitted once for all the serving tests (the registry's own point,
// exercised for real in the dedicated registry tests below). answer() and
// handler() serve through answer_batch — the evaluator every cluster shard
// runs — under the spr_base the cluster derives for this corpus
// (0.93 * vr_samples).
class ServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ModelRegistry registry;
    bundle_ = registry.bundle_for(tiny_calibration());
    constants_.spr_base = 0.93 * tiny_calibration().vr_samples;
  }
  static void TearDownTestSuite() { bundle_.reset(); }

  static BatchHandler handler() {
    return [](const std::vector<AdvisorRequest>& requests) {
      std::vector<AdvisorResponse> responses(requests.size());
      EvalScratch scratch;
      answer_batch(*bundle_, constants_, requests.data(), requests.size(),
                   responses.data(), scratch);
      return responses;
    };
  }

  static AdvisorResponse answer(const AdvisorRequest& request) {
    return handler()({request}).front();
  }

  static BundlePtr bundle_;
  static model::MappingConstants constants_;
};

BundlePtr ServeFixture::bundle_;
model::MappingConstants ServeFixture::constants_;

// The wire front-end over the same fixture.
class JsonlService : public ServeFixture {};

// --- Registry ---------------------------------------------------------------

TEST(ModelRegistryTest, FitsOncePerFingerprintAndCaches) {
  ModelRegistry registry;
  EXPECT_EQ(registry.fits(), 0);
  const BundlePtr first = registry.bundle_for(tiny_calibration());
  EXPECT_EQ(registry.fits(), 1);
  EXPECT_EQ(first->corpus_size, 36u);
  EXPECT_EQ(first->entries.size(), 6u);  // 2 archs x 3 renderers

  // Same config again: cache hit, same bundle, no refit.
  const BundlePtr again = registry.bundle_for(tiny_calibration());
  EXPECT_EQ(registry.fits(), 1);
  EXPECT_EQ(first.get(), again.get());

  // A corpus-shaping change is a different fingerprint and a refit.
  model::StudyConfig changed = tiny_calibration();
  changed.seed = 124;
  registry.bundle_for(changed);
  EXPECT_EQ(registry.fits(), 2);
}

TEST(ModelRegistryTest, FingerprintCoversCorpusShapeButNotThreads) {
  const model::StudyConfig base = tiny_calibration();
  const std::uint64_t h = ModelRegistry::fingerprint(base);

  // run_study guarantees thread-count invariance of the corpus, so a config
  // differing only in worker count must hit the same cache entry.
  model::StudyConfig threaded = base;
  threaded.threads = 7;
  EXPECT_EQ(ModelRegistry::fingerprint(threaded), h);

  model::StudyConfig other = base;
  other.min_image = base.min_image + 1;
  EXPECT_NE(ModelRegistry::fingerprint(other), h);
  other = base;
  other.sims = {"cloverleaf", "lulesh"};
  EXPECT_NE(ModelRegistry::fingerprint(other), h);
  other = base;
  other.renderers = {model::RendererKind::kRayTrace};
  EXPECT_NE(ModelRegistry::fingerprint(other), h);
  other = base;
  other.tasks = {1, 4};
  EXPECT_NE(ModelRegistry::fingerprint(other), h);
}

TEST(ModelRegistryTest, FindReturnsNullForUnfittedCombination) {
  ModelRegistry registry;
  model::StudyConfig cfg = tiny_calibration();
  cfg.archs = {"CPU1"};
  cfg.renderers = {model::RendererKind::kRayTrace};
  const BundlePtr fitted = registry.bundle_for(cfg);
  EXPECT_NE(fitted->find("CPU1", model::RendererKind::kRayTrace), nullptr);
  EXPECT_EQ(fitted->find("GPU1", model::RendererKind::kRayTrace), nullptr);
  EXPECT_EQ(fitted->find("CPU1", model::RendererKind::kVolume), nullptr);
}

// --- Typed advisor API ------------------------------------------------------

TEST_F(ServeFixture, AnswersAFeasibilityQuery) {
  AdvisorRequest req;
  req.arch = "CPU1";
  req.renderer = model::RendererKind::kRayTrace;
  req.n_per_task = 100;
  req.tasks = 8;
  req.image_edge = 512;
  req.budget_seconds = 60.0;
  const AdvisorResponse resp = answer(req);
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_GT(resp.frame_seconds, 0.0);
  EXPECT_GT(resp.build_seconds, 0.0);  // ray tracing pays a BVH build
  EXPECT_GT(resp.images_in_budget, 0);
  ASSERT_TRUE(resp.has_verdict);
  EXPECT_GT(resp.rt_seconds, 0.0);
  EXPECT_GT(resp.rast_seconds, 0.0);
  EXPECT_NEAR(resp.ratio, resp.rast_seconds / resp.rt_seconds, 1e-12);
  EXPECT_EQ(resp.prefer_ray_tracing, resp.ratio > 1.0);
}

TEST_F(ServeFixture, MoreBudgetNeverMeansFewerImages) {
  AdvisorRequest req;
  req.n_per_task = 100;
  req.tasks = 8;
  req.image_edge = 512;
  long previous = -1;
  for (const double budget : {0.0, 10.0, 60.0, 600.0}) {
    req.budget_seconds = budget;
    const AdvisorResponse resp = answer(req);
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_GE(resp.images_in_budget, previous) << "budget " << budget;
    previous = resp.images_in_budget;
  }
}

TEST_F(ServeFixture, UnknownArchAndInvalidValuesAreLoudErrors) {
  AdvisorRequest req;
  req.arch = "TPU9";
  AdvisorResponse resp = answer(req);
  EXPECT_FALSE(resp.ok());
  EXPECT_NE(resp.error.find("TPU9"), std::string::npos);
  EXPECT_EQ(resp.images_in_budget, 0);

  req = AdvisorRequest{};
  req.tasks = 0;
  resp = answer(req);
  EXPECT_FALSE(resp.ok());
  EXPECT_NE(resp.error.find("tasks"), std::string::npos);

  req = AdvisorRequest{};
  req.budget_seconds = -1.0;
  EXPECT_FALSE(answer(req).ok());

  // An absurd but non-negative budget is answerable: the count saturates
  // (model/feasibility.*) rather than overflowing to a negative.
  req = AdvisorRequest{};
  req.budget_seconds = 1e30;
  const AdvisorResponse huge = answer(req);
  ASSERT_TRUE(huge.ok()) << huge.error;
  EXPECT_EQ(huge.images_in_budget, std::numeric_limits<long>::max());
}

TEST_F(ServeFixture, AnswerBatchIsIdenticalAtEveryBatchSize) {
  // The evaluator's core contract: answer_batch is a pure function of
  // (fitted models, constants, request[i]) — batch composition and chunk
  // boundaries cannot change a byte. Reference = one request per batch.
  const FittedModels& fitted = *bundle_;
  const model::MappingConstants& constants = constants_;

  std::vector<AdvisorRequest> requests;
  for (const std::string arch : {"CPU1", "GPU1", "TPU9"}) {
    for (const model::RendererKind kind :
         {model::RendererKind::kRayTrace, model::RendererKind::kRasterize,
          model::RendererKind::kVolume}) {
      for (const int edge : {128, 512, 2048}) {
        for (const double budget : {0.0, 5.0, 300.0}) {
          AdvisorRequest req;
          req.arch = arch;
          req.renderer = kind;
          req.image_edge = edge;
          req.budget_seconds = budget;
          req.frames = edge / 2;
          requests.push_back(req);
        }
      }
    }
  }
  // Invalid slots interleaved mid-batch: validation errors must stay
  // in-slot no matter which group their neighbors land in.
  AdvisorRequest bad;
  bad.tasks = 0;
  requests.insert(requests.begin() + 5, bad);
  bad = AdvisorRequest{};
  bad.budget_seconds = -2.0;
  requests.push_back(bad);

  // Contiguous overload, one scratch reused across every chunk.
  const auto contiguous = [&](std::size_t chunk) {
    EvalScratch scratch;
    std::vector<AdvisorResponse> batched(requests.size());
    for (std::size_t begin = 0; begin < requests.size(); begin += chunk) {
      const std::size_t n = std::min(chunk, requests.size() - begin);
      answer_batch(fitted, constants, requests.data() + begin, n,
                   batched.data() + begin, scratch);
    }
    return batched;
  };
  const std::vector<AdvisorResponse> reference = contiguous(1);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  requests.size()}) {
    const std::vector<AdvisorResponse> batched = contiguous(chunk);
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_TRUE(responses_identical(reference[i], batched[i]))
          << "chunk " << chunk << " slot " << i;
      EXPECT_EQ(to_jsonl(reference[i]), to_jsonl(batched[i]))
          << "chunk " << chunk << " slot " << i;
    }

    // Gather form over the same chunking: pointer indirection is the
    // cluster shard's path and must agree byte for byte too.
    EvalScratch gather_scratch;
    std::vector<AdvisorResponse> gathered(requests.size());
    std::vector<const AdvisorRequest*> rp(requests.size());
    std::vector<AdvisorResponse*> sp(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      rp[i] = &requests[i];
      sp[i] = &gathered[i];
    }
    for (std::size_t begin = 0; begin < requests.size(); begin += chunk) {
      const std::size_t n = std::min(chunk, requests.size() - begin);
      answer_batch(fitted, constants, rp.data() + begin, n, sp.data() + begin,
                   gather_scratch);
    }
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_TRUE(responses_identical(reference[i], gathered[i]))
          << "gather chunk " << chunk << " slot " << i;
  }
}

TEST_F(ServeFixture, EvalScratchArenaStopsGrowingAfterWarmup) {
  // The zero-allocation steady state: one warmup batch sizes the arena;
  // every identical batch after that bumps pointers inside the same
  // chunks. Capacity and chunk count must be flat after warmup, and each
  // batch must start from a rewound arena (same bytes used every time).
  const FittedModels& fitted = *bundle_;
  const model::MappingConstants& constants = constants_;

  std::vector<AdvisorRequest> requests(64);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].arch = i % 2 ? "CPU1" : "GPU1";
    requests[i].renderer = static_cast<model::RendererKind>(i % 3);
    requests[i].image_edge = 128 << (i % 4);
  }
  std::vector<AdvisorResponse> responses(requests.size());

  EvalScratch scratch;
  answer_batch(fitted, constants, requests.data(), requests.size(),
               responses.data(), scratch);
  const std::size_t warm_capacity = scratch.arena.capacity();
  const std::size_t warm_chunks = scratch.arena.chunk_count();
  const std::size_t warm_used = scratch.arena.used();
  EXPECT_GT(warm_capacity, 0u);
  EXPECT_GT(warm_used, 0u);

  for (int round = 0; round < 16; ++round) {
    answer_batch(fitted, constants, requests.data(), requests.size(),
                 responses.data(), scratch);
    EXPECT_EQ(scratch.arena.capacity(), warm_capacity) << "round " << round;
    EXPECT_EQ(scratch.arena.chunk_count(), warm_chunks) << "round " << round;
    // Rewound between batches: a same-shaped batch hands out the same
    // bytes, not an accumulating total.
    EXPECT_EQ(scratch.arena.used(), warm_used) << "round " << round;
  }

  // Smaller batches after warmup must fit inside the warmed capacity too.
  answer_batch(fitted, constants, requests.data(), 7, responses.data(), scratch);
  EXPECT_EQ(scratch.arena.capacity(), warm_capacity);
  EXPECT_LT(scratch.arena.used(), warm_used);
}

// --- Wire format ------------------------------------------------------------

TEST(JsonlParse, AcceptsFullPartialAndEmptyObjects) {
  AdvisorRequest req;
  std::string error;
  ASSERT_TRUE(parse_request_line(
      R"({"corpus":"titan","arch":"GPU1","renderer":"volume","n_per_task":80,"tasks":4,)"
      R"("image_edge":256,"budget_seconds":12.5,"frames":7})",
      req, error))
      << error;
  EXPECT_EQ(req.corpus, "titan");
  EXPECT_EQ(req.arch, "GPU1");
  EXPECT_EQ(req.renderer, model::RendererKind::kVolume);
  EXPECT_EQ(req.n_per_task, 80);
  EXPECT_EQ(req.tasks, 4);
  EXPECT_EQ(req.image_edge, 256);
  EXPECT_DOUBLE_EQ(req.budget_seconds, 12.5);
  EXPECT_EQ(req.frames, 7);

  // Unset keys keep the schema defaults — an absent corpus selects the
  // server's default corpus (empty string).
  req = AdvisorRequest{};
  ASSERT_TRUE(parse_request_line(R"({"renderer":"rasterize"})", req, error)) << error;
  EXPECT_EQ(req.renderer, model::RendererKind::kRasterize);
  EXPECT_EQ(req.corpus, "");
  EXPECT_EQ(req.arch, "CPU1");
  EXPECT_EQ(req.tasks, 32);

  ASSERT_TRUE(parse_request_line("{}", req, error)) << error;
  ASSERT_TRUE(parse_request_line("  { \"tasks\" : 16 }  ", req, error)) << error;
  EXPECT_EQ(req.tasks, 16);
}

TEST(JsonlParse, RejectsMalformedInputWithReasons) {
  AdvisorRequest req;
  const AdvisorRequest defaults;
  std::string error;
  EXPECT_FALSE(parse_request_line("not json", req, error));
  EXPECT_FALSE(parse_request_line(R"({"unknown_key":1})", req, error));
  EXPECT_NE(error.find("unknown_key"), std::string::npos);
  EXPECT_FALSE(parse_request_line(R"({"tasks":"eight"})", req, error));
  EXPECT_FALSE(parse_request_line(R"({"tasks":4.5})", req, error));
  EXPECT_NE(error.find("integer"), std::string::npos);
  EXPECT_FALSE(parse_request_line(R"({"renderer":"opengl"})", req, error));
  EXPECT_FALSE(parse_request_line(R"({"tasks":8,"tasks":64})", req, error));
  EXPECT_NE(error.find("duplicate key"), std::string::npos);
  EXPECT_FALSE(parse_request_line(R"({"arch":"CPU1")", req, error));  // no closing brace
  EXPECT_FALSE(parse_request_line(R"({"arch":"CPU1"} trailing)", req, error));
  // A failed parse must not half-mutate the request.
  EXPECT_EQ(req.arch, defaults.arch);
  EXPECT_EQ(req.tasks, defaults.tasks);
}

TEST_F(JsonlService, ServesBatchesInOrderWithErrorSlots) {
  std::istringstream in(
      "{\"arch\":\"CPU1\",\"renderer\":\"raytrace\",\"image_edge\":256}\n"
      "garbage\n"
      "{\"arch\":\"GPU1\",\"renderer\":\"volume\",\"n_per_task\":24,\"tasks\":2}\n"
      "\n"
      "{\"renderer\":\"rasterize\"}\n");
  std::ostringstream out;
  const std::size_t answered = run_jsonl(in, out, handler());
  EXPECT_EQ(answered, 4u);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> responses;
  while (std::getline(lines, line)) responses.push_back(line);
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_NE(responses[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(responses[0].find("\"images_in_budget\":"), std::string::npos);
  EXPECT_NE(responses[1].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(responses[1].find("parse error"), std::string::npos);
  EXPECT_NE(responses[2].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(responses[3].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(responses[3].find("\"recommendation\":\""), std::string::npos);
}

TEST_F(JsonlService, ResponseLinesMatchTheTypedAnswerByteForByte) {
  AdvisorRequest req;
  req.arch = "GPU1";
  req.renderer = model::RendererKind::kRasterize;
  req.image_edge = 640;
  const std::string expected = to_jsonl(answer(req));

  std::istringstream in(R"({"arch":"GPU1","renderer":"rasterize","image_edge":640})");
  std::ostringstream out;
  run_jsonl(in, out, handler());
  EXPECT_EQ(out.str(), expected + "\n");
}

TEST(JsonlFormat, ErrorResponsesEscapeJsonMetacharacters) {
  AdvisorResponse r;
  r.status = AdvisorResponse::Status::kError;
  r.error = "bad \"value\"\nwith\\slash";
  EXPECT_EQ(to_jsonl(r),
            "{\"ok\":false,\"error\":\"bad \\\"value\\\"\\u000awith\\\\slash\"}");
}

TEST(JsonlFormat, DegradedMarkerPrecedesTheErrorAndIsPartOfIdentity) {
  // The fault-tolerance wire contract (src/cluster/): a response the
  // cluster could not answer within its retry budget carries an explicit
  // "degraded":true marker clients can branch on without parsing the text.
  AdvisorResponse r;
  r.status = AdvisorResponse::Status::kDegraded;
  r.error = "degraded: retry budget exhausted after 3 attempts";
  EXPECT_EQ(to_jsonl(r),
            "{\"ok\":false,\"degraded\":true,"
            "\"error\":\"degraded: retry budget exhausted after 3 attempts\"}");

  // An ordinary error with the same text is a DIFFERENT response.
  AdvisorResponse plain;
  plain.status = AdvisorResponse::Status::kError;
  plain.error = r.error;
  EXPECT_FALSE(responses_identical(r, plain));
  EXPECT_TRUE(responses_identical(r, r));
}

TEST(JsonlFormat, StatusRoundTripsThroughWireLines) {
  // The typed Status must survive serialization: to_jsonl emits the
  // marker key for each status and response_line_status reads it back, so
  // cluster metrics classifying replayed wire lines agree with the enum
  // the server held. (The wire bytes themselves are the pre-enum format.)
  AdvisorResponse ok;
  ok.status = AdvisorResponse::Status::kOk;
  ok.frame_seconds = 0.25;
  EXPECT_EQ(response_line_status(to_jsonl(ok)), AdvisorResponse::Status::kOk);

  AdvisorResponse shed;
  shed.status = AdvisorResponse::Status::kShed;
  shed.error = "shed: estimated completion 12ms exceeds deadline 5ms";
  const std::string shed_line = to_jsonl(shed);
  EXPECT_EQ(shed_line.find("{\"ok\":false,\"shed\":true,"), 0u) << shed_line;
  EXPECT_EQ(response_line_status(shed_line), AdvisorResponse::Status::kShed);

  AdvisorResponse degraded;
  degraded.status = AdvisorResponse::Status::kDegraded;
  degraded.error = "degraded: retry budget exhausted";
  const std::string degraded_line = to_jsonl(degraded);
  EXPECT_EQ(degraded_line.find("{\"ok\":false,\"degraded\":true,"), 0u) << degraded_line;
  EXPECT_EQ(response_line_status(degraded_line), AdvisorResponse::Status::kDegraded);

  AdvisorResponse error;
  error.status = AdvisorResponse::Status::kError;
  error.error = "unknown arch";
  EXPECT_EQ(response_line_status(to_jsonl(error)), AdvisorResponse::Status::kError);

  // status_name gives metrics one spelling per status.
  EXPECT_STREQ(status_name(AdvisorResponse::Status::kOk), "ok");
  EXPECT_STREQ(status_name(AdvisorResponse::Status::kShed), "shed");
  EXPECT_STREQ(status_name(AdvisorResponse::Status::kDegraded), "degraded");
  EXPECT_STREQ(status_name(AdvisorResponse::Status::kError), "error");
}

TEST(JsonlFormat, AppendFormReusesTheCallerBuffer) {
  // The zero-copy serializer appends — never clears — so a flush loop can
  // build one wire buffer across a whole batch, and a warmed buffer
  // serializes without reallocating.
  AdvisorResponse r;
  r.status = AdvisorResponse::Status::kError;
  r.error = "e";
  std::string wire = "prefix\n";
  to_jsonl(r, wire);
  EXPECT_EQ(wire, "prefix\n{\"ok\":false,\"error\":\"e\"}");
  EXPECT_EQ(wire.substr(7), to_jsonl(r));

  wire.clear();
  wire.reserve(4096);
  const std::size_t warm_capacity = wire.capacity();
  for (int i = 0; i < 8; ++i) {
    wire.clear();
    to_jsonl(r, wire);
    wire += '\n';
  }
  EXPECT_EQ(wire.capacity(), warm_capacity);
}

// The serializer as it was before to_chars: printf's %.9g and %ld through
// one snprintf with a two-pass fallback. Kept as the byte-for-byte oracle
// for to_jsonl's lines.
std::string printf_jsonl(const AdvisorResponse& r) {
  std::string out;
  if (!r.ok()) {
    out += "{\"ok\":false,";
    if (r.shed()) out += "\"shed\":true,";
    if (r.degraded()) out += "\"degraded\":true,";
    out += "\"error\":\"";
    json_escape(r.error, out);
    out += "\"}";
    return out;
  }
  const char* recommendation =
      r.has_verdict ? (r.prefer_ray_tracing ? "raytrace" : "rasterize") : "";
  const char* fmt =
      "{\"ok\":true,\"frame_seconds\":%.9g,\"build_seconds\":%.9g,"
      "\"images_in_budget\":%ld,\"has_verdict\":%s,\"rt_seconds\":%.9g,"
      "\"rast_seconds\":%.9g,\"ratio\":%.9g,\"recommendation\":\"%s\"}";
  const char* verdict = r.has_verdict ? "true" : "false";
  char buf[320];
  const int len = std::snprintf(buf, sizeof(buf), fmt, r.frame_seconds, r.build_seconds,
                                r.images_in_budget, verdict, r.rt_seconds, r.rast_seconds,
                                r.ratio, recommendation);
  if (len > 0 && static_cast<std::size_t>(len) < sizeof(buf)) {
    out.append(buf, static_cast<std::size_t>(len));
    return out;
  }
  std::string line(static_cast<std::size_t>(len > 0 ? len : 0), '\0');
  std::snprintf(&line[0], line.size() + 1, fmt, r.frame_seconds, r.build_seconds,
                r.images_in_budget, verdict, r.rt_seconds, r.rast_seconds, r.ratio,
                recommendation);
  out += line;
  return out;
}

TEST(JsonlFormat, OkLinesMatchThePrintfFormatterByteForByte) {
  using limits = std::numeric_limits<double>;
  const std::vector<double> specials = {
      0.0, -0.0, limits::denorm_min(), -limits::denorm_min(), limits::min() / 3.0,
      limits::min(), limits::max(), -limits::max(), limits::infinity(),
      -limits::infinity(), limits::quiet_NaN(), -limits::quiet_NaN(), 1e-30, 0.1,
      1.0 / 3.0, 123456789.0, 1234567890.5, 1e15, 9.999999995e-5, 1e10, 60.0};
  const std::vector<long> longs = {0, 1, -1, 42, std::numeric_limits<long>::min(),
                                   std::numeric_limits<long>::max()};
  AdvisorResponse r;
  r.status = AdvisorResponse::Status::kOk;
  const auto check = [&r] {
    std::string line = "kept|";
    to_jsonl(r, line);
    ASSERT_EQ(line, "kept|" + printf_jsonl(r));
  };
  // Every special in every double field, with every long and both values
  // of both verdict flags.
  for (const double v : specials)
    for (const long images : longs)
      for (const int flags : {0, 1, 2, 3}) {
        r.frame_seconds = r.build_seconds = r.rt_seconds = r.rast_seconds = r.ratio = v;
        r.images_in_budget = images;
        r.has_verdict = (flags & 1) != 0;
        r.prefer_ray_tracing = (flags & 2) != 0;
        check();
      }
  // Seeded random bit patterns: NaN payloads, subnormals and every exponent.
  Rng rng(0x70C4A125ull);
  const auto random_double = [&rng] {
    const std::uint64_t bits = rng.next_u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  };
  for (int i = 0; i < 40000; ++i) {
    r.frame_seconds = random_double();
    r.build_seconds = random_double();
    r.rt_seconds = random_double();
    r.rast_seconds = random_double();
    r.ratio = random_double();
    r.images_in_budget = static_cast<long>(rng.next_u64());
    r.has_verdict = rng.uniform_int(0, 1) == 1;
    r.prefer_ray_tracing = rng.uniform_int(0, 1) == 1;
    check();
    if (::testing::Test::HasFailure()) return;
  }
  // Error lines keep their bytes too, markers and escaping included.
  for (const auto status : {AdvisorResponse::Status::kError, AdvisorResponse::Status::kShed,
                            AdvisorResponse::Status::kDegraded}) {
    r.status = status;
    r.error = "bad \"value\"\n\x01with\\slash";
    check();
  }
}

// --- Non-finite budgets (every entry point) ---------------------------------

TEST(JsonlParse, NonFiniteBudgetSpellingsAreRejectedWithOneLineReasons) {
  // Every spelling a client could smuggle a non-finite budget in as — NaN,
  // infinities, and overflow-to-inf exponents — must die in the parser with
  // a reason naming the key, never reach the advisor as a double.
  AdvisorRequest req;
  std::string error;
  for (const char* line :
       {R"({"budget_seconds":nan})", R"({"budget_seconds":NaN})",
        R"({"budget_seconds":inf})", R"({"budget_seconds":Infinity})",
        R"({"budget_seconds":-Infinity})", R"({"budget_seconds":1e999})"}) {
    EXPECT_FALSE(parse_request_line(line, req, error)) << line;
    EXPECT_NE(error.find("budget_seconds"), std::string::npos) << line << ": " << error;
    EXPECT_NE(error.find("must be finite"), std::string::npos) << line << ": " << error;
  }
}

TEST_F(ServeFixture, NonFiniteBudgetsAreRejectedBeforeEvaluation) {
  // The C++ API can be handed values the wire parser never admits; the
  // advisor must reject them before the float->long images-in-budget cast
  // (+inf passes ">= 0" and the cast would be UB).
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    AdvisorRequest req;
    req.budget_seconds = bad;
    const AdvisorResponse resp = answer(req);
    EXPECT_FALSE(resp.ok());
    EXPECT_NE(resp.error.find("budget_seconds must be finite"), std::string::npos)
        << resp.error;
  }
}

TEST_F(JsonlService, NonFiniteBudgetGetsAnInSlotErrorResponse) {
  // End to end through the batch front-end: the poisoned line earns an
  // in-slot error while its neighbors are answered normally.
  std::istringstream in(
      "{\"renderer\":\"raytrace\",\"image_edge\":128}\n"
      "{\"budget_seconds\":Infinity}\n"
      "{\"renderer\":\"rasterize\",\"image_edge\":128}\n");
  std::ostringstream out;
  EXPECT_EQ(run_jsonl(in, out, handler()), 3u);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> responses;
  while (std::getline(lines, line)) responses.push_back(line);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_NE(responses[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(responses[1].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(responses[1].find("must be finite"), std::string::npos);
  EXPECT_NE(responses[2].find("\"ok\":true"), std::string::npos);
}

}  // namespace
}  // namespace isr::serve
