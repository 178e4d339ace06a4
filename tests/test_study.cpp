// Integration test of the full SC16 methodology on a miniature corpus: run
// the study driver end to end, fit the models, and check that measure ->
// fit -> cross-validate -> predict holds together.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "model/study.hpp"

namespace isr::model {
namespace {

StudyConfig tiny_config() {
  StudyConfig cfg;
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

class StudyEndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { obs_ = new std::vector<Observation>(run_study(tiny_config())); }
  static void TearDownTestSuite() {
    delete obs_;
    obs_ = nullptr;
  }
  static std::vector<Observation>* obs_;
};

std::vector<Observation>* StudyEndToEnd::obs_ = nullptr;

TEST_F(StudyEndToEnd, ProducesTheFullCrossProduct) {
  // 1 sim x 2 tasks x 3 samples x 2 archs x 3 renderers = 36 observations.
  EXPECT_EQ(obs_->size(), 36u);
  for (const Observation& o : *obs_) {
    EXPECT_GT(o.sample.render_seconds, 0.0) << o.arch;
    EXPECT_GT(o.sample.inputs.objects, 0.0);
    EXPECT_GT(o.sample.inputs.active_pixels, 0.0);
    EXPECT_GE(o.composite_seconds, 0.0);
    EXPECT_NEAR(o.total_seconds, o.sample.total_seconds() + o.composite_seconds, 1e-12);
  }
}

TEST_F(StudyEndToEnd, RayTracingSamplesIncludeBuildTimes) {
  const auto rt = samples_for(*obs_, "GPU1", RendererKind::kRayTrace);
  ASSERT_FALSE(rt.empty());
  for (const RenderSample& s : rt) EXPECT_GT(s.build_seconds, 0.0);
}

TEST_F(StudyEndToEnd, VolumeSamplesCarryVolumeVariables) {
  const auto vr = samples_for(*obs_, "CPU1", RendererKind::kVolume);
  ASSERT_FALSE(vr.empty());
  for (const RenderSample& s : vr) {
    EXPECT_GT(s.inputs.samples_per_ray, 0.0);
    EXPECT_GT(s.inputs.cells_spanned, 0.0);
  }
}

TEST_F(StudyEndToEnd, ModelsFitTheCorpus) {
  for (const std::string arch : {"CPU1", "GPU1"}) {
    for (const RendererKind kind :
         {RendererKind::kRayTrace, RendererKind::kRasterize, RendererKind::kVolume}) {
      const auto samples = samples_for(*obs_, arch, kind);
      ASSERT_GE(samples.size(), 6u);
      const PerfModel model = PerfModel::fit(kind, samples);
      ASSERT_TRUE(model.ok()) << arch << " " << renderer_name(kind);
      // A tiny corpus still must explain most of the variance: the cost
      // model is (by construction) near-linear in the model features.
      EXPECT_GT(model.r_squared(), 0.5) << arch << " " << renderer_name(kind);
      // In-corpus predictions land within a factor of ~2.
      for (const RenderSample& s : samples) {
        const double pred = model.predict_render(s.inputs);
        EXPECT_GT(pred, s.render_seconds * 0.3);
        EXPECT_LT(pred, s.render_seconds * 3.0);
      }
    }
  }
}

TEST_F(StudyEndToEnd, CompositingSamplesFitEquation55) {
  // The tiny corpus (tasks <= 2, small images) barely spans the compositing
  // model's inputs, so only the fit's structural properties are asserted;
  // the compositing bench fits on a real 1..64-rank corpus.
  const auto comp = composite_samples(*obs_);
  ASSERT_GE(comp.size(), 30u);
  const CompositeModel model = CompositeModel::fit(comp);
  ASSERT_TRUE(model.ok());
  EXPECT_GE(model.r_squared(), 0.0);
  EXPECT_GT(model.predict(1e5, 1e6), 0.0);
}

TEST_F(StudyEndToEnd, GpuIsFasterThanCpuProfileOnSameWork) {
  // Sanity of the architecture substitution: the K40-like profile should
  // beat the CPU profile on identical rendering work (as in Table 1).
  double cpu_total = 0.0, gpu_total = 0.0;
  for (const Observation& o : *obs_) {
    if (o.renderer != RendererKind::kRayTrace) continue;
    if (o.arch == "CPU1") cpu_total += o.sample.render_seconds;
    if (o.arch == "GPU1") gpu_total += o.sample.render_seconds;
  }
  EXPECT_GT(cpu_total, gpu_total * 1.5);
}

TEST(StudyHelpers, NoArchOrNoValidRendererGivesAnEmptyCorpus) {
  StudyConfig cfg = tiny_config();
  cfg.archs.clear();
  EXPECT_TRUE(run_study(cfg).empty());
  cfg = tiny_config();
  cfg.sims = {"lulesh"};
  cfg.renderers = {RendererKind::kVolume};  // no grid to volume render
  EXPECT_TRUE(run_study(cfg).empty());
}

TEST(StudyHelpers, ScaleFromEnvDefaultsToOne) {
  EXPECT_DOUBLE_EQ(study_scale_from_env(), 1.0);
}

TEST(StudyHelpers, ScaleFromEnvValidatesInput) {
  setenv("ISR_STUDY_SCALE", "2.5", 1);
  EXPECT_DOUBLE_EQ(study_scale_from_env(), 2.5);
  // atof-style parsing silently returned 0 for these; they must now warn
  // and fall back to the default instead.
  setenv("ISR_STUDY_SCALE", "garbage", 1);
  EXPECT_DOUBLE_EQ(study_scale_from_env(), 1.0);
  setenv("ISR_STUDY_SCALE", "2.5abc", 1);
  EXPECT_DOUBLE_EQ(study_scale_from_env(), 1.0);
  setenv("ISR_STUDY_SCALE", "-2", 1);
  EXPECT_DOUBLE_EQ(study_scale_from_env(), 1.0);
  setenv("ISR_STUDY_SCALE", "0", 1);
  EXPECT_DOUBLE_EQ(study_scale_from_env(), 1.0);
  unsetenv("ISR_STUDY_SCALE");
  EXPECT_DOUBLE_EQ(study_scale_from_env(), 1.0);
}

// A config small enough to run three times in one test, with tasks=4 so the
// per-rank pool fan-out path executes, and lulesh so the volume-renderer
// skip and cross-rank normalization are exercised.
StudyConfig determinism_config() {
  StudyConfig cfg;
  cfg.archs = {"CPU1", "GPU1"};
  cfg.sims = {"cloverleaf", "lulesh"};
  cfg.tasks = {1, 4};
  cfg.samples_per_config = 2;
  cfg.min_image = 64;
  cfg.max_image = 128;
  cfg.min_n = 12;
  cfg.max_n = 20;
  cfg.vr_samples = 80;
  cfg.sim_steps = 1;
  cfg.seed = 2016;
  return cfg;
}

void expect_identical(const std::vector<Observation>& a, const std::vector<Observation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Exact equality on every field, not approximate: the corpus must be a
    // pure function of the config, independent of thread count.
    EXPECT_TRUE(observations_identical(a[i], b[i]))
        << "observation " << i << " (" << a[i].sim << " " << a[i].arch << " "
        << renderer_name(a[i].renderer) << " tasks=" << a[i].tasks
        << ") diverges: render " << a[i].sample.render_seconds << " vs "
        << b[i].sample.render_seconds << ", composite " << a[i].composite_seconds << " vs "
        << b[i].composite_seconds;
  }
}

TEST(StudyDeterminism, CorpusIsBitIdenticalAtAnyThreadCount) {
  StudyConfig cfg = determinism_config();
  cfg.threads = 1;
  const std::vector<Observation> serial = run_study(cfg);
  // 2 sims x 2 tasks x 2 samples x 2 archs x 3 renderers, minus the
  // volume renderer on lulesh's unstructured surface: 48 - 8 = 40.
  EXPECT_EQ(serial.size(), 40u);
  cfg.threads = 4;
  expect_identical(serial, run_study(cfg));
  cfg.threads = 3;
  expect_identical(serial, run_study(cfg));
}

TEST(StudyDeterminism, VerboseOutputKeepsGridOrderAtAnyThreadCount) {
  StudyConfig cfg = determinism_config();
  cfg.sims = {"cloverleaf"};
  cfg.samples_per_config = 1;

  cfg.threads = 1;
  testing::internal::CaptureStdout();
  const std::vector<Observation> serial = run_study(cfg, /*verbose=*/true);
  const std::string serial_out = testing::internal::GetCapturedStdout();

  cfg.threads = 4;
  testing::internal::CaptureStdout();
  run_study(cfg, /*verbose=*/true);
  const std::string parallel_out = testing::internal::GetCapturedStdout();

  EXPECT_EQ(serial_out, parallel_out);

  // One line per observation, in grid order: line i describes obs[i].
  std::istringstream in(serial_out);
  std::string line;
  std::size_t i = 0;
  while (std::getline(in, line)) {
    ASSERT_LT(i, serial.size());
    EXPECT_NE(line.find("study " + serial[i].sim), std::string::npos) << line;
    EXPECT_NE(line.find(serial[i].arch), std::string::npos) << line;
    EXPECT_NE(line.find(renderer_name(serial[i].renderer)), std::string::npos) << line;
    ++i;
  }
  EXPECT_EQ(i, serial.size());
}

// A multi-arch study renders each job once per renderer, live on the first
// arch, and prices the other archs by replaying kernel tapes; a one-arch
// study renders live on its arch. Both must agree bit for bit.
TEST(StudyPricing, MultiArchStudyEqualsItsOneArchStudies) {
  StudyConfig cfg = determinism_config();
  cfg.archs = {"GPU2", "CPU1", "GPU1"};
  cfg.sims = {"cloverleaf", "lulesh", "kripke"};
  cfg.tasks = {1, 5};  // 5 ranks take the rank fan-out at threads = 4
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    cfg.threads = threads;
    const std::vector<Observation> multi = run_study(cfg);

    // Grid order within a job is arch-major: each arch's one-arch block
    // for the job, in config.archs order.
    std::vector<std::vector<Observation>> single;
    for (const std::string& arch : cfg.archs) {
      StudyConfig one = cfg;
      one.archs = {arch};
      single.push_back(run_study(one));
    }
    const auto same_job = [](const Observation& a, const Observation& b) {
      return a.sim == b.sim && a.tasks == b.tasks && a.image_size == b.image_size &&
             a.n_per_task == b.n_per_task;
    };
    std::vector<Observation> expected;
    for (std::size_t begin = 0; begin < single[0].size();) {
      std::size_t end = begin + 1;
      while (end < single[0].size() && same_job(single[0][end], single[0][begin])) ++end;
      for (const std::vector<Observation>& one : single)
        expected.insert(expected.end(), one.begin() + static_cast<std::ptrdiff_t>(begin),
                        one.begin() + static_cast<std::ptrdiff_t>(end));
      begin = end;
    }
    // 3 sims x 2 tasks x 2 samples x 3 archs x 3 renderers, minus the
    // volume renderer on lulesh: 108 - 12 = 96.
    EXPECT_EQ(multi.size(), 96u);
    expect_identical(expected, multi);
  }
}

}  // namespace
}  // namespace isr::model
