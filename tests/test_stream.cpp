// Tests for the streaming admission pipeline: the ordered shard queue's
// scheduling order (strict priority, EDF within a class, admission-order
// tiebreak), blocking bounded admission, kick flushes, session lifecycle
// (close flushes in-flight requests; submit-after-close throws), replay-
// mode byte-identity under concurrent producers, truncated and reordered
// replay schedules (answered in-slot / rejected at load, never a hang), a
// stream closing early under replay without parking its siblings,
// deterministic shedding under a replayed 2x overload, buffered runs
// (run-boundary byte identity, deadline-triggered admission, sessions
// moved with buffered submits), metrics readability during live streams,
// and a seeded randomized-interleaving fuzz loop (the TSan CI job's
// stress surface — every failure prints its seed).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/metrics.hpp"
#include "cluster/stream.hpp"
#include "core/batch_queue.hpp"
#include "core/env.hpp"
#include "math/rng.hpp"
#include "serve/registry.hpp"

namespace isr::cluster {
namespace {

using serve::AdvisorRequest;
using serve::AdvisorResponse;

// The same fast calibration corpus test_cluster uses.
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

ClusterConfig stream_config(int shards, std::size_t cache_entries) {
  ClusterConfig cfg;
  cfg.service.calibration = tiny_calibration();
  cfg.shards = shards;
  cfg.cache_entries = cache_entries;
  cfg.batch_size = 4;
  return cfg;
}

// A StreamItem with only the scheduling key filled in — enough for the
// queue-order tests, which never evaluate anything.
StreamItem keyed_item(int priority, std::int64_t deadline_at_us, std::uint64_t admit_seq) {
  StreamItem item;
  item.priority = priority;
  item.deadline_at_us = deadline_at_us;
  item.admit_seq = admit_seq;
  return item;
}

// --- Ordered batch queue ----------------------------------------------------

TEST(OrderedQueueTest, PopsStrictPriorityThenEdfThenAdmissionOrder) {
  core::OrderedBatchQueue<StreamItem, StreamBefore> queue(32);
  const std::int64_t none = std::numeric_limits<std::int64_t>::max();
  // Scrambled push order; the pop order must be the scheduling order:
  // priority class first, earliest deadline within it, admit_seq last.
  ASSERT_TRUE(queue.try_push(keyed_item(3, none, 0)));
  ASSERT_TRUE(queue.try_push(keyed_item(0, 900, 1)));
  ASSERT_TRUE(queue.try_push(keyed_item(1, 50, 2)));
  ASSERT_TRUE(queue.try_push(keyed_item(0, 100, 3)));
  ASSERT_TRUE(queue.try_push(keyed_item(3, none, 4)));
  ASSERT_TRUE(queue.try_push(keyed_item(1, 200, 5)));
  ASSERT_TRUE(queue.try_push(keyed_item(0, none, 6)));

  std::vector<StreamItem> batch;
  const core::BatchFlush flush =
      queue.pop_batch(7, std::chrono::nanoseconds(0), batch);
  EXPECT_EQ(flush, core::BatchFlush::kSize);
  ASSERT_EQ(batch.size(), 7u);
  const std::uint64_t expected_seq[] = {3, 1, 6, 2, 5, 0, 4};
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(batch[i].admit_seq, expected_seq[i]) << "position " << i;
}

TEST(OrderedQueueTest, KickFlushesPartialBatchWithoutDeadlineWait) {
  core::OrderedBatchQueue<StreamItem, StreamBefore> queue(32);
  ASSERT_TRUE(queue.try_push(keyed_item(1, 10, 0)));
  ASSERT_TRUE(queue.try_push(keyed_item(1, 5, 1)));
  queue.kick();
  std::vector<StreamItem> batch;
  const auto start = std::chrono::steady_clock::now();
  // A 10-second coalescing deadline that the kick must preempt.
  const core::BatchFlush flush =
      queue.pop_batch(8, std::chrono::seconds(10), batch);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(flush, core::BatchFlush::kKicked);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].admit_seq, 1u);  // EDF within the partial batch
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 5.0);
}

TEST(OrderedQueueTest, BlockingPushWaitsForRoomAndFailsOnClose) {
  core::OrderedBatchQueue<StreamItem, StreamBefore> queue(2);
  ASSERT_TRUE(queue.try_push(keyed_item(1, 10, 0)));
  ASSERT_TRUE(queue.try_push(keyed_item(1, 20, 1)));
  EXPECT_FALSE(queue.try_push(keyed_item(1, 30, 2)));  // full

  std::thread drainer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::vector<StreamItem> batch;
    queue.pop_batch(2, std::chrono::nanoseconds(0), batch);
  });
  // Blocks until the drainer makes room, then succeeds.
  EXPECT_TRUE(queue.push(keyed_item(1, 30, 2)));
  drainer.join();

  queue.close();
  EXPECT_FALSE(queue.push(keyed_item(1, 40, 3)));  // closed: refused, loudly
}

// The flush contract on plain ints: std::less serves the smallest first,
// so ascending pushes pop in push order.
using IntQueue = core::OrderedBatchQueue<int, std::less<int>>;

TEST(OrderedQueueTest, SizeFlushAtBatchSize) {
  IntQueue q(16);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(std::move(i)));
  std::vector<int> batch;
  EXPECT_EQ(q.pop_batch(4, std::chrono::seconds(10), batch), core::BatchFlush::kSize);
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.depth(), 4u);
  EXPECT_EQ(q.max_depth(), 8u);
}

TEST(OrderedQueueTest, DeadlineFlushesPartialBatch) {
  IntQueue q(16);
  int v = 7;
  EXPECT_TRUE(q.try_push(std::move(v)));
  std::vector<int> batch;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(q.pop_batch(8, std::chrono::milliseconds(20), batch),
            core::BatchFlush::kDeadline);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(batch, std::vector<int>{7});
  EXPECT_GE(waited, std::chrono::milliseconds(15));  // really waited the deadline out
}

TEST(OrderedQueueTest, CloseDrainsThenSignalsEmpty) {
  IntQueue q(16);
  int a = 1, b = 2;
  EXPECT_TRUE(q.try_push(std::move(a)));
  EXPECT_TRUE(q.try_push(std::move(b)));
  q.close();
  int c = 3;
  EXPECT_FALSE(q.try_push(std::move(c)));  // closed: no more admissions
  std::vector<int> batch;
  EXPECT_EQ(q.pop_batch(8, std::chrono::seconds(10), batch), core::BatchFlush::kClosed);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(q.pop_batch(8, std::chrono::seconds(10), batch), core::BatchFlush::kEmpty);
  EXPECT_TRUE(batch.empty());
}

TEST(OrderedQueueTest, TryPushRejectsWhenFull) {
  IntQueue q(2);
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(q.try_push(std::move(a)));
  EXPECT_TRUE(q.try_push(std::move(b)));
  EXPECT_FALSE(q.try_push(std::move(c)));  // full; c stays with the caller
  std::vector<int> batch;
  q.pop_batch(1, std::chrono::seconds(10), batch);
  EXPECT_TRUE(q.try_push(std::move(c)));  // room again
}

TEST(OrderedQueueTest, PushWakesABlockedConsumer) {
  IntQueue q(4);
  std::vector<int> batch;
  std::thread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.push(42);
  });
  // Blocks on the empty open queue until the producer's push arrives; the
  // deadline clock starts at first availability, so this returns promptly.
  EXPECT_EQ(q.pop_batch(8, std::chrono::milliseconds(1), batch),
            core::BatchFlush::kDeadline);
  EXPECT_EQ(batch, std::vector<int>{42});
  producer.join();
}

// --- Admission schedules ----------------------------------------------------

TEST(ScheduleIoTest, SaveLoadRoundTripsAndRejectsGarbage) {
  AdmissionSchedule schedule = {{0, 0, 10}, {1, 0, 12}, {0, 1, 15}};
  std::ostringstream out;
  save_schedule(schedule, out);

  AdmissionSchedule loaded;
  std::string error;
  std::istringstream in(out.str());
  ASSERT_TRUE(load_schedule(in, loaded, error)) << error;
  ASSERT_EQ(loaded.size(), schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(loaded[i].stream, schedule[i].stream);
    EXPECT_EQ(loaded[i].seq, schedule[i].seq);
    EXPECT_EQ(loaded[i].t_us, schedule[i].t_us);
  }

  std::istringstream bad("0 0 10\nnot a record\n");
  EXPECT_FALSE(load_schedule(bad, loaded, error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(ScheduleFuzzTest, EveryInputLoadsOrFailsOnOnePrintableLine) {
  // Seeded garbage against the --replay loader: byte flips over the whole
  // byte range, control bytes, truncations, shuffled and duplicated lines,
  // out-of-range numbers and a megabyte-long line. Every input must load
  // or give one short printable error line — never throw, never echo a
  // newline, a control byte or the whole input. ISR_STRESS_ITERS (default
  // 3) scales the rounds; a failure prints its seed.
  const long rounds = core::env_long("ISR_STRESS_ITERS", 3);
  constexpr int kInputsPerRound = 2000;
  for (long seed = 0; seed < rounds; ++seed) {
    SCOPED_TRACE("fuzz seed " + std::to_string(seed));
    Rng rng(hash_seed(static_cast<std::uint64_t>(seed), 0x5C4Eull));
    for (int n = 0; n < kInputsPerRound; ++n) {
      AdmissionSchedule schedule;
      std::vector<std::uint64_t> next_seq(3, 0);
      for (int k = rng.uniform_int(0, 6); k > 0; --k) {
        const std::uint64_t stream = static_cast<std::uint64_t>(rng.uniform_int(0, 2));
        schedule.push_back({stream, next_seq[stream]++, rng.uniform_int(0, 1000)});
      }
      std::ostringstream saved;
      save_schedule(schedule, saved);
      std::string text = saved.str();
      for (int ops = rng.uniform_int(1, 4); ops > 0; --ops) {
        const std::size_t pos =
            static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(text.size())));
        switch (rng.uniform_int(0, 5)) {
          case 0:  // any byte, control bytes and high bytes included
            if (pos < text.size()) text[pos] = static_cast<char>(rng.uniform_int(0, 255));
            break;
          case 1:
            text.resize(pos);
            break;
          case 2:
            text.insert(pos, 1, static_cast<char>(rng.uniform_int(0, 31)));
            break;
          case 3: {
            static const char* const kTokens[] = {"-1", "99999999999999999999", "x", "#",
                                                  "1 2", "\x1b[2J", "\r", "\t", "0 0 0 0"};
            text.insert(pos, kTokens[rng.uniform_int(0, 8)]);
            break;
          }
          case 4:  // a duplicated slice: repeated or reordered records
            text.insert(pos, text.substr(static_cast<std::size_t>(rng.uniform_int(
                                             0, static_cast<int>(text.size()))),
                                         24));
            break;
          default:
            text.insert(pos, std::string(static_cast<std::size_t>(rng.uniform_int(1, 200)), 'z'));
            break;
        }
      }
      if (n == 0) text.insert(0, std::string(1 << 20, 'z') + "\n");  // one huge line a round
      std::istringstream in(text);
      AdmissionSchedule loaded;
      std::string error;
      bool ok = false;
      ASSERT_NO_THROW(ok = load_schedule(in, loaded, error));
      if (ok) continue;
      ASSERT_FALSE(error.empty());
      ASSERT_LT(error.size(), 512u) << error.substr(0, 512);
      for (const char c : error)
        ASSERT_TRUE(c >= 0x20 && c < 0x7f)
            << "byte " << static_cast<int>(static_cast<unsigned char>(c)) << " in: " << error;
    }
  }
}

// --- Stream sessions over a live cluster ------------------------------------

// Clusters share one primary registry so the whole suite pays for a single
// calibration fit (clusters fit on the primary, never per shard) — same as
// test_cluster.
class StreamFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    primary_ = std::make_shared<serve::ModelRegistry>();
  }
  static void TearDownTestSuite() { primary_.reset(); }
  static std::shared_ptr<serve::ModelRegistry> primary_;

  // Stream k's workload: distinct shapes per stream AND per index, so a
  // cross-stream response mixup can never pass the byte compare.
  static std::vector<AdvisorRequest> stream_requests(int k, int count) {
    std::vector<AdvisorRequest> requests;
    requests.reserve(static_cast<std::size_t>(count));
    for (int j = 0; j < count; ++j) {
      AdvisorRequest req;
      req.arch = (j % 2 == 0) ? "CPU1" : "GPU1";
      req.renderer = (j % 3 == 0) ? model::RendererKind::kRayTrace
                                  : (j % 3 == 1) ? model::RendererKind::kRasterize
                                                 : model::RendererKind::kVolume;
      req.n_per_task = 16 + 2 * k + (j % 4);
      req.image_edge = 96 + 16 * k + 8 * j;
      req.tasks = 1 + (j % 2);
      requests.push_back(req);
    }
    return requests;
  }
};

std::shared_ptr<serve::ModelRegistry> StreamFixture::primary_;

TEST_F(StreamFixture, ReplayReproducesConcurrentProducersByteIdentically) {
  // Four concurrent producer threads against a recording cluster, then the
  // SAME flow against a replaying cluster, and a 1-shard serial reference
  // for each stream's slice: all three must agree byte-for-byte. Cache off
  // so the only interleaving-sensitive machinery is admission itself.
  constexpr int kStreams = 4;
  constexpr int kPerStream = 12;
  std::vector<std::vector<AdvisorRequest>> workload;
  workload.reserve(kStreams);
  for (int k = 0; k < kStreams; ++k) workload.push_back(stream_requests(k, kPerStream));

  // Serial reference, one stream slice at a time.
  std::vector<std::vector<AdvisorResponse>> expected;
  {
    ServingCluster reference(stream_config(1, 0), primary_);
    for (int k = 0; k < kStreams; ++k) expected.push_back(reference.serve_batch(workload[static_cast<std::size_t>(k)]));
  }

  const auto run_concurrent = [&workload](ServingCluster& cluster) {
    // Sessions open in deterministic order (ids 0..N-1) on the test
    // thread; only the submissions race.
    std::vector<StreamSession> sessions;
    sessions.reserve(kStreams);
    for (int k = 0; k < kStreams; ++k) sessions.push_back(cluster.open_stream());
    std::vector<std::thread> producers;
    producers.reserve(kStreams);
    for (int k = 0; k < kStreams; ++k)
      producers.emplace_back([&workload, &sessions, k] {
        for (const AdvisorRequest& req : workload[static_cast<std::size_t>(k)])
          sessions[static_cast<std::size_t>(k)].submit(req);
      });
    for (std::thread& producer : producers) producer.join();
    std::vector<std::vector<AdvisorResponse>> responses;
    responses.reserve(kStreams);
    for (int k = 0; k < kStreams; ++k)
      responses.push_back(sessions[static_cast<std::size_t>(k)].close());
    return responses;
  };

  ServingCluster recorder(stream_config(3, 0), primary_);
  recorder.enable_recording();
  const auto live = run_concurrent(recorder);
  const AdmissionSchedule schedule = recorder.take_recording();
  EXPECT_EQ(schedule.size(), static_cast<std::size_t>(kStreams * kPerStream));

  ServingCluster replayer(stream_config(3, 0), primary_);
  replayer.begin_replay(schedule);
  const auto replayed = run_concurrent(replayer);

  for (int k = 0; k < kStreams; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    ASSERT_EQ(live[ks].size(), static_cast<std::size_t>(kPerStream));
    ASSERT_EQ(replayed[ks].size(), static_cast<std::size_t>(kPerStream));
    for (int j = 0; j < kPerStream; ++j) {
      const auto js = static_cast<std::size_t>(j);
      EXPECT_EQ(serve::to_jsonl(expected[ks][js]), serve::to_jsonl(live[ks][js]))
          << "stream " << k << " slot " << j << " (live vs serial)";
      EXPECT_EQ(serve::to_jsonl(expected[ks][js]), serve::to_jsonl(replayed[ks][js]))
          << "stream " << k << " slot " << j << " (replay vs serial)";
    }
  }
  EXPECT_EQ(recorder.registry_fits(), 1);  // one fit on the shared primary
}

TEST_F(StreamFixture, TruncatedReplayAnswersTheUnscheduledTailInSlot) {
  // A recording with its last record cut: the replayed session must still
  // close with every slot answered — the scheduled ones with the recorded
  // bytes, the unscheduled one with an in-slot error instead of a throw.
  const std::vector<AdvisorRequest> requests = stream_requests(0, 3);
  ServingCluster recorder(stream_config(2, 0), primary_);
  recorder.enable_recording();
  const std::vector<AdvisorResponse> recorded = recorder.serve_batch(requests);
  AdmissionSchedule schedule = recorder.take_recording();
  ASSERT_EQ(schedule.size(), 3u);
  schedule.pop_back();

  ServingCluster replayer(stream_config(2, 0), primary_);
  replayer.begin_replay(schedule);
  const std::vector<AdvisorResponse> replayed = replayer.serve_batch(requests);
  ASSERT_EQ(replayed.size(), 3u);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_EQ(serve::to_jsonl(recorded[i]), serve::to_jsonl(replayed[i])) << "slot " << i;
  EXPECT_EQ(replayed[2].status, AdvisorResponse::Status::kError);
  EXPECT_EQ(replayed[2].error, "replay: submission not in the recording");
}

TEST_F(StreamFixture, EarlyClosedStreamDoesNotParkItsReplaySiblings) {
  // Streams A and B recorded interleaved (A0 B0 A1 B1 A2 B2). In replay A
  // submits only its first request and closes: its unconsumed records must
  // retire with it, or B's second submission waits forever behind A1.
  const std::vector<AdvisorRequest> a_requests = stream_requests(0, 3);
  const std::vector<AdvisorRequest> b_requests = stream_requests(1, 3);
  std::vector<AdvisorResponse> recorded_b;
  AdmissionSchedule schedule;
  {
    ServingCluster recorder(stream_config(2, 0), primary_);
    recorder.enable_recording();
    StreamSession a = recorder.open_stream();
    StreamSession b = recorder.open_stream();
    for (std::size_t i = 0; i < 3; ++i) {
      a.submit(a_requests[i]);
      b.submit(b_requests[i]);
    }
    a.close();
    recorded_b = b.close();
    schedule = recorder.take_recording();
  }
  ASSERT_EQ(schedule.size(), 6u);

  ServingCluster replayer(stream_config(2, 0), primary_);
  replayer.begin_replay(schedule);
  StreamSession a = replayer.open_stream();
  StreamSession b = replayer.open_stream();
  a.submit(a_requests[0]);
  a.close();
  // B replays on its own thread so a regression fails under a bounded wait
  // instead of hanging the suite.
  std::packaged_task<std::vector<AdvisorResponse>()> replay_b([&b, &b_requests] {
    for (const AdvisorRequest& req : b_requests) b.submit(req);
    return b.close();
  });
  std::future<std::vector<AdvisorResponse>> done = replay_b.get_future();
  std::thread runner(std::move(replay_b));
  if (done.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    // B is parked on a schedule record nobody will submit and can never
    // return: report, then end the process rather than hang ctest.
    ADD_FAILURE() << "stream B's replay is parked behind closed stream A's records";
    std::fflush(stdout);
    std::_Exit(1);
  }
  runner.join();
  const std::vector<AdvisorResponse> replayed_b = done.get();
  ASSERT_EQ(replayed_b.size(), recorded_b.size());
  for (std::size_t i = 0; i < recorded_b.size(); ++i)
    EXPECT_EQ(serve::to_jsonl(recorded_b[i]), serve::to_jsonl(replayed_b[i])) << "slot " << i;
}

TEST_F(StreamFixture, ModeSwitchWithBufferedSubmitsKeepsOneRecordPerSubmission) {
  // Below batch_size a live session only buffers. Recording enabled while
  // submits wait must still capture one record per submission, and a
  // replay begun while submits wait must pin each to its own record: a
  // buffered run that shared one record would lose the others' records
  // and park the next submission on a record nobody submits.
  const std::vector<AdvisorRequest> requests = stream_requests(5, 6);
  std::vector<AdvisorResponse> expected;
  {
    ServingCluster reference(stream_config(1, 0), primary_);
    expected = reference.serve_batch(requests);
  }

  ServingCluster recorder(stream_config(2, 0), primary_);
  StreamSession session = recorder.open_stream();
  for (std::size_t j = 0; j < 3; ++j) session.submit(requests[j]);
  EXPECT_EQ(recorder.metrics().queries, 0);
  recorder.enable_recording();
  for (std::size_t j = 3; j < requests.size(); ++j) session.submit(requests[j]);
  const std::vector<AdvisorResponse> recorded = session.close();
  const AdmissionSchedule schedule = recorder.take_recording();
  ASSERT_EQ(schedule.size(), requests.size());
  for (std::size_t j = 0; j < schedule.size(); ++j) {
    EXPECT_EQ(schedule[j].stream, 0u) << "record " << j;
    EXPECT_EQ(schedule[j].seq, j) << "record " << j;
  }

  ServingCluster replayer(stream_config(2, 0), primary_);
  StreamSession replayed_session = replayer.open_stream();
  for (std::size_t j = 0; j < 2; ++j) replayed_session.submit(requests[j]);
  replayer.begin_replay(schedule);
  // On its own thread, so a regression fails under a bounded wait instead
  // of hanging the suite.
  std::packaged_task<std::vector<AdvisorResponse>()> replay([&] {
    for (std::size_t j = 2; j < requests.size(); ++j) replayed_session.submit(requests[j]);
    return replayed_session.close();
  });
  std::future<std::vector<AdvisorResponse>> done = replay.get_future();
  std::thread runner(std::move(replay));
  if (done.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    ADD_FAILURE() << "a replayed submission is parked on a record nobody submits";
    std::fflush(stdout);
    std::_Exit(1);
  }
  runner.join();
  const std::vector<AdvisorResponse> replayed = done.get();
  ASSERT_EQ(recorded.size(), requests.size());
  ASSERT_EQ(replayed.size(), requests.size());
  for (std::size_t j = 0; j < requests.size(); ++j) {
    EXPECT_EQ(serve::to_jsonl(recorded[j]), serve::to_jsonl(expected[j])) << "slot " << j;
    EXPECT_EQ(serve::to_jsonl(replayed[j]), serve::to_jsonl(expected[j])) << "slot " << j;
  }
}

TEST_F(StreamFixture, ReorderedScheduleIsRejectedAtLoad) {
  // Per-stream seqs out of order (0, 2, 1) would park the admitter of
  // seq 1 on a cursor that never reaches it; both entry points refuse such
  // a schedule up front.
  std::istringstream in("0 0 10\n0 2 12\n0 1 15\n");
  AdmissionSchedule loaded;
  std::string error;
  EXPECT_FALSE(load_schedule(in, loaded, error));
  EXPECT_NE(error.find("record 2"), std::string::npos) << error;
  EXPECT_EQ(error.find('\n'), std::string::npos) << "one-line reason: " << error;

  ServingCluster cluster(stream_config(2, 0), primary_);
  EXPECT_THROW(cluster.begin_replay({{0, 0, 10}, {0, 2, 12}, {0, 1, 15}}),
               std::invalid_argument);
  EXPECT_THROW(cluster.begin_replay({{1, 1, 10}}), std::invalid_argument);
}

TEST_F(StreamFixture, PriorityFloodDoesNotStarveOrDropUrgentWork) {
  // A background flood at the weakest priority and a trickle of urgent
  // requests: everyone's close() must return every response. (The ordered
  // queue serves urgent first; starvation-freedom for the flood comes from
  // close()'s flush-and-drain, which this asserts end to end.)
  ClusterConfig config = stream_config(1, 0);
  config.queue_capacity = 16;  // small: the flood keeps the queue saturated
  ServingCluster cluster(std::move(config), primary_);

  StreamSession flood = cluster.open_stream();
  StreamSession urgent = cluster.open_stream();
  const std::vector<AdvisorRequest> flood_reqs = stream_requests(0, 48);
  const std::vector<AdvisorRequest> urgent_reqs = stream_requests(1, 8);

  std::thread flooder([&flood, &flood_reqs] {
    for (AdvisorRequest req : flood_reqs) {
      req.priority = 7;
      flood.submit(req);
    }
  });
  std::thread sender([&urgent, &urgent_reqs] {
    for (AdvisorRequest req : urgent_reqs) {
      req.priority = 0;
      urgent.submit(req);
    }
  });
  flooder.join();
  sender.join();
  const std::vector<AdvisorResponse> urgent_got = urgent.close();
  const std::vector<AdvisorResponse> flood_got = flood.close();

  ASSERT_EQ(urgent_got.size(), urgent_reqs.size());
  ASSERT_EQ(flood_got.size(), flood_reqs.size());
  for (const AdvisorResponse& r : urgent_got) EXPECT_TRUE(r.ok()) << r.error;
  for (const AdvisorResponse& r : flood_got) EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(cluster.metrics().queries,
            static_cast<long>(flood_reqs.size() + urgent_reqs.size()));
}

TEST_F(StreamFixture, ShedUnderReplayedOverloadIsDeterministicAndBounded) {
  // A synthetic 2x-overload schedule: arrivals every service/2 virtual
  // microseconds, each with a deadline of 6x service. Shedding is a pure
  // function of (schedule, requests) in replay mode, so two clusters given
  // the same schedule must shed the same requests — and the shed fraction
  // must hover near the overload's steady state (half), never 0, never 1.
  constexpr int kRequests = 160;
  constexpr long kDeadlineUs = 24;  // 6x the 4us replay service cost
  AdmissionSchedule schedule;
  schedule.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i)
    schedule.push_back({0, static_cast<std::uint64_t>(i),
                        static_cast<std::int64_t>(2 * i)});

  const std::vector<AdvisorRequest> base = stream_requests(2, kRequests);
  const auto run_replay = [&schedule, &base]() {
    ServingCluster cluster(stream_config(1, 0), primary_);
    cluster.begin_replay(schedule);
    StreamSession session = cluster.open_stream();
    for (AdvisorRequest req : base) {
      req.deadline_us = kDeadlineUs;
      session.submit(req);
    }
    std::vector<AdvisorResponse> responses = session.close();
    EXPECT_EQ(cluster.metrics().shed_queries,
              static_cast<long>(std::count_if(
                  responses.begin(), responses.end(),
                  [](const AdvisorResponse& r) { return r.shed(); })));
    return responses;
  };

  const std::vector<AdvisorResponse> first = run_replay();
  const std::vector<AdvisorResponse> second = run_replay();
  ASSERT_EQ(first.size(), static_cast<std::size_t>(kRequests));
  ASSERT_EQ(second.size(), first.size());

  int shed = 0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(serve::to_jsonl(first[i]), serve::to_jsonl(second[i])) << "slot " << i;
    if (first[i].shed()) {
      ++shed;
      EXPECT_FALSE(first[i].ok());
      EXPECT_NE(first[i].error.find("shed:"), std::string::npos);
    }
  }
  EXPECT_FALSE(first[0].shed());  // an empty backlog always admits
  EXPECT_GT(shed, kRequests / 4);      // a real 2x overload must shed...
  EXPECT_LT(shed, 3 * kRequests / 4);  // ...but admit its sustainable half

  // Every decision is the one-shard virtual-backlog recurrence: a request
  // would finish at max(backlog, arrival) + service, is shed when that wait
  // exceeds its deadline, and only admitted requests extend the backlog.
  // Shedding is what keeps every admitted wait, p99 included, within the
  // deadline.
  constexpr double kServiceUs = 4.0;  // ClusterConfig::replay_service_us
  double backlog_us = 0.0;
  double max_admitted_wait_us = 0.0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    const auto t = static_cast<double>(schedule[i].t_us);
    const double done = std::max(backlog_us, t) + kServiceUs;
    const bool model_sheds = done - t > static_cast<double>(kDeadlineUs);
    EXPECT_EQ(first[i].shed(), model_sheds) << "slot " << i;
    if (!model_sheds) {
      max_admitted_wait_us = std::max(max_admitted_wait_us, done - t);
      backlog_us = done;
    }
  }
  EXPECT_LE(max_admitted_wait_us, static_cast<double>(kDeadlineUs));
}

TEST_F(StreamFixture, CloseFlushesInFlightTailPromptly) {
  // A long coalescing deadline and a batch size the tail never reaches:
  // only close()'s kick can flush these five requests promptly.
  ClusterConfig config = stream_config(1, 0);
  config.batch_size = 64;
  config.batch_deadline_ms = 2000.0;
  ServingCluster cluster(std::move(config), primary_);

  StreamSession session = cluster.open_stream();
  const std::vector<AdvisorRequest> requests = stream_requests(1, 5);
  for (const AdvisorRequest& req : requests) session.submit(req);
  const auto start = std::chrono::steady_clock::now();
  const std::vector<AdvisorResponse> responses = session.close();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  ASSERT_EQ(responses.size(), requests.size());
  for (const AdvisorResponse& r : responses) EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_LT(elapsed, 1.0);  // the 2s coalescing deadline never fired
  EXPECT_GE(cluster.metrics().kick_flushes, 1);
}

TEST_F(StreamFixture, SessionLifecycleEdges) {
  ServingCluster cluster(stream_config(1, 0), primary_);
  // Closing an empty session returns an empty vector, promptly.
  StreamSession empty = cluster.open_stream();
  EXPECT_TRUE(empty.close().empty());
  EXPECT_FALSE(empty.open());

  // Submit-after-close is a client bug and throws.
  StreamSession session = cluster.open_stream();
  session.submit(stream_requests(0, 1)[0]);
  EXPECT_EQ(session.close().size(), 1u);
  EXPECT_THROW(session.submit(stream_requests(0, 1)[0]), std::logic_error);

  // serve_batch rides the same pipeline: stream ids keep advancing.
  cluster.serve_batch(stream_requests(0, 2));
  EXPECT_EQ(cluster.metrics().streams, 3);
}

TEST_F(StreamFixture, RunBoundariesAnswerLikeAnswerBatchPlusInSlotErrors) {
  // Buffered submits are admitted in runs: batch_size requests, cut short
  // by a request with a deadline, or by close(). Sessions of 1,
  // batch_size - 1, batch_size, batch_size + 1 and 1000 submits must all
  // answer exactly what answer_batch answers, plus the in-slot lines the
  // cluster owes its refusals — and every run mixes cache hits (a small
  // shared key set), unknown-corpus and fit-failed requests, and deadline
  // requests a huge starting service estimate sheds.
  constexpr std::size_t kBatch = 8;
  ClusterConfig config = stream_config(2, 256);
  config.batch_size = kBatch;
  config.service.constants.spr_base = 0.93 * config.service.calibration.vr_samples;
  config.replay_service_us = 1e12;  // the live estimate starts here and decays per batch
  CorpusConfig broken;
  broken.name = "broken";
  broken.service = config.service;
  broken.service.calibration.seed += 1000;
  config.corpora = {broken};
  // The first fault seed whose fit-fail decisions fail "broken" on every
  // attempt and spare the default corpus on its first.
  const std::uint64_t default_fp = serve::ModelRegistry::fingerprint(config.service.calibration);
  const std::uint64_t broken_fp = serve::ModelRegistry::fingerprint(broken.service.calibration);
  config.fault.rate = 0.5;
  config.fault.sites = 1u << static_cast<int>(core::FaultSite::kCorpusFitFail);
  for (std::uint64_t seed = 1; config.fault.seed == 0; ++seed) {
    core::FaultConfig candidate = config.fault;
    candidate.seed = seed;
    core::FaultInjector probe(candidate);
    bool fails_broken = true;
    for (int attempt = 0; attempt <= config.retry_limit; ++attempt)
      fails_broken = fails_broken &&
                     probe.should_fire(core::FaultSite::kCorpusFitFail, broken_fp,
                                       static_cast<std::uint64_t>(attempt));
    if (fails_broken && !probe.should_fire(core::FaultSite::kCorpusFitFail, default_fp, 0))
      config.fault.seed = seed;
  }
  ServingCluster cluster(config, primary_);

  // Request j of a session: an unknown corpus at j % 8 == 2, the broken
  // corpus at 4, a one-microsecond deadline on a never-repeated shape at 6,
  // and otherwise one of 12 default-corpus shapes (repeats hit the cache).
  const auto make_request = [](std::size_t session, std::size_t j) {
    AdvisorRequest req;
    const std::size_t shape = (j * 5) % 12;
    req.arch = shape % 2 == 0 ? "CPU1" : "GPU1";
    req.renderer = static_cast<model::RendererKind>(shape % 3);
    req.image_edge = 96 + 16 * static_cast<int>(shape);
    req.n_per_task = 16 + static_cast<int>(shape % 4);
    if (j % 8 == 2) req.corpus = "ghost";
    if (j % 8 == 4) req.corpus = "broken";
    if (j % 8 == 6) {
      req.deadline_us = 1;
      req.budget_seconds = 1.0 + static_cast<double>(session * 10000 + j);
    }
    return req;
  };
  const serve::BundlePtr bundle = primary_->bundle_for(config.service.calibration);
  long shed = 0, unknown = 0, degraded = 0, submitted = 0;
  for (const std::size_t size : {std::size_t{1}, kBatch - 1, kBatch, kBatch + 1, std::size_t{1000}}) {
    SCOPED_TRACE("session of " + std::to_string(size));
    std::vector<AdvisorRequest> requests;
    for (std::size_t j = 0; j < size; ++j) requests.push_back(make_request(size, j));
    std::vector<AdvisorResponse> expected(size);
    serve::EvalScratch scratch;
    serve::answer_batch(*bundle, config.service.constants, requests.data(), size,
                        expected.data(), scratch);
    StreamSession session = cluster.open_stream();
    for (std::size_t j = 0; j < size; ++j) EXPECT_EQ(session.submit(requests[j]), j);
    const std::vector<AdvisorResponse> got = session.close();
    ASSERT_EQ(got.size(), size);
    submitted += static_cast<long>(size);
    for (std::size_t j = 0; j < size; ++j) {
      AdvisorResponse want = expected[j];
      if (requests[j].corpus == "ghost") {
        ++unknown;
        want = AdvisorResponse{};
        want.status = AdvisorResponse::Status::kError;
        want.error = "unknown corpus \"ghost\" (not resident on this cluster)";
      } else if (requests[j].corpus == "broken") {
        ++degraded;
        want = AdvisorResponse{};
        want.status = AdvisorResponse::Status::kDegraded;
        want.error = "degraded: corpus \"broken\" unavailable: calibration fit failed";
      } else if (got[j].shed()) {
        ++shed;
        EXPECT_GT(requests[j].deadline_us, 0) << "slot " << j;
        EXPECT_EQ(got[j].error.rfind("shed: estimated completion in ", 0), 0u) << got[j].error;
        continue;
      }
      EXPECT_EQ(serve::to_jsonl(got[j]), serve::to_jsonl(want)) << "slot " << j;
    }
  }
  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.queries, submitted);
  EXPECT_EQ(m.unknown_corpus_queries, unknown);
  EXPECT_EQ(m.degraded_queries, degraded);
  EXPECT_EQ(m.shed_queries, shed);
  EXPECT_GT(shed, 0);  // the first deadline request meets the undecayed estimate
  EXPECT_GT(m.cache_hits, 0);
}

TEST_F(StreamFixture, BufferedRunsAdmitOnADeadlineAndMoveWithTheSession) {
  ClusterConfig config = stream_config(2, 0);
  config.batch_size = 16;  // longer than any run below: only deadlines and close() admit
  ServingCluster cluster(std::move(config), primary_);
  const std::vector<AdvisorRequest> requests = stream_requests(4, 6);
  std::vector<AdvisorResponse> expected;
  {
    ServingCluster reference(stream_config(1, 0), primary_);
    expected = reference.serve_batch(requests);
  }

  // Below batch_size, submits only buffer; a deadline admits the run at
  // once, so its shed decision reads a fresh clock.
  StreamSession first = cluster.open_stream();
  for (std::size_t j = 0; j < 3; ++j) first.submit(requests[j]);
  EXPECT_EQ(cluster.metrics().queries, 0);
  AdvisorRequest hurried = requests[3];
  hurried.deadline_us = 100000000;  // 100 s: admitted, never shed
  first.submit(hurried);
  EXPECT_EQ(cluster.metrics().queries, 4);

  // A session moved with buffered submits carries them along: the target's
  // close() admits and answers them, in submission order.
  first.submit(requests[4]);
  StreamSession second = std::move(first);
  EXPECT_FALSE(first.open());
  EXPECT_EQ(second.submit(requests[5]), 5u);
  StreamSession third = cluster.open_stream();
  third = std::move(second);  // the target's own (empty) session closes first
  EXPECT_EQ(cluster.metrics().queries, 4);
  const std::vector<AdvisorResponse> got = third.close();
  ASSERT_EQ(got.size(), requests.size());
  for (std::size_t j = 0; j < requests.size(); ++j)
    EXPECT_EQ(serve::to_jsonl(got[j]), serve::to_jsonl(expected[j])) << "slot " << j;
  EXPECT_EQ(cluster.metrics().queries, 6);
}

TEST_F(StreamFixture, MetricsStaySaneDuringALiveStream) {
  // The satellite race fix: metrics() must be callable — and consistent —
  // while a producer is mid-stream. TSan (the CI matrix) watches the
  // synchronization; this test watches the values.
  ServingCluster cluster(stream_config(2, 64), primary_);
  constexpr int kRequests = 600;
  std::atomic<bool> done{false};

  std::thread producer([&cluster, &done] {
    StreamSession session = cluster.open_stream();
    const std::vector<AdvisorRequest> requests = stream_requests(3, kRequests);
    for (const AdvisorRequest& req : requests) session.submit(req);
    session.close();
    done.store(true);
  });

  long last_queries = 0;
  std::uint64_t last_e2e = 0;
  while (!done.load()) {
    const ClusterMetrics m = cluster.metrics();
    EXPECT_GE(m.queries, last_queries);  // monotone under one lock
    EXPECT_LE(m.queries, kRequests);
    // The stage histograms are cumulative merges of per-shard state: their
    // counts grow monotonically too, never outrun admissions, and stay
    // internally consistent (every serviced request waited in a queue and
    // finished end-to-end; transient retries can only add extra waits).
    EXPECT_GE(m.e2e.count(), last_e2e);
    EXPECT_LE(m.e2e.count(), static_cast<std::uint64_t>(kRequests));
    EXPECT_GE(m.queue_wait.count(), m.service.count());
    EXPECT_EQ(m.service.count(), m.e2e.count());
    EXPECT_GE(m.e2e.percentile_us(100.0), m.e2e.percentile_us(0.0));
    EXPECT_FALSE(m.to_jsonl().empty());
    last_queries = m.queries;
    last_e2e = m.e2e.count();
  }
  producer.join();
  const ClusterMetrics settled = cluster.metrics();
  EXPECT_EQ(settled.queries, kRequests);
  // All 600 requests are distinct (no cache hits), none carry deadlines
  // (no shedding), so every one of them must land in the e2e histogram.
  EXPECT_EQ(settled.e2e.count(), static_cast<std::uint64_t>(kRequests));
  EXPECT_NE(settled.to_jsonl().find("\"queue_wait_us\":{"), std::string::npos);
  EXPECT_NE(settled.to_jsonl().find("\"e2e_us\":{\"count\":600,"), std::string::npos);
}

// --- Randomized interleaving fuzz (the TSan job's stress surface) -----------

TEST_F(StreamFixture, FuzzedInterleavingsDeliverEveryResponse) {
  // Seeded random schedules over concurrent open/submit/close/metrics.
  // Every submitted request must come back exactly once, whatever the
  // interleaving; ISR_STRESS_ITERS (default 3) scales the rounds, and a
  // failure prints its seed for replay.
  const long rounds = core::env_long("ISR_STRESS_ITERS", 3);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 80;

  for (long seed = 0; seed < rounds; ++seed) {
    SCOPED_TRACE("fuzz seed " + std::to_string(seed));
    ClusterConfig config = stream_config(2, 32);
    config.queue_capacity = 16;
    config.batch_deadline_ms = 0.1;
    ServingCluster cluster(std::move(config), primary_);

    std::atomic<long> submitted{0};
    std::atomic<long> answered{0};
    std::atomic<long> shed{0};
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      clients.emplace_back([&, t] {
        Rng rng(hash_seed(static_cast<std::uint64_t>(seed), t, 0xF022ull));
        std::vector<StreamSession> open;
        long mine = 0;
        const auto close_one = [&](std::size_t idx) {
          const std::vector<AdvisorResponse> responses = open[idx].close();
          answered.fetch_add(static_cast<long>(responses.size()));
          for (const AdvisorResponse& r : responses)
            if (r.shed()) shed.fetch_add(1);
          open.erase(open.begin() + static_cast<std::ptrdiff_t>(idx));
        };
        for (int op = 0; op < kOpsPerThread; ++op) {
          const int roll = rng.uniform_int(0, 99);
          if (open.empty() || (roll < 15 && open.size() < 2)) {
            open.push_back(cluster.open_stream());
          } else if (roll < 25 && !open.empty()) {
            close_one(static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<int>(open.size()) - 1)));
          } else if (roll < 30) {
            cluster.metrics();
          } else {
            AdvisorRequest req;
            req.arch = rng.uniform_int(0, 1) == 0 ? "CPU1" : "GPU1";
            if (rng.uniform_int(0, 9) == 0) req.corpus = "ghost";  // unknown
            req.image_edge = 96 + 8 * rng.uniform_int(0, 11);
            req.n_per_task = 16 + rng.uniform_int(0, 7);
            req.priority = rng.uniform_int(0, 7);
            const int dice = rng.uniform_int(0, 9);
            if (dice == 0) req.deadline_us = 1;  // likely shed under load
            else if (dice < 4) req.deadline_us = 100000;
            open[static_cast<std::size_t>(
                     rng.uniform_int(0, static_cast<int>(open.size()) - 1))]
                .submit(req);
            ++mine;
          }
        }
        while (!open.empty()) close_one(open.size() - 1);
        submitted.fetch_add(mine);
      });
    for (std::thread& client : clients) client.join();

    EXPECT_EQ(answered.load(), submitted.load());
    const ClusterMetrics m = cluster.metrics();
    EXPECT_EQ(m.queries, submitted.load());
    EXPECT_EQ(m.shed_queries, shed.load());
  }
}

}  // namespace
}  // namespace isr::cluster
