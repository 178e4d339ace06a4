#include "core/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <system_error>

#include "core/env.hpp"

#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace isr::core {

int default_thread_count() {
  const long env = env_long("ISR_THREADS", 0);
  if (env > 0) return static_cast<int>(std::min(env, 1024L));
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

// One in-flight parallel_for. Lives on the caller's stack; the pool mutex
// guards every field. `completed` counts items (not chunks) and also
// absorbs items skipped after an exception, so it always reaches `n`.
struct ThreadPool::Loop {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::size_t grain = 1;
  std::size_t next = 0;       // first unclaimed index
  std::size_t completed = 0;  // finished + skipped items
  std::exception_ptr error;
  std::condition_variable done_cv;  // caller waits for completed == n
};

ThreadPool::ThreadPool(int threads) {
  int target = threads > 0 ? threads : default_thread_count();
  workers_.reserve(static_cast<std::size_t>(target > 0 ? target - 1 : 0));
  for (int i = 1; i < target; ++i) {
    try {
      workers_.emplace_back([this] { worker_main(); });
    } catch (const std::system_error&) {
      break;  // thread creation refused: run with the lanes we got
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
#if defined(__SANITIZE_THREAD__)
  // std::mutex has a trivial destructor here, so ThreadSanitizer never
  // sees this mutex die. Pools live on the stack (run_study), and a later
  // object's mutex in the same stack slot would inherit this one's
  // lock-order history — a false lock-order-inversion report. Say so.
  __tsan_mutex_destroy(&mutex_, 0);
#endif
}

void ThreadPool::unlist(Loop& loop) {
  const auto it = std::find(active_.begin(), active_.end(), &loop);
  if (it != active_.end()) active_.erase(it);
}

bool ThreadPool::run_one_chunk(Loop& loop, std::unique_lock<std::mutex>& lock) {
  if (loop.next >= loop.n) return false;
  const std::size_t begin = loop.next;
  const std::size_t end = std::min(loop.n, begin + loop.grain);
  loop.next = end;
  if (loop.next >= loop.n) unlist(loop);

  lock.unlock();
  std::exception_ptr error;
  for (std::size_t i = begin; i < end; ++i) {
    try {
      (*loop.fn)(i);
    } catch (...) {
      error = std::current_exception();
      break;
    }
  }
  lock.lock();

  if (error && !loop.error) {
    // First failure: record it and skip everything not yet claimed.
    loop.error = error;
    loop.completed += loop.n - loop.next;
    loop.next = loop.n;
    unlist(loop);
  }
  loop.completed += end - begin;
  if (loop.completed >= loop.n) loop.done_cv.notify_all();
  return true;
}

void ThreadPool::worker_main() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return shutdown_ || !active_.empty(); });
    if (shutdown_) return;
    Loop& loop = *active_.front();
    run_one_chunk(loop, lock);
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (workers_.empty() || n <= grain) {
    for (std::size_t i = 0; i < n; ++i) fn(i);  // serial fast path
    return;
  }

  Loop loop;
  loop.fn = &fn;
  loop.n = n;
  loop.grain = grain;

  std::unique_lock<std::mutex> lock(mutex_);
  active_.push_back(&loop);
  work_cv_.notify_all();
  while (run_one_chunk(loop, lock)) {
  }
  loop.done_cv.wait(lock, [&loop] { return loop.completed >= loop.n; });
  if (loop.error) std::rethrow_exception(loop.error);
}

}  // namespace isr::core
