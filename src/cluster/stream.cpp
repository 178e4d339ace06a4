#include "cluster/stream.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace isr::cluster {

void SessionState::allocate_run(std::size_t first, std::size_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) throw std::logic_error("StreamSession: submit after close");
  if (first != responses_.size())
    throw std::logic_error("StreamSession: admitted run does not start at the next slot");
  responses_.resize(first + count);
}

void SessionState::deliver(std::size_t slot, serve::AdvisorResponse&& response) {
  std::lock_guard<std::mutex> lock(mutex_);
  responses_[slot] = std::move(response);
  ++completed_;
  // Only a closing drain ever waits, and only the final delivery can
  // satisfy it — skip the notify on every earlier response.
  if (closed_ && completed_ == responses_.size()) cv_.notify_all();
}

void SessionState::deliver_run(const std::size_t* slots,
                               serve::AdvisorResponse* responses, std::size_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < count; ++i)
    responses_[slots[i]] = std::move(responses[i]);
  completed_ += count;
  if (closed_ && completed_ == responses_.size()) cv_.notify_all();
}

std::vector<serve::AdvisorResponse> SessionState::wait_drained() {
  std::unique_lock<std::mutex> lock(mutex_);
  closed_ = true;
  cv_.wait(lock, [&] { return completed_ == responses_.size(); });
  return std::move(responses_);
}

bool check_schedule(const AdmissionSchedule& schedule, std::string& error) {
  std::unordered_map<std::uint64_t, std::uint64_t> next_seq;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const AdmissionRecord& r = schedule[i];
    std::uint64_t& expected = next_seq[r.stream];
    if (r.seq != expected) {
      error = "schedule record " + std::to_string(i + 1) + " (stream " +
              std::to_string(r.stream) + " seq " + std::to_string(r.seq) +
              "): expected seq " + std::to_string(expected) +
              "; each stream's seqs must run 0, 1, 2, ... in order";
      return false;
    }
    ++expected;
  }
  error.clear();
  return true;
}

void save_schedule(const AdmissionSchedule& schedule, std::ostream& out) {
  out << "# insitu-perf admission schedule: STREAM SEQ T_US per line\n";
  for (const AdmissionRecord& r : schedule)
    out << r.stream << ' ' << r.seq << ' ' << r.t_us << '\n';
}

namespace {

// A schedule line as echoed in a load error: a short prefix, escaped like
// the wire format, with non-ASCII bytes masked, so a megabyte of garbage or
// a stray control byte still gives a one-line, terminal-safe error.
std::string echo_line(const std::string& line) {
  constexpr std::size_t kEchoBytes = 48;
  std::string prefix = line.substr(0, kEchoBytes);
  for (char& c : prefix)
    if (static_cast<unsigned char>(c) >= 0x7f) c = '?';
  std::string echo = serve::json_escape(prefix);
  if (line.size() > kEchoBytes) echo += "...";
  return echo;
}

}  // namespace

bool load_schedule(std::istream& in, AdmissionSchedule& schedule, std::string& error) {
  AdmissionSchedule loaded;
  std::string line;
  long line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    AdmissionRecord rec;
    long long stream = -1, seq = -1, t_us = 0;
    if (!(fields >> stream >> seq >> t_us) || stream < 0 || seq < 0) {
      error = "schedule line " + std::to_string(line_no) +
              ": expected \"STREAM SEQ T_US\" (got \"" + echo_line(line) + "\")";
      return false;
    }
    std::string trailing;
    if (fields >> trailing) {
      error = "schedule line " + std::to_string(line_no) + ": trailing fields";
      return false;
    }
    rec.stream = static_cast<std::uint64_t>(stream);
    rec.seq = static_cast<std::uint64_t>(seq);
    rec.t_us = static_cast<std::int64_t>(t_us);
    loaded.push_back(rec);
  }
  if (!check_schedule(loaded, error)) return false;
  schedule = std::move(loaded);
  return true;
}

}  // namespace isr::cluster
