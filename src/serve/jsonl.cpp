#include "serve/jsonl.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <string_view>

#include "core/env.hpp"

namespace isr::serve {

namespace {

// The request schema's keys; a line's seen keys are a bitmask over this table.
constexpr std::string_view kKeys[] = {"corpus", "arch", "renderer", "n_per_task",
                                      "tasks", "image_edge", "budget_seconds",
                                      "frames", "deadline_us", "priority"};
enum Key { kCorpus, kArch, kRenderer, kNPerTask, kTasks, kImageEdge, kBudgetSeconds,
           kFrames, kDeadlineUs, kPriority, kKeyCount };

int key_index(std::string_view key) {
  for (int k = 0; k < kKeyCount; ++k)
    if (kKeys[k] == key) return k;
  return -1;
}

// The byte the escape `\c` stands for, or 0 when unsupported (\u included).
char unescape(char c) {
  static constexpr char kEscape[] = "\"\\/bfnrt", kByte[] = "\"\\/\b\f\n\r\t";
  const void* at = std::memchr(kEscape, c, sizeof(kEscape) - 1);
  return at ? kByte[static_cast<const char*>(at) - kEscape] : 0;
}

// A minimal scanner for the wire format: one flat JSON object per line,
// values restricted to strings and numbers. Hand-rolled because
// the repo takes no external dependencies and the schema is fixed — this
// is a parser for ten known keys, not a JSON library. A string comes back
// as a view into the line, so a request line parses without allocating;
// only a string holding an escape is decoded, into the caller's scratch
// (the view is then valid until the next string decoded there).
struct Scanner {
  const char* p;
  const char* end;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
  }

  bool eat(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }

  bool parse_string(std::string_view& out, std::string& scratch, std::string& error) {
    if (!eat('"')) {
      error = "expected string";
      return false;
    }
    const char* begin = p;
    bool escaped = false;
    while (p < end && *p != '"') {
      if (*p != '\\') {
        if (escaped) scratch += *p;
        ++p;
        continue;
      }
      if (!escaped) scratch.assign(begin, p);
      escaped = true;
      if (++p >= end) break;
      const char c = unescape(*p++);
      if (c == 0) {
        error = "unsupported string escape";
        return false;
      }
      scratch += c;
    }
    if (p >= end) {
      error = "unterminated string";
      return false;
    }
    out = escaped ? std::string_view(scratch)
                  : std::string_view(begin, static_cast<std::size_t>(p - begin));
    ++p;  // closing quote
    return true;
  }

  bool parse_number(double& out, std::string& error) {
    skip_ws();
    const char* start = p;
    // Consume alphabetic characters too, so non-finite spellings ("nan",
    // "NaN", "inf", "Infinity", "1e999") form one token and earn the
    // precise rejection below rather than a generic parse failure at the
    // stray letters.
    while (p < end &&
           (*p == '-' || *p == '+' || *p == '.' || (*p >= '0' && *p <= '9') ||
            (*p >= 'a' && *p <= 'z') || (*p >= 'A' && *p <= 'Z')))
      ++p;
    // from_chars reads plain decimals. strtod's other spellings (a leading
    // '+', hex floats, underflow to zero) and every rejection go to
    // core::parse_double, which defines the accept set and the error text;
    // a short token's copy stays in the string's inline buffer.
    const auto fast = std::from_chars(start, p, out);
    if (fast.ec == std::errc() && fast.ptr == p && std::isfinite(out)) return true;
    const std::string token(start, p);
    const core::ParseStatus status = core::parse_double(token.c_str(), out);
    if (status == core::ParseStatus::kNotFinite) {
      error = "must be finite (NaN/Infinity and overflowing values are rejected)";
      return false;
    }
    if (status != core::ParseStatus::kOk) {
      error = "expected number";
      return false;
    }
    return true;
  }

  bool parse_int(int& out, std::string& error) {
    double v = 0.0;
    if (!parse_number(v, error)) return false;
    if (v != std::floor(v) || v < -2147483648.0 || v > 2147483647.0) {
      error = "expected an integer";
      return false;
    }
    out = static_cast<int>(v);
    return true;
  }
};

// Parses the value of schema key `key` into `req`. On failure `error` is
// the reason without the "key: " prefix the caller adds.
bool parse_value(Scanner& sc, int key, AdvisorRequest& req, std::string& scratch,
                 std::string& error) {
  std::string_view token;
  int v = 0;
  switch (key) {
    case kCorpus:
    case kArch:
      if (!sc.parse_string(token, scratch, error)) return false;
      (key == kCorpus ? req.corpus : req.arch).assign(token);
      return true;
    case kRenderer:
      if (!sc.parse_string(token, scratch, error)) return false;
      if (!renderer_from_token(token, req.renderer)) {
        error = "unknown token \"" + std::string(token) +
                "\" (expected raytrace, rasterize, or volume)";
        return false;
      }
      return true;
    case kNPerTask: return sc.parse_int(req.n_per_task, error);
    case kTasks: return sc.parse_int(req.tasks, error);
    case kImageEdge: return sc.parse_int(req.image_edge, error);
    case kFrames: return sc.parse_int(req.frames, error);
    case kBudgetSeconds: return sc.parse_number(req.budget_seconds, error);
    case kDeadlineUs:
    case kPriority:
      // Streaming QoS (src/cluster/): deadline_us 0 = no deadline, and a
      // negative budget is a client bug, not "very urgent" — reject loudly.
      if (!sc.parse_int(v, error)) return false;
      if (v < 0 || (key == kPriority && v > 7)) {
        error = key == kPriority ? "must be in 0..7 (0 most urgent)" : "must be >= 0";
        return false;
      }
      if (key == kPriority) req.priority = v;
      else req.deadline_us = v;
      return true;
  }
  return false;
}

}  // namespace

bool parse_request_line(const std::string& line, AdvisorRequest& request, std::string& error) {
  AdvisorRequest req;  // schema defaults; assigned to `request` only on success
  Scanner sc{line.data(), line.data() + line.size()};
  if (!sc.eat('{')) {
    error = "expected a JSON object";
    return false;
  }
  if (!sc.eat('}')) {  // non-empty object: key:value pairs
    std::string scratch;  // decoded escaped strings; untouched by plain ones
    std::uint32_t seen = 0;
    do {
      std::string_view key;
      if (!sc.parse_string(key, scratch, error)) return false;
      const int k = key_index(key);
      // Duplicate keys are as silent a failure mode as unknown ones: a
      // request-builder bug merging defaults with overrides would get
      // last-wins semantics and a confidently wrong prediction. (An
      // unknown key fails below before it could repeat.)
      if (k >= 0 && ((seen >> k) & 1u)) {
        error = "duplicate key \"" + std::string(key) + "\"";
        return false;
      }
      if (!sc.eat(':')) {
        error = std::string(key) + ": expected ':'";
        return false;
      }
      if (k < 0) {
        // Strict schema: a typo'd key must not silently fall back to a
        // default (the same loud-over-silent stance core/env takes).
        error = "unknown key \"" + std::string(key) + "\"";
        return false;
      }
      seen |= 1u << k;
      if (!parse_value(sc, k, req, scratch, error)) {
        error = std::string(kKeys[k]) + ": " + error;
        return false;
      }
    } while (sc.eat(','));
    if (!sc.eat('}')) {
      error = "expected ',' or '}'";
      return false;
    }
  }
  sc.skip_ws();
  if (sc.p != sc.end) {
    error = "trailing characters after object";
    return false;
  }
  request = std::move(req);
  return true;
}

AdvisorResponse::Status response_line_status(const std::string& line) {
  // The wire format is fixed (to_jsonl): ok lines open {"ok":true, error
  // lines open {"ok":false, with the shed/degraded marker key (in that
  // order) directly after — so prefix checks classify without a parse.
  if (line.rfind("{\"ok\":true,", 0) == 0) return AdvisorResponse::Status::kOk;
  if (line.rfind("{\"ok\":false,\"shed\":true,", 0) == 0) return AdvisorResponse::Status::kShed;
  if (line.rfind("{\"ok\":false,\"shed\":true,\"degraded\":true,", 0) == 0 ||
      line.rfind("{\"ok\":false,\"degraded\":true,", 0) == 0)
    return AdvisorResponse::Status::kDegraded;
  return AdvisorResponse::Status::kError;
}

std::size_t run_jsonl(std::istream& in, std::ostream& out, const BatchHandler& handler) {
  // Each line is parsed as it is read into the pending batch: a response
  // slot per line (parse errors filled in) and the valid requests with
  // their slots. Every buffer, `wire` included, keeps its capacity across
  // flushes, so a steady-state stream parses and serializes without allocating.
  std::size_t answered = 0;
  std::string line, error, wire;
  AdvisorRequest req;
  std::vector<AdvisorRequest> valid;
  std::vector<std::size_t> slot;
  std::vector<AdvisorResponse> responses;
  const auto flush = [&] {
    std::vector<AdvisorResponse> served = handler(valid);
    for (std::size_t j = 0; j < served.size() && j < slot.size(); ++j)
      responses[slot[j]] = std::move(served[j]);
    wire.clear();
    for (const AdvisorResponse& r : responses) {
      to_jsonl(r, wire);
      wire += '\n';
    }
    out.write(wire.data(), static_cast<std::streamsize>(wire.size()));
    out.flush();
    answered += responses.size();
    valid.clear();
    slot.clear();
    responses.clear();
  };
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      if (!responses.empty()) flush();
      continue;
    }
    responses.emplace_back();
    if (parse_request_line(line, req, error)) {
      slot.push_back(responses.size() - 1);
      valid.push_back(std::move(req));
    } else {
      responses.back().error = "parse error: " + error;
    }
  }
  if (!responses.empty()) flush();
  return answered;
}

}  // namespace isr::serve
