#include "serve/jsonl.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "core/env.hpp"

namespace isr::serve {

namespace {

// A minimal scanner for the wire format: one flat JSON object per line,
// values restricted to strings and numbers. Hand-rolled because
// the repo takes no external dependencies and the schema is fixed — this
// is a parser for ten known keys, not a JSON library.
struct Scanner {
  const char* p;
  const char* end;

  explicit Scanner(const std::string& s) : p(s.data()), end(s.data() + s.size()) {}

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

  bool parse_string(std::string& out, std::string& error) {
    if (!eat('"')) {
      error = "expected string";
      return false;
    }
    out.clear();
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end) break;
        switch (*p) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          default: error = "unsupported string escape"; return false;
        }
        ++p;
      } else {
        out += *p++;
      }
    }
    if (p >= end) {
      error = "unterminated string";
      return false;
    }
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
};

bool parse_int_value(Scanner& sc, const char* key, int& out, std::string& error) {
  double v = 0.0;
  if (!sc.parse_number(v, error)) {
    error = std::string(key) + ": " + error;
    return false;
  }
  if (v != std::floor(v) || v < -2147483648.0 || v > 2147483647.0) {
    error = std::string(key) + ": expected an integer";
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

}  // namespace

bool parse_request_line(const std::string& line, AdvisorRequest& request, std::string& error) {
  AdvisorRequest req;  // schema defaults; assigned to `request` only on success
  Scanner sc(line);
  if (!sc.eat('{')) {
    error = "expected a JSON object";
    return false;
  }
  if (!sc.eat('}')) {  // non-empty object: key:value pairs
    std::vector<std::string> seen;
    do {
      std::string key;
      if (!sc.parse_string(key, error)) return false;
      // Duplicate keys are as silent a failure mode as unknown ones: a
      // request-builder bug merging defaults with overrides would get
      // last-wins semantics and a confidently wrong prediction.
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
        error = "duplicate key \"" + key + "\"";
        return false;
      }
      seen.push_back(key);
      if (!sc.eat(':')) {
        error = key + ": expected ':'";
        return false;
      }
      if (key == "corpus") {
        if (!sc.parse_string(req.corpus, error)) {
          error = "corpus: " + error;
          return false;
        }
      } else if (key == "arch") {
        if (!sc.parse_string(req.arch, error)) {
          error = "arch: " + error;
          return false;
        }
      } else if (key == "renderer") {
        std::string token;
        if (!sc.parse_string(token, error)) {
          error = "renderer: " + error;
          return false;
        }
        if (!renderer_from_token(token, req.renderer)) {
          error = "renderer: unknown token \"" + token +
                  "\" (expected raytrace, rasterize, or volume)";
          return false;
        }
      } else if (key == "n_per_task") {
        if (!parse_int_value(sc, "n_per_task", req.n_per_task, error)) return false;
      } else if (key == "tasks") {
        if (!parse_int_value(sc, "tasks", req.tasks, error)) return false;
      } else if (key == "image_edge") {
        if (!parse_int_value(sc, "image_edge", req.image_edge, error)) return false;
      } else if (key == "frames") {
        if (!parse_int_value(sc, "frames", req.frames, error)) return false;
      } else if (key == "budget_seconds") {
        if (!sc.parse_number(req.budget_seconds, error)) {
          error = "budget_seconds: " + error;
          return false;
        }
      } else if (key == "deadline_us") {
        // Streaming QoS (src/cluster/): 0 = no deadline. Negative budgets
        // are a client bug, not "very urgent" — reject loudly.
        int v = 0;
        if (!parse_int_value(sc, "deadline_us", v, error)) return false;
        if (v < 0) {
          error = "deadline_us: must be >= 0";
          return false;
        }
        req.deadline_us = v;
      } else if (key == "priority") {
        int v = 0;
        if (!parse_int_value(sc, "priority", v, error)) return false;
        if (v < 0 || v > 7) {
          error = "priority: must be in 0..7 (0 most urgent)";
          return false;
        }
        req.priority = v;
      } else {
        // Strict schema: a typo'd key must not silently fall back to a
        // default (the same loud-over-silent stance core/env takes).
        error = "unknown key \"" + key + "\"";
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

namespace {

// Serves one accumulated batch: parse failures get error responses in
// their slots, everything else goes through the handler, and responses
// come out in request order. `wire` is the caller-owned serialization
// buffer: every line appends into it (to_jsonl's zero-copy form) and the
// batch leaves through one ostream write — the buffer's capacity survives
// across flushes, so a steady-state stream serializes without allocating.
std::size_t flush_batch(const std::vector<std::string>& lines, const BatchHandler& handler,
                        std::ostream& out, std::string& wire) {
  std::vector<AdvisorResponse> responses(lines.size());
  std::vector<AdvisorRequest> valid;
  std::vector<std::size_t> slot;
  valid.reserve(lines.size());
  slot.reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    AdvisorRequest req;
    std::string error;
    if (parse_request_line(lines[i], req, error)) {
      valid.push_back(req);
      slot.push_back(i);
    } else {
      responses[i].status = AdvisorResponse::Status::kError;
      responses[i].error = "parse error: " + error;
    }
  }
  const std::vector<AdvisorResponse> served = handler(valid);
  for (std::size_t j = 0; j < served.size() && j < slot.size(); ++j)
    responses[slot[j]] = served[j];
  wire.clear();
  for (const AdvisorResponse& r : responses) {
    to_jsonl(r, wire);
    wire += '\n';
  }
  out.write(wire.data(), static_cast<std::streamsize>(wire.size()));
  out.flush();
  return responses.size();
}

}  // namespace

std::size_t run_jsonl(std::istream& in, std::ostream& out, const BatchHandler& handler) {
  std::size_t answered = 0;
  std::vector<std::string> batch;
  std::string line;
  std::string wire;  // reused serialization buffer, one per stream
  while (std::getline(in, line)) {
    const bool blank = line.find_first_not_of(" \t\r") == std::string::npos;
    if (blank) {
      if (!batch.empty()) {
        answered += flush_batch(batch, handler, out, wire);
        batch.clear();
      }
      continue;
    }
    batch.push_back(line);
  }
  if (!batch.empty()) answered += flush_batch(batch, handler, out, wire);
  return answered;
}

}  // namespace isr::serve
