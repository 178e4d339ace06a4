// Differential fuzzer for the JSON-lines request parser. The oracle below
// is the parser as it was before the allocation-free rewrite (std::string
// keys and number tokens, strtod via core::parse_double, a vector of seen
// keys), kept verbatim. Seeded mutations of valid request lines — byte
// flips, truncations, duplicated and escaped keys, whitespace, stray '\r',
// and number tokens on both sides of every spelling std::from_chars and
// strtod disagree on — must get the same accept/reject result, the same
// parsed fields and byte-identical error text from both parsers.
// ISR_STRESS_ITERS (default 3) scales the rounds; a failure prints the
// seed and the offending line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/env.hpp"
#include "math/rng.hpp"
#include "serve/jsonl.hpp"

namespace isr::serve {
namespace oracle {

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

}  // namespace oracle

namespace {

// Number spellings the two parsers must agree on, led by every known
// from_chars-vs-strtod divergence: a leading '+', hex floats, underflow to
// zero, subnormals, overflow, and partial infinity/NaN spellings.
const char* const kNumberTokens[] = {
    "+1", "0x1p3", "0X10", "1e-400", "4e-320", "1e999", "Infinity", "infinit", "nanx",
    "1.5e", "-1e-400", "2e-324", "5e-324", "-0", "0", "1.", ".5", ".", "-", "+", "+-1",
    "--1", "-+1", "+0x10", "0x", "0x.8p1", "-0x1.8p1", "0xffffffff", "1e+5", "1E5",
    "1e", "e5", "nan", "-nan", "NaN", "NAN", "inf", "-inf", "INF", "-Infinity",
    "infinity", "infinityx", "nan1", "2147483647", "2147483648", "-2147483648",
    "-2147483649", "4.5", "1e9", "1e10", "00012", "1_0", "1..2", "1e5.5", "12abc",
    "0.000000000000000000000000000000000000000000000000000000000000000000000001",
    "1000000000000000000000000000000000000000000000000000000000000000000000000000",
    "1e-310", "1e308", "1.7976931348623157e308", "1.7976931348623159e308", "",
    "100", "60", "8", "7", "12.5"};

const char* const kNumericKeys[] = {"n_per_task", "tasks", "image_edge", "budget_seconds",
                                    "frames", "deadline_us", "priority"};

// Valid request lines the mutations start from.
const char* const kSeedLines[] = {
    R"({"corpus":"titan","arch":"GPU1","renderer":"volume","n_per_task":80,"tasks":4,)"
    R"("image_edge":256,"budget_seconds":12.5,"frames":7,"deadline_us":1000,"priority":2})",
    R"({"arch":"CPU1","renderer":"raytrace","n_per_task":100,"tasks":8,"image_edge":512,)"
    R"("budget_seconds":60,"frames":100})",
    R"({"renderer":"rasterize"})",
    R"({})",
    R"(  { "tasks" : 16 , "arch" : "GPU1" }  )",
    R"({"arch":"G\/PU1","corpus":"a\"b\\c\td"})",
    R"({"budget_seconds":1e-3,"priority":0,"deadline_us":0})",
    "{\"renderer\":\"volume\",\r\"frames\":3}\r",
};

bool same_request(const AdvisorRequest& a, const AdvisorRequest& b) {
  return a.corpus == b.corpus && a.arch == b.arch && a.renderer == b.renderer &&
         a.n_per_task == b.n_per_task && a.tasks == b.tasks &&
         a.image_edge == b.image_edge &&
         std::memcmp(&a.budget_seconds, &b.budget_seconds, sizeof(double)) == 0 &&
         a.frames == b.frames && a.deadline_us == b.deadline_us && a.priority == b.priority;
}

// A request both parsers start from, unlike the schema defaults, so a
// failed parse that half-mutates its output shows.
AdvisorRequest sentinel() {
  AdvisorRequest r;
  r.corpus = "sentinel-corpus";
  r.arch = "sentinel-arch";
  r.renderer = model::RendererKind::kVolume;
  r.n_per_task = -11;
  r.tasks = -12;
  r.image_edge = -13;
  r.budget_seconds = -14.5;
  r.frames = -15;
  r.deadline_us = -16;
  r.priority = -17;
  return r;
}

// Runs `line` through both parsers; a mismatch fails the test with the line.
void expect_same_parse(const std::string& line) {
  AdvisorRequest want = sentinel(), got = sentinel();
  std::string want_error = "untouched", got_error = "untouched";
  const bool want_ok = oracle::parse_request_line(line, want, want_error);
  const bool got_ok = parse_request_line(line, got, got_error);
  ASSERT_EQ(got_ok, want_ok) << "line: " << line << "\noracle error: " << want_error
                             << "\nerror: " << got_error;
  EXPECT_EQ(got_error, want_error) << "line: " << line;
  EXPECT_TRUE(same_request(got, want)) << "line: " << line;
}

// Bytes a mutation draws from: the format's own punctuation, whitespace
// the scanner does and does not skip, escape letters, and number glyphs.
constexpr char kAlphabet[] = "{}\":,\\/ \t\r\n\v0123456789+-.eExXpPnNaAiIfFtubr_";

char random_byte(Rng& rng) {
  if (rng.uniform_int(0, 3) == 0) return static_cast<char>(rng.uniform_int(0, 255));
  return kAlphabet[rng.uniform_int(0, static_cast<int>(sizeof(kAlphabet)) - 2)];
}

std::size_t random_pos(Rng& rng, const std::string& s, bool inclusive) {
  const int n = static_cast<int>(s.size()) - (inclusive ? 0 : 1);
  return n < 0 ? 0 : static_cast<std::size_t>(rng.uniform_int(0, n));
}

// Returns the positions of every quoted token that is followed by ':'.
std::vector<std::size_t> key_starts(const std::string& s) {
  std::vector<std::size_t> starts;
  for (std::size_t i = s.find('"'); i != std::string::npos; i = s.find('"', i + 1)) {
    const std::size_t close = s.find('"', i + 1);
    if (close == std::string::npos) break;
    const std::size_t colon = s.find_first_not_of(" \t\r", close + 1);
    if (colon != std::string::npos && s[colon] == ':') starts.push_back(i);
    i = close;
  }
  return starts;
}

void mutate(Rng& rng, std::string& s) {
  switch (rng.uniform_int(0, 9)) {
    case 0:  // byte flip
      if (!s.empty()) s[random_pos(rng, s, false)] = random_byte(rng);
      break;
    case 1:  // truncation
      s.resize(random_pos(rng, s, true));
      break;
    case 2:  // inserted byte
      s.insert(random_pos(rng, s, true), 1, random_byte(rng));
      break;
    case 3:  // deleted byte
      if (!s.empty()) s.erase(random_pos(rng, s, false), 1);
      break;
    case 4: {  // duplicated key: a schema pair re-inserted right after '{'
      const std::size_t brace = s.find('{');
      if (brace == std::string::npos) break;
      const char* key = kNumericKeys[rng.uniform_int(0, 6)];
      s.insert(brace + 1, std::string("\"") + key + "\":1,");
      if (rng.uniform_int(0, 1) == 0) s.insert(brace + 1, std::string("\"") + key + "\":2,");
      break;
    }
    case 5: {  // escaped key: an escape spliced into a key, or a key spelled with one
      const std::vector<std::size_t> starts = key_starts(s);
      if (starts.empty()) break;
      static const char* const kEscapes[] = {"\\/", "\\\"", "\\\\", "\\n", "\\t", "\\u0061",
                                             "\\x", "\\"};
      const std::size_t at = starts[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(starts.size()) - 1))];
      const std::size_t close = s.find('"', at + 1);
      const std::size_t pos =
          at + 1 + static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(close - at - 1)));
      s.insert(pos, kEscapes[rng.uniform_int(0, 7)]);
      break;
    }
    case 6: {  // whitespace, skipped or not by the scanner
      static const char kSpace[] = " \t\r\n\v\f";
      s.insert(random_pos(rng, s, true), 1, kSpace[rng.uniform_int(0, 5)]);
      break;
    }
    case 7:  // stray '\r'
      s.insert(random_pos(rng, s, true), 1, '\r');
      break;
    case 8: {  // a number token swapped for a divergent spelling
      const std::size_t colon = s.find(':', random_pos(rng, s, true));
      if (colon == std::string::npos) break;
      std::size_t end = colon + 1;
      while (end < s.size() && s[end] != ',' && s[end] != '}') ++end;
      const int n = static_cast<int>(sizeof(kNumberTokens) / sizeof(kNumberTokens[0]));
      s.replace(colon + 1, end - colon - 1, kNumberTokens[rng.uniform_int(0, n - 1)]);
      break;
    }
    default: {  // a duplicated slice
      const std::size_t a = random_pos(rng, s, true);
      const std::size_t len = std::min<std::size_t>(s.size() - a, 12);
      s.insert(random_pos(rng, s, true), s.substr(a, len));
      break;
    }
  }
}

TEST(JsonlFuzz, SeedCorpusParsesLikeTheOracle) {
  for (const char* line : kSeedLines) {
    AdvisorRequest req;
    std::string error;
    EXPECT_TRUE(parse_request_line(line, req, error)) << line << ": " << error;
    expect_same_parse(line);
  }
  // Every spelling under every numeric key, alone, padded and mid-object.
  for (const char* key : kNumericKeys)
    for (const char* token : kNumberTokens) {
      const std::string pair = std::string("\"") + key + "\":" + token;
      expect_same_parse("{" + pair + "}");
      expect_same_parse("{ " + pair + " ,\"arch\":\"GPU1\"}");
      expect_same_parse("{\"renderer\":\"volume\"," + pair + "\r}");
    }
}

TEST(JsonlFuzz, RandomDoublesParseLikeTheOracle) {
  // Bit patterns across the whole double range, in the spellings clients
  // print them with: shortest round trip, %.9g, %.17g, %e and hex %a.
  Rng rng(0x15C0FFEEull);
  const long rounds = core::env_long("ISR_STRESS_ITERS", 3);
  for (long i = 0; i < rounds * 2000; ++i) {
    double v = 0.0;
    const std::uint64_t bits = rng.next_u64();
    std::memcpy(&v, &bits, sizeof(v));
    for (const char* fmt : {"%.9g", "%.17g", "%e", "%a", "%+.3g"}) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), fmt, v);
      expect_same_parse(std::string("{\"budget_seconds\":") + buf + "}");
      if (HasFailure()) return;
    }
  }
}

TEST(JsonlFuzz, MutatedLinesParseLikeTheOracle) {
  const long rounds = core::env_long("ISR_STRESS_ITERS", 3);
  constexpr int kMutantsPerRound = 20000;
  const int n_seeds = static_cast<int>(sizeof(kSeedLines) / sizeof(kSeedLines[0]));
  for (long seed = 0; seed < rounds; ++seed) {
    SCOPED_TRACE("fuzz seed " + std::to_string(seed));
    Rng rng(hash_seed(static_cast<std::uint64_t>(seed), 0x150Full));
    for (int m = 0; m < kMutantsPerRound; ++m) {
      std::string line = kSeedLines[rng.uniform_int(0, n_seeds - 1)];
      for (int ops = rng.uniform_int(1, 3); ops > 0; --ops) mutate(rng, line);
      expect_same_parse(line);
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace isr::serve
