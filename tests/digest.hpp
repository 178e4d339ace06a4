// FNV-1a digest over raw value bits, for golden tests that pin a result
// bit for bit: a digest recorded once stays valid only while every hashed
// float, double and string is unchanged.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

namespace isr::testing_digest {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  // Arithmetic values by their object representation (so -0.0 != 0.0).
  template <class T>
  void add(T v) {
    static_assert(std::is_arithmetic_v<T>);
    unsigned char buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    bytes(buf, sizeof(T));
  }
  // Length-prefixed, so adjacent strings cannot trade characters.
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace isr::testing_digest
