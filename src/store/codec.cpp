#include "store/codec.hpp"

#include <bit>
#include <cstring>
#include <limits>

namespace adtp::store {

namespace {

// ---- little-endian byte plumbing ------------------------------------------
// The containers in play are x86-64 only today, but the format is
// explicitly little-endian so a future big-endian port changes these
// eight functions, not the shard files.

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked sequential reader over an immutable buffer.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::uint16_t u16() {
    need(2);
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) {
      v = static_cast<std::uint16_t>(v | (std::uint16_t{data_[pos_ + i]}
                                          << (8 * i)));
    }
    pos_ += 2;
    return v;
  }

  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_ + i]} << (8 * i);
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_ + i]} << (8 * i);
    pos_ += 8;
    return v;
  }

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

  void expect_end() const {
    if (pos_ != size_) {
      throw CodecError("codec: " + std::to_string(size_ - pos_) +
                       " trailing byte(s) after a complete value");
    }
  }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) throw CodecError("codec: truncated buffer");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

void check_version(std::uint16_t version, const char* what) {
  if (version != kCodecVersion) {
    throw CodecError(std::string("codec: ") + what + " version " +
                     std::to_string(version) + " (this build reads " +
                     std::to_string(kCodecVersion) + ")");
  }
}

}  // namespace

void encode_result(const AnalysisResult& result,
                   std::vector<std::uint8_t>& out) {
  put_u16(out, kCodecVersion);
  out.push_back(static_cast<std::uint8_t>(result.used));
  out.push_back(0);  // reserved
  put_f64(out, result.seconds);
  put_u64(out, result.memo_hits);
  put_u64(out, result.memo_misses);
  const std::vector<ValuePoint>& points = result.front.points();
  put_u32(out, static_cast<std::uint32_t>(points.size()));
  for (const ValuePoint& p : points) {
    put_f64(out, p.def);
    put_f64(out, p.att);
  }
}

std::vector<std::uint8_t> encode_result(const AnalysisResult& result) {
  std::vector<std::uint8_t> out;
  out.reserve(32 + 16 * result.front.size());
  encode_result(result, out);
  return out;
}

AnalysisResult decode_result(const std::uint8_t* data, std::size_t size) {
  Reader r(data, size);
  check_version(r.u16(), "result");
  AnalysisResult result;
  const std::uint8_t used = r.u8();
  if (used > static_cast<std::uint8_t>(Algorithm::Hybrid)) {
    throw CodecError("codec: unknown algorithm tag " + std::to_string(used));
  }
  result.used = static_cast<Algorithm>(used);
  (void)r.u8();  // reserved
  result.seconds = r.f64();
  result.memo_hits = r.u64();
  result.memo_misses = r.u64();
  const std::uint32_t n = r.u32();
  // Each point needs 16 bytes; reject lying counts before reserving.
  if (static_cast<std::uint64_t>(n) * 16 > r.remaining()) {
    throw CodecError("codec: point count exceeds buffer");
  }
  std::vector<ValuePoint> points;
  points.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ValuePoint p;
    p.def = r.f64();
    p.att = r.f64();
    points.push_back(p);
  }
  r.expect_end();
  // The staircase invariant came from the run that produced the bytes;
  // adopt verbatim (re-minimizing could alter bits).
  result.front = Front::from_staircase(std::move(points));
  return result;
}

}  // namespace adtp::store
