/// \file codec.hpp
/// \brief Versioned binary codec for analysis results and fronts.
///
/// The persistent front store needs results as bytes; this codec is the
/// contract for those bytes. Encoding is little-endian, length-prefixed
/// where variable, and *bit-exact* on doubles: values round-trip by
/// IEEE-754 bit pattern (memcpy, never text), so +-infinity, subnormals
/// and negative zero decode to the same bits that were encoded - the
/// property that lets a store-warm restart serve fronts bit-identical
/// to cold analysis (docs/CONTRACTS.md contract 5).
///
/// Every encoding starts with a codec version (kCodecVersion). Decoders
/// reject unknown versions, truncated buffers, out-of-range enum tags,
/// and trailing bytes with CodecError - a corrupt or stale payload is
/// detected, never misread. The shard layer adds its own checksums on
/// top; the codec's checks are the second line of defense.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/analyzer.hpp"
#include "core/pareto.hpp"

namespace adtp::store {

/// Version tag of the encodings below; bump on any layout change.
inline constexpr std::uint16_t kCodecVersion = 1;

/// A buffer failed to decode: wrong version, truncated, bad tag, or
/// trailing bytes. Not an I/O error - the bytes themselves are wrong.
class CodecError : public Error {
 public:
  explicit CodecError(const std::string& what) : Error(what) {}
};

/// Appends the encoding of \p result to \p out.
void encode_result(const AnalysisResult& result,
                   std::vector<std::uint8_t>& out);

/// Convenience: the encoding of \p result as a fresh buffer.
[[nodiscard]] std::vector<std::uint8_t> encode_result(
    const AnalysisResult& result);

/// Decodes exactly one result from [data, data + size); throws
/// CodecError unless the buffer is a complete, well-formed encoding
/// with no trailing bytes.
[[nodiscard]] AnalysisResult decode_result(const std::uint8_t* data,
                                           std::size_t size);

}  // namespace adtp::store
