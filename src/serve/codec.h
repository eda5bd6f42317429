#ifndef AFTER_SERVE_CODEC_H_
#define AFTER_SERVE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/geometry.h"
#include "common/result.h"

namespace after {
namespace serve {

// ---- little-endian primitives ------------------------------------------
//
// The one byte encoding under the wire protocol (serve/wire.h) and the
// journal (serve/journal.h): every multi-byte value is written byte by
// byte, least significant first, so encodings are byte-identical across
// platforms.

inline void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

inline void PutU16(uint16_t v, std::string* out) {
  PutU8(static_cast<uint8_t>(v & 0xff), out);
  PutU8(static_cast<uint8_t>(v >> 8), out);
}

inline void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i)
    PutU8(static_cast<uint8_t>((v >> (8 * i)) & 0xff), out);
}

inline void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i)
    PutU8(static_cast<uint8_t>((v >> (8 * i)) & 0xff), out);
}

inline void PutI32(int32_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v), out);
}

inline void PutF64(double v, std::string* out) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

/// Sequential all-or-nothing reader: every Take* either yields the next
/// field or trips the failure latch, and decoders check ok() && AtEnd()
/// once at the close.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return position_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - position_; }

  uint8_t TakeU8() {
    if (!Require(1)) return 0;
    return static_cast<uint8_t>(bytes_[position_++]);
  }

  uint16_t TakeU16() { return static_cast<uint16_t>(TakeLittleEndian(2)); }
  uint32_t TakeU32() { return static_cast<uint32_t>(TakeLittleEndian(4)); }
  uint64_t TakeU64() { return TakeLittleEndian(8); }
  int32_t TakeI32() { return static_cast<int32_t>(TakeU32()); }

  double TakeF64() {
    const uint64_t bits = TakeU64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string_view TakeBytes(size_t count) {
    if (!Require(count)) return {};
    const std::string_view taken = bytes_.substr(position_, count);
    position_ += count;
    return taken;
  }

 private:
  uint64_t TakeLittleEndian(int width) {
    if (!Require(static_cast<size_t>(width))) return 0;
    uint64_t v = 0;
    for (int i = 0; i < width; ++i)
      v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[position_++]))
           << (8 * i);
    return v;
  }

  bool Require(size_t count) {
    if (!ok_ || remaining() < count) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view bytes_;
  size_t position_ = 0;
  bool ok_ = true;
};

// ---- the tick frame ------------------------------------------------------

/// A room's state: one published tick. Migration carries it, the
/// journal's tick and state records hold it, and Room::Restore applies
/// it. The waypoint RNG and the walker set are deliberately not part of
/// it: the new owner continues with its own stream, which only perturbs
/// future waypoints, never committed positions or goals.
struct TickFrame {
  int tick = 0;
  std::vector<Vec2> positions;
  /// Live-mode waypoint goals, one per user; empty for a replay room,
  /// whose recording is its only trajectory source.
  std::vector<Vec2> goals;
};

/// The one encoding of a frame, appended to *out:
///
///   i32 tick | u32 n | u32 g | n x (f64 x, f64 y) positions
///            | g x (f64 x, f64 y) goals
///
/// 12 bytes plus 32 per user of a live room (16 of a replay room).
/// Doubles travel as their bit patterns, so a frame comes back bit for
/// bit.
void AppendTickFrame(const TickFrame& frame, std::string* out);

/// All-or-nothing decoder of exactly one encoded frame: kInvalidData
/// when the bytes are not exactly what the counts declare. Whether the
/// frame fits a room (user count, goals for its mode, tick range) is
/// Room::Restore's check.
Result<TickFrame> DecodeTickFrame(std::string_view bytes);

}  // namespace serve
}  // namespace after

#endif  // AFTER_SERVE_CODEC_H_
