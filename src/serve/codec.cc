#include "serve/codec.h"

namespace after {
namespace serve {
namespace {

/// Bytes per encoded Vec2.
constexpr uint64_t kVec2Bytes = 16;

void PutVec2s(const std::vector<Vec2>& points, std::string* out) {
  for (const Vec2& p : points) {
    PutF64(p.x, out);
    PutF64(p.y, out);
  }
}

std::vector<Vec2> TakeVec2s(uint32_t count, ByteReader* reader) {
  std::vector<Vec2> points(count);
  for (Vec2& p : points) {
    p.x = reader->TakeF64();
    p.y = reader->TakeF64();
  }
  return points;
}

}  // namespace

void AppendTickFrame(const TickFrame& frame, std::string* out) {
  out->reserve(out->size() + 12 +
               kVec2Bytes * (frame.positions.size() + frame.goals.size()));
  PutI32(frame.tick, out);
  PutU32(static_cast<uint32_t>(frame.positions.size()), out);
  PutU32(static_cast<uint32_t>(frame.goals.size()), out);
  PutVec2s(frame.positions, out);
  PutVec2s(frame.goals, out);
}

Result<TickFrame> DecodeTickFrame(std::string_view bytes) {
  ByteReader reader(bytes);
  TickFrame frame;
  frame.tick = reader.TakeI32();
  const uint32_t n = reader.TakeU32();
  const uint32_t goals = reader.TakeU32();
  if (!reader.ok()) return InvalidDataError("tick frame: truncated header");
  // One exact size check covers truncation, trailing bytes and counts
  // no payload could hold, before anything is allocated.
  if (reader.remaining() != kVec2Bytes * (uint64_t{n} + goals))
    return InvalidDataError(
        "tick frame: size does not match its user and goal counts");
  frame.positions = TakeVec2s(n, &reader);
  frame.goals = TakeVec2s(goals, &reader);
  return frame;
}

}  // namespace serve
}  // namespace after
