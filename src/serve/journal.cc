#include "serve/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "nn/serialize.h"

namespace after {
namespace serve {
namespace {

Status Malformed(const char* what) {
  return InvalidDataError(std::string("journal: ") + what);
}

std::string JournalHeader() {
  std::string header;
  PutU32(kJournalMagic, &header);
  PutU8(kJournalVersion, &header);
  PutU8(0, &header);
  PutU8(0, &header);
  PutU8(0, &header);
  return header;
}

/// Length + checksum framing around one record's payload.
std::string FrameRecord(const JournalRecord& record) {
  const std::string payload = EncodeJournalRecord(record);
  std::string framed;
  framed.reserve(12 + payload.size());
  PutU32(static_cast<uint32_t>(payload.size()), &framed);
  PutU64(Fnv1a64Stream().Update(payload).Digest(), &framed);
  framed.append(payload);
  return framed;
}

/// One full write() per call; a crash mid-write is the torn-tail case
/// the record checksums are designed for.
Status WriteAll(int fd, const std::string& bytes) {
  size_t offset = 0;
  while (offset < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + offset, bytes.size() - offset);
    if (n < 0) {
      if (errno == EINTR) continue;
      return InternalError(std::string("journal write: ") +
                           std::strerror(errno));
    }
    offset += static_cast<size_t>(n);
  }
  return OkStatus();
}

/// Fsync of the containing directory, making a rename durable. Failure
/// is reported but non-fatal to callers that only lose the durability
/// of the very latest rotation.
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0)
    return InternalError("journal: open dir '" + dir +
                         "': " + std::strerror(errno));
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0)
    return InternalError("journal: fsync dir '" + dir +
                         "': " + std::strerror(errno));
  return OkStatus();
}

}  // namespace

std::string EncodeJournalRecord(const JournalRecord& record) {
  std::string payload;
  PutU8(static_cast<uint8_t>(record.type), &payload);
  PutI32(record.room, &payload);
  switch (record.type) {
    case JournalRecord::Type::kAssign:
      PutU64(record.epoch, &payload);
      PutU8(record.primary ? 1 : 0, &payload);
      PutU8(record.reset ? 1 : 0, &payload);
      break;
    case JournalRecord::Type::kRelease:
      PutU64(record.epoch, &payload);
      break;
    case JournalRecord::Type::kTick:
      AppendTickFrame(record.frame, &payload);
      break;
    case JournalRecord::Type::kState:
      PutU64(record.epoch, &payload);
      PutU8(record.primary ? 1 : 0, &payload);
      AppendTickFrame(record.frame, &payload);
      break;
  }
  return payload;
}

Result<JournalRecord> DecodeJournalRecord(std::string_view payload) {
  ByteReader reader(payload);
  JournalRecord out;
  const uint8_t type = reader.TakeU8();
  out.room = reader.TakeI32();
  if (!reader.ok()) return Malformed("truncated record payload");
  switch (type) {
    case static_cast<uint8_t>(JournalRecord::Type::kAssign): {
      out.type = JournalRecord::Type::kAssign;
      out.epoch = reader.TakeU64();
      const uint8_t primary = reader.TakeU8();
      const uint8_t reset = reader.TakeU8();
      if (!reader.ok()) return Malformed("truncated assign record");
      if (primary > 1) return Malformed("non-boolean assign primary flag");
      if (reset > 1) return Malformed("non-boolean assign reset flag");
      out.primary = primary == 1;
      out.reset = reset == 1;
      break;
    }
    case static_cast<uint8_t>(JournalRecord::Type::kRelease):
      out.type = JournalRecord::Type::kRelease;
      out.epoch = reader.TakeU64();
      if (!reader.ok()) return Malformed("truncated release record");
      break;
    case static_cast<uint8_t>(JournalRecord::Type::kTick):
      out.type = JournalRecord::Type::kTick;
      break;
    case static_cast<uint8_t>(JournalRecord::Type::kState): {
      out.type = JournalRecord::Type::kState;
      out.epoch = reader.TakeU64();
      const uint8_t primary = reader.TakeU8();
      if (!reader.ok()) return Malformed("truncated state record");
      if (primary > 1) return Malformed("non-boolean state primary flag");
      out.primary = primary == 1;
      break;
    }
    default:
      return Malformed("unknown record type");
  }
  if (out.type == JournalRecord::Type::kTick ||
      out.type == JournalRecord::Type::kState) {
    // The frame runs to the end of the payload.
    Result<TickFrame> frame =
        DecodeTickFrame(reader.TakeBytes(reader.remaining()));
    if (!frame.ok())
      return frame.status().Annotate("journal record of room " +
                                     std::to_string(out.room));
    out.frame = std::move(frame).value();
  }
  if (!reader.AtEnd()) return Malformed("trailing bytes after record");
  return out;
}

Journal::Journal(int fd, std::string path, bool fsync_each, int64_t bytes)
    : fd_(fd),
      path_(std::move(path)),
      fsync_each_(fsync_each),
      bytes_(bytes),
      appended_bytes_(bytes - static_cast<int64_t>(kJournalHeaderBytes)) {}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<Journal>> Journal::Open(const std::string& path,
                                               bool fsync_each) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0)
    return InternalError("journal: open '" + path +
                         "': " + std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return InternalError("journal: stat '" + path +
                         "': " + std::strerror(errno));
  }
  int64_t bytes = st.st_size;
  if (bytes == 0) {
    const Status header = WriteAll(fd, JournalHeader());
    if (!header.ok()) {
      ::close(fd);
      return header;
    }
    bytes = static_cast<int64_t>(kJournalHeaderBytes);
  }
  return std::unique_ptr<Journal>(
      new Journal(fd, path, fsync_each, bytes));
}

Status Journal::Append(const JournalRecord& record) {
  const std::string framed = FrameRecord(record);
  std::lock_guard<std::mutex> lock(mutex_);
  AFTER_RETURN_IF_ERROR(WriteAll(fd_, framed));
  bytes_ += static_cast<int64_t>(framed.size());
  appended_bytes_ += static_cast<int64_t>(framed.size());
  if (fsync_each_ && ::fsync(fd_) != 0)
    return InternalError(std::string("journal fsync: ") +
                         std::strerror(errno));
  return OkStatus();
}

Status Journal::Sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (::fsync(fd_) != 0)
    return InternalError(std::string("journal fsync: ") +
                         std::strerror(errno));
  return OkStatus();
}

Status Journal::Rotate(const std::vector<JournalRecord>& head) {
  std::string bytes = JournalHeader();
  for (const JournalRecord& record : head) bytes += FrameRecord(record);
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string temp = path_ + ".tmp";
  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    return InternalError("journal: open '" + temp +
                         "': " + std::strerror(errno));
  const Status written = WriteAll(fd, bytes);
  if (!written.ok()) {
    ::close(fd);
    return written;
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return InternalError(std::string("journal rotate fsync: ") +
                         std::strerror(errno));
  }
  if (::rename(temp.c_str(), path_.c_str()) != 0) {
    ::close(fd);
    return InternalError("journal: rename '" + temp +
                         "': " + std::strerror(errno));
  }
  // The rename is done: the fresh file is the journal whether or not the
  // directory fsync below succeeds, so swap fds unconditionally. Appends
  // continue into the fresh file; the old fd points at the unlinked
  // inode and is done.
  const Status dir_sync = SyncParentDir(path_);
  ::close(fd_);
  fd_ = fd;
  bytes_ = static_cast<int64_t>(bytes.size());
  appended_bytes_ = 0;
  return dir_sync;
}

int64_t Journal::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

int64_t Journal::appended_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return appended_bytes_;
}

Result<JournalReplay> ReadJournal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("journal '" + path + "' does not exist");
  std::ostringstream slurped;
  slurped << in.rdbuf();
  const std::string bytes = slurped.str();

  JournalReplay replay;
  if (bytes.size() < kJournalHeaderBytes) {
    // A crash while the header itself was being written: an empty
    // journal, with whatever partial bytes exist counted as torn tail.
    replay.truncated_bytes = static_cast<int64_t>(bytes.size());
    return replay;
  }
  ByteReader header(std::string_view(bytes).substr(0, kJournalHeaderBytes));
  const uint32_t magic = header.TakeU32();
  const uint8_t version = header.TakeU8();
  if (magic != kJournalMagic)
    return DataLossError("journal '" + path + "': bad magic");
  if (version != kJournalVersion)
    return DataLossError("journal '" + path + "': unsupported version " +
                         std::to_string(version));

  size_t offset = kJournalHeaderBytes;
  while (offset < bytes.size()) {
    const size_t left = bytes.size() - offset;
    if (left < 12) break;  // torn length/checksum prefix
    ByteReader prefix(std::string_view(bytes).substr(offset, 12));
    const uint32_t length = prefix.TakeU32();
    const uint64_t checksum = prefix.TakeU64();
    if (length > kMaxJournalPayloadBytes) break;  // corrupt length
    if (left < 12 + static_cast<size_t>(length)) break;  // torn payload
    const std::string_view payload =
        std::string_view(bytes).substr(offset + 12, length);
    if (Fnv1a64Stream().Update(payload.data(), payload.size()).Digest() !=
        checksum)
      break;  // flipped byte: drop this record and the dependent suffix
    Result<JournalRecord> record = DecodeJournalRecord(payload);
    if (!record.ok()) break;  // checksum passed but structure did not
    replay.records.push_back(std::move(record).value());
    offset += 12 + length;
  }
  replay.truncated_bytes = static_cast<int64_t>(bytes.size() - offset);
  return replay;
}

Result<int64_t> TruncateTornJournalTail(const std::string& path) {
  Result<JournalReplay> replay = ReadJournal(path);
  if (!replay.ok()) {
    if (replay.status().code() == StatusCode::kNotFound)
      return static_cast<int64_t>(0);
    return replay.status();
  }
  const int64_t dropped = replay.value().truncated_bytes;
  if (dropped == 0) return dropped;
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0)
    return InternalError("journal: stat '" + path +
                         "': " + std::strerror(errno));
  const int64_t keep = st.st_size - dropped;
  if (::truncate(path.c_str(), keep < 0 ? 0 : keep) != 0)
    return InternalError("journal: truncate '" + path +
                         "': " + std::strerror(errno));
  return dropped;
}

}  // namespace serve
}  // namespace after
