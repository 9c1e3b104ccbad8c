#include "serve/snapshot.h"

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "serve/faults.h"

namespace wave::serve {

namespace {

constexpr char kMagic[8] = {'W', 'A', 'V', 'E', 'S', 'N', 'A', 'P'};
// Header: magic(8) version(4) reserved(4) entry_count(8) checksum(8).
constexpr std::size_t kHeaderBytes = 32;

std::uint64_t fnv1a(const char* data, std::size_t size) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_string(std::string& out, const std::string& s) {
  put_u64(out, s.size());
  out += s;
}

void put_double(std::string& out, double d) {
  // Raw bits, so the restore is bit-identical (the whole point).
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  put_u64(out, bits);
}

/// Bounds-checked reader over the payload slice.
struct Reader {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;
  bool ok = true;

  bool need(std::size_t n) {
    if (!ok || size - pos < n) {
      ok = false;
      return false;
    }
    return true;
  }

  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data[pos + i]))
           << (8 * i);
    pos += 4;
    return v;
  }

  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data[pos + i]))
           << (8 * i);
    pos += 8;
    return v;
  }

  std::string str() {
    const std::uint64_t n = u64();
    // Every string is backed by payload bytes, so a length claiming more
    // than the remaining payload is framing corruption, not an allocation.
    if (!need(n)) return {};
    std::string s(data + pos, n);
    pos += n;
    return s;
  }

  double f64() {
    const std::uint64_t bits = u64();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    return d;
  }
};

}  // namespace

std::string encode_snapshot(
    const std::vector<EvalService::CacheEntry>& entries) {
  std::string payload;
  for (const EvalService::CacheEntry& entry : entries) {
    const Result& r = entry.result;
    put_string(payload, entry.key);
    put_string(payload, r.workload);
    put_string(payload, r.machine);
    put_string(payload, r.comm_model);
    put_u32(payload, static_cast<std::uint32_t>(r.processors));
    put_u32(payload, r.engine == Engine::Simulation ? 1 : 0);
    put_double(payload, r.time_us);
    put_double(payload, r.comm_us);
    put_u32(payload, r.validated ? 1 : 0);
    put_double(payload, r.model_us);
    put_double(payload, r.sim_us);
    put_double(payload, r.divergence_pct);
    put_u32(payload, r.within_tolerance ? 1 : 0);
    put_u64(payload, r.terms.size());
    for (const auto& [name, value] : r.terms) {
      put_string(payload, name);
      put_double(payload, value);
    }
  }

  std::string image(kMagic, sizeof kMagic);
  put_u32(image, kSnapshotVersion);
  put_u32(image, 0);  // reserved
  put_u64(image, entries.size());
  put_u64(image, fnv1a(payload.data(), payload.size()));
  image += payload;
  return image;
}

Expected<std::vector<EvalService::CacheEntry>> decode_snapshot(
    const std::string& image) {
  auto corrupt = [](const std::string& what) {
    return Status::invalid_argument("snapshot rejected: " + what);
  };
  if (image.empty()) return corrupt("empty file");
  if (image.size() < kHeaderBytes)
    return corrupt("truncated header (" + std::to_string(image.size()) +
                   " bytes, header is " + std::to_string(kHeaderBytes) + ")");
  if (std::memcmp(image.data(), kMagic, sizeof kMagic) != 0)
    return corrupt("bad magic (not a wave-serve snapshot)");

  Reader header{image.data() + sizeof kMagic, kHeaderBytes - sizeof kMagic};
  const std::uint32_t version = header.u32();
  const std::uint32_t reserved = header.u32();
  const std::uint64_t count = header.u64();
  const std::uint64_t checksum = header.u64();
  if (version != kSnapshotVersion)
    return corrupt("unsupported version " + std::to_string(version) +
                   " (this build reads version " +
                   std::to_string(kSnapshotVersion) + ")");
  // The checksum covers only the payload, so the header words are checked
  // one by one: a reserved word the writer never sets means a corrupt or
  // foreign header, not an entry to accept and re-encode differently.
  if (reserved != 0)
    return corrupt("nonzero reserved header word " + std::to_string(reserved));

  const char* payload = image.data() + kHeaderBytes;
  const std::size_t payload_size = image.size() - kHeaderBytes;
  if (fnv1a(payload, payload_size) != checksum)
    return corrupt("checksum mismatch (truncated or corrupted payload)");

  Reader r{payload, payload_size};
  std::vector<EvalService::CacheEntry> entries;
  for (std::uint64_t i = 0; i < count; ++i) {
    EvalService::CacheEntry entry;
    entry.key = r.str();
    Result& res = entry.result;
    res.workload = r.str();
    res.machine = r.str();
    res.comm_model = r.str();
    res.processors = static_cast<int>(r.u32());
    const std::uint32_t engine = r.u32();
    res.time_us = r.f64();
    res.comm_us = r.f64();
    const std::uint32_t validated = r.u32();
    res.model_us = r.f64();
    res.sim_us = r.f64();
    res.divergence_pct = r.f64();
    const std::uint32_t within_tolerance = r.u32();
    const std::uint64_t terms = r.u64();
    if (!r.ok || terms > payload_size)  // each term needs >= 1 payload byte
      return corrupt("malformed entry framing at entry " + std::to_string(i));
    // The writer stores each flag as 0 or 1. Any other value would decode
    // silently and re-encode as 0: a different entry.
    for (const auto& [field, value] :
         {std::pair{"engine", engine}, std::pair{"validated", validated},
          std::pair{"within_tolerance", within_tolerance}}) {
      if (value > 1)
        return corrupt(std::string(field) + " flag " + std::to_string(value) +
                       " at entry " + std::to_string(i) +
                       " (must be 0 or 1)");
    }
    res.engine = engine == 1 ? Engine::Simulation : Engine::Model;
    res.validated = validated == 1;
    res.within_tolerance = within_tolerance == 1;
    res.terms.reserve(terms);
    for (std::uint64_t t = 0; t < terms; ++t) {
      std::string name = r.str();
      const double value = r.f64();
      res.terms.emplace_back(std::move(name), value);
    }
    if (!r.ok)
      return corrupt("malformed entry framing at entry " + std::to_string(i));
    entries.push_back(std::move(entry));
  }
  if (r.pos != r.size)
    return corrupt("trailing bytes after the last entry");
  return entries;
}

Status write_snapshot(const std::string& path,
                      const std::vector<EvalService::CacheEntry>& entries,
                      const FaultPlan* faults) {
  const std::string image = encode_snapshot(entries);
  // The temp name must be unique per call, not just per process: two
  // server connections can issue `snapshot` ops concurrently, and a
  // shared temp path would let one writer rename the other's file out
  // from under it mid-publish.
  static std::atomic<std::uint64_t> write_counter{0};
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) + "." +
                          std::to_string(write_counter.fetch_add(1));

  // The injected failure sits exactly in the crash-safety window: after
  // serialization, before the rename. The previous snapshot must survive.
  if (faults != nullptr && faults->consume_snapshot_failure()) {
    std::remove(tmp.c_str());
    return Status::internal("snapshot write failed (injected fault)");
  }

  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      return Status::internal("cannot open temp snapshot file " + tmp);
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::internal("short write to temp snapshot file " + tmp);
    }
  }
  // Flush the temp file to stable storage before the rename publishes it:
  // otherwise a power cut could leave the final path pointing at a file
  // whose data never hit disk — exactly the torn state the temp-file
  // dance exists to prevent.
  {
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd < 0 || ::fsync(fd) != 0) {
      const int err = errno;
      if (fd >= 0) ::close(fd);
      std::remove(tmp.c_str());
      return Status::internal("fsync of temp snapshot file " + tmp +
                              " failed: " + std::strerror(err));
    }
    ::close(fd);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    return Status::internal("rename " + tmp + " -> " + path + " failed: " +
                            std::strerror(err));
  }
  // The rename updated a directory entry; that entry is itself data that
  // must reach stable storage, or a power cut can lose the just-published
  // snapshot (the file contents were synced, the name pointing at them
  // was not). The write already happened, but the caller deserves to know
  // durability was not achieved.
  {
    const std::size_t slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos
                                ? std::string(".")
                                : path.substr(0, slash + 1);
    const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dirfd < 0 || ::fsync(dirfd) != 0) {
      const int err = errno;
      if (dirfd >= 0) ::close(dirfd);
      return Status::internal("fsync of snapshot directory " + dir +
                              " failed: " + std::strerror(err) +
                              " (snapshot written but not yet durable)");
    }
    ::close(dirfd);
  }
  return Status::ok();
}

Expected<std::vector<EvalService::CacheEntry>> read_snapshot(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    return Status::not_found("no snapshot at " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return decode_snapshot(buffer.str());
}

}  // namespace wave::serve
