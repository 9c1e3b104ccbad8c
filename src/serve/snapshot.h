// Crash-safe cache snapshots for the serving layer.
//
// Follows the nengo_mpi write_to_file/read_from_file persistence pattern
// cited in the ROADMAP, hardened for a daemon that may be killed at any
// instant:
//
//   - atomic writes: the snapshot is serialized to `<path>.tmp.<pid>`,
//     fsynced, renamed over `path`, and the containing directory is
//     fsynced too (so the rename itself survives a power cut) — a crash
//     mid-write leaves the previous snapshot intact, never a half-written
//     file;
//   - versioned header: an 8-byte magic ("WAVESNAP") and a format version,
//     so an old binary never misparses a future format;
//   - checksummed payload: FNV-1a 64 over everything after the header,
//     stored in the header — a truncated or bit-flipped file is rejected
//     with a structured error and the server starts cold instead of
//     crashing or serving garbage.
//
// Doubles are serialized as their raw 8 bytes (little-endian), so a
// restored cache serves hits bit-identical to the Results that were
// exported — the round-trip test memcmps them.
#pragma once

#include <string>
#include <vector>

#include "wave/eval_service.h"
#include "wave/status.h"

namespace wave::serve {

class FaultPlan;

/// @brief The snapshot format version this build writes and reads. Bumped
///   whenever the cache-key text changes (version 2: `wave-scenario/2`
///   keys), so an old image fails to load instead of silently missing.
constexpr std::uint32_t kSnapshotVersion = 2;

/// @brief Serializes `entries` into the in-memory snapshot image (header,
///   checksum and all). Exposed separately from write_snapshot so tests
///   can corrupt precisely targeted bytes.
std::string encode_snapshot(const std::vector<EvalService::CacheEntry>& entries);

/// @brief Parses a snapshot image. Truncation, a bad checksum, a wrong
///   version or magic, and malformed entry framing each produce a
///   distinct kInvalidArgument message; nothing throws.
Expected<std::vector<EvalService::CacheEntry>> decode_snapshot(
    const std::string& image);

/// @brief Atomically writes a snapshot of `entries` to `path` (temp file
///   + rename). On any failure — including an injected one from `faults`
///   — the previous file at `path` is left untouched.
Status write_snapshot(const std::string& path,
                      const std::vector<EvalService::CacheEntry>& entries,
                      const FaultPlan* faults = nullptr);

/// @brief Reads and decodes the snapshot at `path`. A missing file is
///   kNotFound (a normal cold start); everything else that fails is
///   kInvalidArgument with a reason.
Expected<std::vector<EvalService::CacheEntry>> read_snapshot(
    const std::string& path);

}  // namespace wave::serve
