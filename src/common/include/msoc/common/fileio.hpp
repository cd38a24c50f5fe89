#pragma once
// Small file I/O helpers for the artifacts the planner reads and
// writes (JSON/CSV sweep results, msoc-cache-v4 snapshots).  Reads
// distinguish "absent" from "unreadable"; writes are atomic
// (temp file + rename) so a crashed or concurrent writer can never
// leave a half-written document where a reader expects a whole one.

#include <optional>
#include <string>

namespace msoc {

/// Whole-file read.  Returns nullopt when `path` does not exist or is
/// not a regular file (e.g. a directory); throws Error when the file
/// exists but reading it fails.
[[nodiscard]] std::optional<std::string> read_file_if_exists(
    const std::string& path);

/// Whole-file read; throws Error when missing or unreadable.
[[nodiscard]] std::string read_file(const std::string& path);

/// Atomically replaces `path` with `content`: writes to a unique
/// sibling temp file, then renames over `path` (atomic on POSIX).
/// Throws Error on failure; the temp file is removed on error paths.
/// With `sync`, the temp file is fsync'd before the rename — for
/// writers (cache compaction) that must not let a snapshot rename
/// become visible before its bytes are durable.
void write_file_atomic(const std::string& path, const std::string& content,
                       bool sync = false);

/// Creates `path` (and missing parents) as a directory; no-op when it
/// already exists.  Throws Error when creation fails or `path` exists
/// but is not a directory.
void ensure_directory(const std::string& path);

}  // namespace msoc
