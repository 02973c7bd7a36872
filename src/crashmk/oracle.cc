#include "src/crashmk/oracle.h"

#include <sstream>
#include <vector>

#include "src/common/fnv1a.h"

namespace crashmk {

namespace {

using common::Fnv1a;

void Walk(common::ExecContext& ctx, vfs::FileSystem& fs, const std::string& dir,
          std::map<std::string, OracleEntry>& out) {
  auto entries = fs.ReadDir(ctx, dir.empty() ? "/" : dir);
  if (!entries.ok()) {
    return;
  }
  for (const auto& entry : *entries) {
    const std::string path = dir + "/" + entry.name;
    OracleEntry oe;
    oe.is_dir = entry.is_dir;
    auto st = fs.Stat(ctx, path);
    if (!st.ok()) {
      // The parent lists this name but the inode behind it is unreachable —
      // a dangling dirent (e.g. persisted before its inode when metadata
      // persistence is delayed). Record it as its own observable state.
      oe.dangling = true;
      out[path] = oe;
      continue;
    }
    if (entry.is_dir) {
      out[path] = oe;
      Walk(ctx, fs, path, out);
      continue;
    }
    oe.size = st->size;
    auto fd = fs.Open(ctx, path, vfs::OpenFlags::ReadOnly());
    if (fd.ok()) {
      uint64_t hash = common::kFnvOffsetBasis;
      std::vector<uint8_t> buf(64 * 1024);
      uint64_t off = 0;
      while (off < st->size) {
        auto n = fs.Pread(ctx, *fd, buf.data(), buf.size(), off);
        if (!n.ok() || *n == 0) {
          break;
        }
        hash = Fnv1a(buf.data(), *n, hash);
        off += *n;
      }
      oe.content_hash = hash;
      (void)fs.Close(ctx, *fd);
    }
    out[path] = oe;
  }
}

}  // namespace

Oracle Oracle::Capture(common::ExecContext& ctx, vfs::FileSystem& fs) {
  Oracle oracle;
  Walk(ctx, fs, "", oracle.entries_);
  return oracle;
}

std::string Oracle::DiffAgainst(const Oracle& other) const {
  std::ostringstream out;
  for (const auto& [path, entry] : entries_) {
    auto it = other.entries_.find(path);
    if (it == other.entries_.end()) {
      out << "only-left: " << path << " size=" << entry.size
          << (entry.dangling ? " (dangling)" : "") << "\n";
    } else if (!(it->second == entry)) {
      out << "differs: " << path << " size " << entry.size << " vs " << it->second.size
          << " hash " << entry.content_hash << " vs " << it->second.content_hash
          << " dangling " << entry.dangling << " vs " << it->second.dangling << "\n";
    }
  }
  for (const auto& [path, entry] : other.entries_) {
    if (entries_.find(path) == entries_.end()) {
      out << "only-right: " << path << " size=" << entry.size
          << (entry.dangling ? " (dangling)" : "") << "\n";
    }
  }
  return out.str();
}

uint64_t Oracle::StateHash() const {
  uint64_t hash = common::kFnvOffsetBasis;
  for (const auto& [path, entry] : entries_) {
    hash = Fnv1a(path.data(), path.size(), hash);
    const uint8_t flags =
        static_cast<uint8_t>((entry.is_dir ? 1 : 0) | (entry.dangling ? 2 : 0));
    hash = Fnv1a(&flags, 1, hash);
    hash = Fnv1a(&entry.size, sizeof(entry.size), hash);
    hash = Fnv1a(&entry.content_hash, sizeof(entry.content_hash), hash);
  }
  return hash;
}

}  // namespace crashmk
