#include "ingest/segment.hpp"

#include <cstring>

#include "common/logging.hpp"

namespace fastjoin {

const char* segment_backend_name(SegmentBackend b) {
  switch (b) {
    case SegmentBackend::kMemory: return "memory";
    case SegmentBackend::kFile: return "file";
  }
  return "?";
}

SegmentFile::SegmentFile(SegmentBackend backend, std::string path,
                         std::size_t capacity_bytes)
    : backend_(backend), path_(std::move(path)), capacity_(capacity_bytes) {
  if (backend_ == SegmentBackend::kMemory) {
    mem_.reserve(capacity_);
    return;
  }
  file_ = std::fopen(path_.c_str(), "wb+");
  if (file_ == nullptr) {
    FJ_ERROR("ingest") << "cannot create segment file " << path_
                       << "; falling back to the memory backend";
    backend_ = SegmentBackend::kMemory;
    mem_.reserve(capacity_);
  }
}

void SegmentFile::prefault() {
  if (backend_ != SegmentBackend::kMemory || size_ > 0) return;
  mem_.resize(capacity_);
  mem_.clear();
}

SegmentFile::~SegmentFile() {
  if (file_ != nullptr) std::fclose(file_);
}

std::unique_ptr<SegmentFile> SegmentFile::reopen(
    std::string path, std::size_t capacity_bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  if (f == nullptr) return nullptr;
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  if (end < 0) {
    std::fclose(f);
    return nullptr;
  }
  auto seg = std::unique_ptr<SegmentFile>(new SegmentFile());
  seg->backend_ = SegmentBackend::kFile;
  seg->path_ = std::move(path);
  seg->capacity_ = capacity_bytes;
  seg->size_ = static_cast<std::size_t>(end);
  seg->flushed_ = seg->size_;  // on-disk bytes are durable by definition
  seg->file_ = f;
  return seg;
}

bool SegmentFile::append(const void* data, std::size_t n) {
  if (!has_room(n)) return false;
  if (backend_ == SegmentBackend::kMemory) {
    const auto* p = static_cast<const std::byte*>(data);
    mem_.insert(mem_.end(), p, p + n);
  } else {
    std::fseek(file_, static_cast<long>(size_), SEEK_SET);
    if (std::fwrite(data, 1, n, file_) != n) {
      FJ_ERROR("ingest") << "short write to segment " << path_;
      return false;
    }
  }
  size_ += n;
  return true;
}

std::size_t SegmentFile::read(std::size_t pos, void* out,
                              std::size_t n) const {
  if (pos >= size_) return 0;
  const std::size_t avail = std::min(n, size_ - pos);
  if (backend_ == SegmentBackend::kMemory) {
    std::memcpy(out, mem_.data() + pos, avail);
    return avail;
  }
  // Unflushed bytes live in stdio's buffer; flush so the positional
  // read below sees them. (read() is logically const.)
  if (flushed_ < size_) std::fflush(file_);
  std::fseek(file_, static_cast<long>(pos), SEEK_SET);
  return std::fread(out, 1, avail, file_);
}

void SegmentFile::flush() {
  if (backend_ == SegmentBackend::kFile && file_ != nullptr) {
    std::fflush(file_);
  }
  flushed_ = size_;
}

}  // namespace fastjoin
