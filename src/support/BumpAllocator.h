//===- support/BumpAllocator.h - Chunked bump allocation --------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bump allocation from chunks that never move, for storage that lives and
/// dies with its owner: the symbol table's name bytes and the term arena's
/// nodes. Chunks start at 1 KB and double up to 64 KB, so an owner
/// that holds little stays small (the machine makes a throwaway term arena
/// for each solve) and a large one costs few allocations; a request larger
/// than the next chunk gets a chunk of its own.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_SUPPORT_BUMPALLOCATOR_H
#define AWAM_SUPPORT_BUMPALLOCATOR_H

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

namespace awam {

class BumpAllocator {
public:
  /// Returns \p Bytes of storage, valid until the allocator is destroyed.
  /// Chunks start 16-byte aligned, so a caller that only ever asks for
  /// multiples of N <= 16 bytes gets N-aligned storage.
  std::byte *allocate(size_t Bytes) {
    if (Chunks.empty() || Bytes > ChunkSize - ChunkUsed) {
      size_t Next =
          Chunks.empty() ? 1024 : std::min<size_t>(ChunkSize * 2, 64 * 1024);
      ChunkSize = std::max(Next, Bytes);
      ChunkUsed = 0;
      Chunks.push_back(std::make_unique_for_overwrite<std::byte[]>(ChunkSize));
    }
    std::byte *At = Chunks.back().get() + ChunkUsed;
    ChunkUsed += Bytes;
    return At;
  }

private:
  std::vector<std::unique_ptr<std::byte[]>> Chunks;
  size_t ChunkSize = 0; // of Chunks.back()
  size_t ChunkUsed = 0; // bytes of Chunks.back() in use
};

} // namespace awam

#endif // AWAM_SUPPORT_BUMPALLOCATOR_H
