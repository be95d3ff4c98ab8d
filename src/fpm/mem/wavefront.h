// Pattern P7.1 — wave-front prefetching (§3.4, Figure 5).
//
// Arrays of *short* linked lists defeat classic linked-list prefetchers:
// each list ends before a prefetch pipeline can fill. The wave-front
// schedule instead prefetches across lists, as a software pipeline: a
// window of the next `depth` lists each holds a cursor; every iteration
// advances each cursor one node (dereferencing a node prefetched in the
// previous iteration) and prefetches the new node. A list that spends
// `depth` iterations in the window arrives with its first `depth` nodes
// already in cache — the diagonal wave of Figure 5.
//
// The tuned LCM runs its own two-distance schedule inline over its
// occurrence arrays (ProjectItem in algo/lcm/lcm_miner.cc); the
// templates below serve bench_micro_patterns.

#ifndef FPM_MEM_WAVEFRONT_H_
#define FPM_MEM_WAVEFRONT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fpm/common/prefetch.h"

namespace fpm {

/// Tuning knobs for the wave-front schedule.
struct WaveFrontOptions {
  /// Window size: how many upcoming lists carry prefetch cursors. Also
  /// bounds how many nodes of each list are prefetched ahead of its
  /// traversal. The sweep in bench_micro_patterns tunes this.
  size_t depth = 4;
};

/// Traverses lists `heads[0..n)` in order, visiting every node, while
/// running the wave-front prefetch pipeline over the next `depth` lists.
///
/// `next(node)` returns the successor or nullptr; `visit(index, node)`
/// is called for each node of each list in order.
template <typename Node, typename NextFn, typename VisitFn>
void WaveFrontTraverse(std::span<Node* const> heads, NextFn next,
                       VisitFn visit,
                       const WaveFrontOptions& options = WaveFrontOptions{}) {
  const size_t n = heads.size();
  if (n == 0) return;
  const size_t depth = options.depth == 0 ? 1 : options.depth;

  // wave[j] = prefetch cursor inside list (i + 1 + j); nullptr when that
  // list is exhausted or out of range. Each cursor's node has already
  // been prefetched.
  std::vector<Node*> wave(depth, nullptr);
  for (size_t j = 0; j < depth; ++j) {
    if (1 + j < n) {
      wave[j] = heads[1 + j];
      Prefetch(wave[j]);
    }
  }

  for (size_t i = 0; i < n; ++i) {
    // Advance the wave: each cursor steps one node (its current node was
    // prefetched in an earlier iteration, so reading `next` is cheap)
    // and prefetches the newly exposed node.
    for (size_t j = 0; j < depth; ++j) {
      if (wave[j] != nullptr) {
        Node* successor = next(wave[j]);
        if (successor != nullptr) Prefetch(successor);
        wave[j] = successor;
      }
    }

    for (Node* node = heads[i]; node != nullptr; node = next(node)) {
      visit(i, node);
    }

    // Slide the window: list i+1's cursor leaves, list i+1+depth enters.
    for (size_t j = 0; j + 1 < depth; ++j) wave[j] = wave[j + 1];
    const size_t entrant = i + 1 + depth;
    if (entrant < n) {
      wave[depth - 1] = heads[entrant];
      Prefetch(wave[depth - 1]);
    } else {
      wave[depth - 1] = nullptr;
    }
  }
}

/// Index-based variant: chains expressed as next-index arrays. `~0u`
/// terminates a chain. The node payload of index k lives at
/// `node_base + k * node_stride`.
template <typename VisitFn>
void WaveFrontTraverseIndexed(std::span<const uint32_t> heads,
                              std::span<const uint32_t> next,
                              const void* node_base, size_t node_stride,
                              VisitFn visit,
                              const WaveFrontOptions& options =
                                  WaveFrontOptions{}) {
  constexpr uint32_t kEnd = ~static_cast<uint32_t>(0);
  const size_t n = heads.size();
  if (n == 0) return;
  const size_t depth = options.depth == 0 ? 1 : options.depth;
  const char* base = static_cast<const char*>(node_base);
  auto prefetch_node = [&](uint32_t idx) {
    Prefetch(base + static_cast<size_t>(idx) * node_stride);
    Prefetch(&next[idx]);
  };

  std::vector<uint32_t> wave(depth, kEnd);
  for (size_t j = 0; j < depth; ++j) {
    if (1 + j < n && heads[1 + j] != kEnd) {
      wave[j] = heads[1 + j];
      prefetch_node(wave[j]);
    }
  }

  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < depth; ++j) {
      if (wave[j] != kEnd) {
        const uint32_t successor = next[wave[j]];
        if (successor != kEnd) prefetch_node(successor);
        wave[j] = successor;
      }
    }
    for (uint32_t idx = heads[i]; idx != kEnd; idx = next[idx]) {
      visit(i, idx);
    }
    for (size_t j = 0; j + 1 < depth; ++j) wave[j] = wave[j + 1];
    const size_t entrant = i + 1 + depth;
    wave[depth - 1] = kEnd;
    if (entrant < n && heads[entrant] != kEnd) {
      wave[depth - 1] = heads[entrant];
      prefetch_node(wave[depth - 1]);
    }
  }
}

}  // namespace fpm

#endif  // FPM_MEM_WAVEFRONT_H_
