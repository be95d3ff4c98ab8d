// Replays the miners' characteristic access patterns over a real
// Database against a simulated memory hierarchy. This is how the bench
// suite demonstrates the *mechanism* behind P1/P6 (fewer simulated
// L1/L2/TLB misses), independent of host hardware.

#ifndef FPM_SIMCACHE_DB_TRACE_H_
#define FPM_SIMCACHE_DB_TRACE_H_

#include "fpm/dataset/database.h"
#include "fpm/simcache/memory_system.h"

namespace fpm {

/// The per-item column walk of LCM's occurrence traversal (§4.1): for
/// each item in frequency order, visit every transaction containing it
/// and read the transaction's payload. Resets `mem` first.
MemorySystemStats TraceColumnWalk(const Database& db, MemorySystem* mem);

/// The same walk restructured per P6.1: an outer loop over transaction
/// tiles of ~`tile_entries` items, an inner loop serving all items from
/// the resident tile. Resets `mem` first.
MemorySystemStats TraceTiledColumnWalk(const Database& db,
                                       uint32_t tile_entries,
                                       MemorySystem* mem);

}  // namespace fpm

#endif  // FPM_SIMCACHE_DB_TRACE_H_
