#include "fpm/simcache/db_trace.h"

#include <vector>

namespace fpm {
namespace {

// occ[i] = transactions containing item i, ascending tid (flat CSR).
struct OccIndex {
  std::vector<uint32_t> offsets;  // num_items + 1
  std::vector<Tid> tids;
};

OccIndex BuildOcc(const Database& db) {
  OccIndex occ;
  occ.offsets.assign(db.num_items() + 1, 0);
  for (Tid t = 0; t < db.num_transactions(); ++t) {
    for (Item it : db.transaction(t)) ++occ.offsets[it + 1];
  }
  for (size_t i = 1; i < occ.offsets.size(); ++i) {
    occ.offsets[i] += occ.offsets[i - 1];
  }
  occ.tids.resize(db.num_entries());
  std::vector<uint32_t> cursor(occ.offsets.begin(), occ.offsets.end() - 1);
  for (Tid t = 0; t < db.num_transactions(); ++t) {
    for (Item it : db.transaction(t)) occ.tids[cursor[it]++] = t;
  }
  return occ;
}

// Simulates reading transaction t: its offset slot, then its payload.
void TouchTransaction(const Database& db, Tid t, MemorySystem* mem) {
  mem->TouchObject(&db.offsets()[t]);
  const auto tx = db.transaction(t);
  if (!tx.empty()) mem->TouchRange(tx.data(), tx.size());
}

}  // namespace

MemorySystemStats TraceColumnWalk(const Database& db, MemorySystem* mem) {
  mem->Reset();
  const OccIndex occ = BuildOcc(db);
  for (Item i = 0; i < db.num_items(); ++i) {
    for (uint32_t k = occ.offsets[i]; k < occ.offsets[i + 1]; ++k) {
      mem->TouchObject(&occ.tids[k]);
      TouchTransaction(db, occ.tids[k], mem);
    }
  }
  return mem->stats();
}

MemorySystemStats TraceTiledColumnWalk(const Database& db,
                                       uint32_t tile_entries,
                                       MemorySystem* mem) {
  mem->Reset();
  const OccIndex occ = BuildOcc(db);
  // Tile boundaries by cumulative payload size.
  std::vector<Tid> tile_ends;
  uint32_t acc = 0;
  for (Tid t = 0; t < db.num_transactions(); ++t) {
    acc += static_cast<uint32_t>(db.transaction(t).size());
    if (acc >= tile_entries) {
      tile_ends.push_back(t + 1);
      acc = 0;
    }
  }
  if (tile_ends.empty() ||
      tile_ends.back() != static_cast<Tid>(db.num_transactions())) {
    tile_ends.push_back(static_cast<Tid>(db.num_transactions()));
  }

  std::vector<uint32_t> cursor(db.num_items());
  for (Item i = 0; i < db.num_items(); ++i) cursor[i] = occ.offsets[i];
  for (Tid tile_end : tile_ends) {
    for (Item i = 0; i < db.num_items(); ++i) {
      while (cursor[i] < occ.offsets[i + 1] &&
             occ.tids[cursor[i]] < tile_end) {
        mem->TouchObject(&occ.tids[cursor[i]]);
        TouchTransaction(db, occ.tids[cursor[i]], mem);
        ++cursor[i];
      }
    }
  }
  return mem->stats();
}

}  // namespace fpm
