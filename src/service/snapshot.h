// Snapshot: an immutable, sharded, integrity-checked label set, plus the
// holder that lets the service hot-swap it under live traffic.
//
// Lifecycle protocol (the heart of non-blocking serving):
//
//   1. A Snapshot is built OFF the serving path, and every snapshot
//      serves from one representation: a .plgl v3 image behind a
//      store::MappedStore, whose shards the snapshot's shards alias. A
//      v3 file is mmap'd as is. An in-memory Labeling (build) and a v1/v2
//      file (converted on load, as `plgtool pack` does) are serialized by
//      StoreWriter into a memfd and mapped the same way. Admission
//      validates each shard's offsets table and builds its decode plans;
//      it never checks a CRC.
//   2. Integrity is enforced on first touch instead: the first view() or
//      get() against a shard runs its CRC once (store/mapped_store.h), and
//      no answer is ever served from unverified bits. A shard whose
//      first-touch CRC fails counts as quarantined from then on.
//   3. Apart from those settle-once CRC verdicts a Snapshot is never
//      mutated. All accessors are const; any number of threads may read
//      one concurrently without synchronization.
//   4. SnapshotStore holds the current snapshot in a shared_ptr guarded
//      by an annotated util::SharedMutex (PLG_GUARDED_BY below makes the
//      compiler enforce the discipline). Readers acquire() a copy (a
//      shared lock held for two pointer copies) and keep using *their*
//      snapshot for the whole batch even if a swap happens mid-batch.
//      Writers build the replacement entirely outside the lock and
//      install it with swap() (exclusive lock held for one pointer
//      swap); the old snapshot dies when its last in-flight reader
//      drops the reference.
//
// Consequently a reload (e.g. `plgtool verify` fallback re-encode) never
// blocks queries for more than a pointer swap and never invalidates
// answers mid-flight: a batch is answered entirely from the snapshot it
// started on.
//
// Quarantine (fault isolation at shard granularity): queries against a
// quarantined shard answer kCorrupt in-band. A shard is quarantined when
// its first-touch CRC failed, when its offsets table failed admission's
// structural check (from_file with allow_quarantine), or when the engine
// demoted it with with_quarantined_shard() after repeated decode
// failures in CRC-valid bits. The heal source is always the shard's
// backing: heal_shard() re-reads the shard from the file or memfd
// (CRC-gated, never from the possibly rotten mapping) and admits it as a
// one-shard image through the same path. A shard whose backing fails
// that re-read becomes unhealable. Both calls return *new* snapshots
// with new ids: the engine keys its per-shard corruption tallies by
// snapshot id, so tallies about retired bits never demote a successor.
//
// Why a shared_mutex and not std::atomic<std::shared_ptr>? libstdc++'s
// _Sp_atomic (GCC 12) releases its internal spinlock in load() with a
// *relaxed* RMW, so a reader's critical section does not synchronize-with
// the next writer's lock acquisition — formally a data race on the stored
// pointer (the compiler may sink the pointer read past the relaxed
// unlock, pairing a new pointer with an old control block). TSan flags it
// on the hot-swap storm test. The shared_mutex fast path is one atomic
// RMW per acquire, readers never exclude each other, and the protocol is
// explicit, portable, and provably race-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/label_store.h"
#include "core/label_view.h"
#include "core/labeling.h"
#include "store/mapped_store.h"
#include "store/shard_map.h"
#include "util/lifetime.h"
#include "util/locks.h"
#include "util/thread_annotations.h"

namespace plg::service {

// The partition type moved to the storage layer (the v3 file format is
// laid out by it); service code keeps its unqualified spelling.
using store::ShardMap;

class Snapshot {
 public:
  /// Builds a snapshot from an in-memory labeling: StoreWriter serializes
  /// it into a v3 image of `num_shards` shards, admitted like a v3 file.
  /// `build_workers` caps the admission ThreadPool (0 = hardware
  /// concurrency). Admission — offsets validation and plan
  /// materialization — runs one job per shard; with an active fault plan
  /// it drops to the serial path so the chaos suites' k-th-call injection
  /// ordinals stay deterministic. Parallel admission is bit-identical to
  /// serial (per-shard work is independent and pure; regression-asserted
  /// in tests/test_store.cpp).
  static std::shared_ptr<const Snapshot> build(const Labeling& labeling,
                                               std::size_t num_shards,
                                               unsigned build_workers = 0);

  /// Loads a .plgl file. A v3 file is mmap'd, not copied: `num_shards` is
  /// superseded by the file's own partition and `verify` does not apply
  /// (each shard's CRC runs on first touch). A v1/v2 file is parsed with
  /// `verify` and converted on load: build(its labels, num_shards). With
  /// `allow_quarantine`, a v3 shard whose offsets table fails admission's
  /// structural check is quarantined instead of failing the load. A file
  /// that fails its own parse always throws — quarantine applies to
  /// single shards only, never to an unreadable source.
  static std::shared_ptr<const Snapshot> from_file(
      const std::string& path, std::size_t num_shards,
      StoreVerify verify = StoreVerify::kStrict,
      bool allow_quarantine = false, unsigned build_workers = 0);

  const ShardMap& shard_map() const noexcept { return map_; }
  std::uint64_t size() const noexcept { return map_.num_vertices(); }
  std::size_t num_shards() const noexcept { return shards_.size(); }

  /// Materializes the label of vertex v. Thread-safe. Precondition:
  /// v < size(). Throws DecodeError when v's shard fails its first-touch
  /// CRC — the engine answers that kCorrupt.
  Label get(std::uint64_t v) const {
    const Shard& sh = shards_[map_.shard_of(v)];
    return sh.image->get(sh.index,
                         static_cast<std::size_t>(map_.index_in_shard(v)));
  }

  /// Zero-copy decode plan for vertex v's label, or nullptr when the
  /// shard is demoted (no plan table), fails its CRC, or plan
  /// construction failed for this label at admission (the engine then
  /// falls back to the materializing get() + thin_fat_adjacent path,
  /// whose get() throws for a CRC failure). The returned view aliases the
  /// image's bits and is valid for the snapshot's lifetime. The first
  /// view() against a shard pays its one CRC pass. Precondition:
  /// v < size().
  // plglint: noexcept-hot-path
  const LabelView* view(std::uint64_t v) const noexcept PLG_LIFETIME_BOUND {
    const Shard& sh = shards_[map_.shard_of(v)];
    const std::vector<LabelView>* views = sh.views.get();
    if (views == nullptr || !sh.image->shard_intact(sh.index)) {
      return nullptr;
    }
    const LabelView& lv =
        (*views)[static_cast<std::size_t>(map_.index_in_shard(v))];
    return lv.valid() ? &lv : nullptr;
  }

  /// Re-derives v's stored spot checksum. False means the label's bits
  /// disagree with the sum written beside them (the encoder lied); the
  /// engine counts these as corruption fallbacks. Throws like get().
  bool verify_label(std::uint64_t v) const {
    const Shard& sh = shards_[map_.shard_of(v)];
    return sh.image->verify_label(
        sh.index, static_cast<std::size_t>(map_.index_in_shard(v)));
  }

  /// True when shard s is quarantined: demoted, or failed its
  /// first-touch CRC. Queries routed to it answer kCorrupt. Reading this
  /// never triggers a CRC pass.
  bool shard_quarantined(std::size_t s) const noexcept {
    const Shard& sh = shards_[s];
    return sh.views == nullptr || sh.image->shard_crc_state(sh.index) ==
                                      store::ShardCrcState::kCorrupt;
  }

  /// True when v's shard is quarantined.
  bool vertex_quarantined(std::uint64_t v) const noexcept {
    return shard_quarantined(map_.shard_of(v));
  }

  /// Number of quarantined shards (0 on a fully healthy snapshot).
  std::size_t num_quarantined() const noexcept;

  /// True when quarantined shard s may still heal: no earlier heal found
  /// its backing corrupt.
  bool shard_healable(std::size_t s) const noexcept {
    return shard_quarantined(s) && shards_[s].healable;
  }

  /// Why shard s is quarantined (empty for healthy shards).
  std::string shard_error(std::size_t s) const;

  /// Builds a successor snapshot in which shard s serves a fresh
  /// one-shard image of its labels, re-read from its backing and admitted
  /// through the same path as any image. Other shards are shared by
  /// pointer (no re-encode, no copy); the successor gets a fresh id. When
  /// the backing itself fails the re-read, the successor instead marks s
  /// unhealable. Throws DecodeError when the fresh image fails its CRC
  /// (e.g. a fault plan is still firing) — the caller backs off and
  /// retries.
  std::shared_ptr<const Snapshot> heal_shard(std::size_t s) const;

  /// Builds a successor snapshot in which shard s is demoted with
  /// `reason`. The shard keeps its backing as the heal source. Other
  /// shards are shared by pointer.
  std::shared_ptr<const Snapshot> with_quarantined_shard(
      std::size_t s, std::string reason) const;

  /// Total serialized bytes across shards that are not demoted
  /// (observability).
  std::uint64_t total_bytes() const noexcept;

  /// Shard s's lazy-CRC verdict, without triggering verification.
  store::ShardCrcState shard_crc_state(std::size_t s) const noexcept {
    return shards_[s].image->shard_crc_state(shards_[s].index);
  }

  /// Process-unique identity, assigned at construction from a monotonic
  /// counter. The engine keys its per-snapshot corruption tallies by it,
  /// so a snapshot allocated at a freed predecessor's address never
  /// inherits the predecessor's tallies (no pointer ABA).
  std::uint64_t id() const noexcept { return id_; }

 private:
  /// One shard slot: a shard of a v3 image (the image is shared by every
  /// shard admitted from it, keeping the mapping alive) plus its decode
  /// plans.
  struct Shard {
    std::shared_ptr<const store::MappedStore> image;
    /// This shard's index in the image's own partition.
    std::size_t index = 0;
    /// Decode plans, one per label, parsed once at admission. Views alias
    /// the image's packed bits. Null iff the shard is demoted. Labels
    /// whose plan construction failed hold an invalid placeholder.
    std::shared_ptr<const std::vector<LabelView>> views;
    std::string error;
    /// False once a heal found the backing itself corrupt.
    bool healable = true;
  };

  Snapshot();

  /// Admits every shard of `image` (one plan-build job per shard; no
  /// label bytes are copied or CRC'd here).
  static std::shared_ptr<const Snapshot> from_image(
      std::shared_ptr<const store::MappedStore> image, bool allow_quarantine,
      unsigned build_workers);

  /// Validates shard s's offsets table and builds its plans. A structural
  /// failure throws DecodeError, or with allow_quarantine yields a
  /// demoted shard.
  static Shard plan_shard(std::shared_ptr<const store::MappedStore> image,
                          std::size_t s, bool allow_quarantine);

  /// Clone sharing every shard slot (shared_ptr copies), fresh id.
  std::shared_ptr<Snapshot> clone_shards() const;

  ShardMap map_;
  std::vector<Shard> shards_;
  std::uint64_t id_ = 0;
};

/// The hot-swappable holder. One per service; readers never block.
class SnapshotStore {
 public:
  explicit SnapshotStore(std::shared_ptr<const Snapshot> initial)
      : current_(std::move(initial)) {}

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Read-side acquire: a shared lock held for one ref-count bump and
  /// two pointer copies. Readers never exclude each other, and a writer
  /// only excludes them for the duration of a pointer swap. The returned
  /// pointer is never null.
  // plglint: noexcept-hot-path
  std::shared_ptr<const Snapshot> acquire() const PLG_EXCLUDES(mu_) {
    util::SharedLock lk(mu_);
    return current_;
  }

  /// Installs a replacement snapshot and bumps the generation counter.
  /// In-flight batches keep serving from the snapshot they acquired; the
  /// replaced snapshot is released *outside* the lock so its destructor
  /// (potentially megabytes of shard frees) never stalls readers.
  void swap(std::shared_ptr<const Snapshot> next) PLG_EXCLUDES(mu_) {
    {
      util::ExclusiveLock lk(mu_);
      current_.swap(next);
    }
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Compare-and-swap for self-healing: installs `next` only when the
  /// current snapshot is still `expected` (by pointer identity). False
  /// means a concurrent swap() won — e.g. an operator RELOAD landed
  /// while the healer was rebuilding — and `next` is discarded; the
  /// healer re-examines the new current snapshot instead of clobbering
  /// it with a successor of a retired one.
  bool swap_if(const Snapshot* expected,
               std::shared_ptr<const Snapshot> next) PLG_EXCLUDES(mu_) {
    {
      util::ExclusiveLock lk(mu_);
      if (current_.get() != expected) return false;
      current_.swap(next);
    }
    generation_.fetch_add(1, std::memory_order_acq_rel);
    return true;  // old snapshot (in `next` now) released outside the lock
  }

  /// Number of swaps performed (generation 0 = the initial snapshot).
  std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  mutable util::SharedMutex mu_;
  std::shared_ptr<const Snapshot> current_ PLG_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> generation_{0};  // relaxed stat, not guarded
};

}  // namespace plg::service
