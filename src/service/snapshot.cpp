#include "service/snapshot.h"

#include <mutex>
#include <thread>
#include <utility>

#include "service/thread_pool.h"
#include "store/plan_builder.h"
#include "store/store_writer.h"
#include "util/errors.h"
#include "util/fault_injection.h"

namespace plg::service {

namespace {

std::atomic<std::uint64_t> next_snapshot_id{1};

/// Runs job(s) for every shard index, in parallel on a transient pool
/// when that is profitable AND deterministic. The serial path is chosen
/// when a fault plan is active: the chaos hooks inject on every k-th
/// *call*, so admission-order determinism is part of their contract.
/// Per-shard admission work is otherwise independent and pure — the
/// shards produced are bit-identical either way. The first exception
/// wins and is rethrown after the pool drains (thread join gives the
/// rethrow a happens-before over the capturing store).
void for_each_shard(std::size_t count, unsigned workers,
                    const std::function<void(std::size_t)>& job) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers = static_cast<unsigned>(
      std::min<std::size_t>(workers, count == 0 ? 1 : count));
  if (count <= 1 || workers <= 1 || fault::enabled()) {
    for (std::size_t s = 0; s < count; ++s) job(s);
    return;
  }
  std::once_flag first_error;
  std::exception_ptr error;
  {
    ThreadPool pool(workers);
    for (std::size_t s = 0; s < count; ++s) {
      pool.submit([&job, &first_error, &error, s] {
        try {
          job(s);
        } catch (...) {
          std::call_once(first_error,
                         [&error] { error = std::current_exception(); });
        }
      });
    }
  }  // ~ThreadPool drains the queue and joins
  if (error) std::rethrow_exception(error);
}

}  // namespace

Snapshot::Snapshot()
    : id_(next_snapshot_id.fetch_add(1, std::memory_order_relaxed)) {}

std::shared_ptr<Snapshot> Snapshot::clone_shards() const {
  auto snap = std::shared_ptr<Snapshot>(new Snapshot());
  snap->map_ = map_;
  snap->shards_ = shards_;  // shared_ptr copies; no label data moves
  return snap;
}

std::shared_ptr<const Snapshot> Snapshot::build(const Labeling& labeling,
                                                std::size_t num_shards,
                                                unsigned build_workers) {
  // The serialized buffer dies once the memfd holds it, before plans are
  // built. A freshly written image is structurally valid by
  // construction, so admission has nothing to quarantine.
  auto image = store::MappedStore::from_image(
      store::StoreWriter::serialize(labeling, num_shards));
  return from_image(std::move(image), /*allow_quarantine=*/false,
                    build_workers);
}

std::shared_ptr<const Snapshot> Snapshot::from_file(const std::string& path,
                                                    std::size_t num_shards,
                                                    StoreVerify verify,
                                                    bool allow_quarantine,
                                                    unsigned build_workers) {
  if (store::MappedStore::sniff_file_version(path) == store::kVersion3) {
    // Header/directory failures always throw (an unreadable source is
    // never quarantined).
    return from_image(store::MappedStore::open(path), allow_quarantine,
                      build_workers);
  }
  // v1/v2: convert on load, the same conversion `plgtool pack` does. The
  // parsed store is released before the image is written.
  const Labeling labels = LabelStore::open_file(path, verify).load_all();
  return build(labels, num_shards, build_workers);
}

std::shared_ptr<const Snapshot> Snapshot::from_image(
    std::shared_ptr<const store::MappedStore> image, bool allow_quarantine,
    unsigned build_workers) {
  auto snap = std::shared_ptr<Snapshot>(new Snapshot());
  snap->map_ = image->shard_map();
  snap->shards_.resize(image->num_shards());
  for_each_shard(image->num_shards(), build_workers, [&](std::size_t s) {
    snap->shards_[s] = plan_shard(image, s, allow_quarantine);
  });
  return snap;
}

Snapshot::Shard Snapshot::plan_shard(
    std::shared_ptr<const store::MappedStore> image, std::size_t s,
    bool allow_quarantine) {
  Shard sh;
  try {
    // Structural gate first: with the offset table proven, plan building
    // (and any later BitReader walk) stays inside the mapping even though
    // the shard's CRC has not been checked yet. Plans are built once per
    // label and amortized over every query the snapshot serves.
    store::validate_offsets(image->shard_offsets(s),
                            static_cast<std::size_t>(image->shard_labels(s)),
                            image->shard_total_bits(s));
    sh.views = std::make_shared<const std::vector<LabelView>>(
        store::build_plans(image->shard_bits(s), image->shard_offsets(s),
                           static_cast<std::size_t>(image->shard_labels(s))));
  } catch (const DecodeError& e) {
    if (!allow_quarantine) throw;
    // A structurally bad offsets table usually means the region rotted
    // wholesale; a heal's CRC-gated re-read of the backing decides
    // whether the shard can come back.
    sh.error = e.what();
  }
  sh.image = std::move(image);
  sh.index = s;
  return sh;
}

std::size_t Snapshot::num_quarantined() const noexcept {
  std::size_t n = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    n += shard_quarantined(s) ? 1u : 0u;
  }
  return n;
}

std::string Snapshot::shard_error(std::size_t s) const {
  if (shards_[s].error.empty() && shard_quarantined(s)) {
    return "shard failed its first-touch CRC check";
  }
  return shards_[s].error;
}

std::uint64_t Snapshot::total_bytes() const noexcept {
  std::uint64_t n = 0;
  for (const Shard& sh : shards_) {
    if (sh.views != nullptr) n += sh.image->shard_bytes(sh.index);
  }
  return n;
}

std::shared_ptr<const Snapshot> Snapshot::heal_shard(std::size_t s) const {
  auto snap = clone_shards();
  Shard& sh = snap->shards_[s];
  std::vector<Label> labels;
  try {
    labels = sh.image->read_shard_labels(sh.index);
  } catch (const DecodeError& e) {
    // The backing itself is bad: nothing clean is left to heal from, so
    // the shard stays quarantined and the healer stops retrying it.
    sh.views = nullptr;
    sh.error = e.what();
    sh.healable = false;
    return snap;
  }
  const auto image = store::MappedStore::from_image(
      store::StoreWriter::serialize(Labeling(std::move(labels)), 1));
  sh = plan_shard(image, 0, /*allow_quarantine=*/false);
  // Settle the fresh image's CRC now, so a heal whose image is already
  // damaged fails and is retried instead of being published as healthy.
  if (!image->shard_intact(0)) {
    throw DecodeError("Snapshot: shard " + std::to_string(s) +
                      " failed its CRC again after heal");
  }
  return snap;
}

std::shared_ptr<const Snapshot> Snapshot::with_quarantined_shard(
    std::size_t s, std::string reason) const {
  auto snap = clone_shards();
  Shard& sh = snap->shards_[s];
  sh.views = nullptr;
  sh.error = std::move(reason);
  return snap;
}

}  // namespace plg::service
