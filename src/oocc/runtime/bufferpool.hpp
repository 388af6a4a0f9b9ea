// Reuse-aware slab buffer pool and I/O scheduler.
//
// The paper's whole argument (§2.3, §4.2.1) is that out-of-core performance
// is decided by how few LAF bytes each sweep moves. The step-program IR
// knows the full future reference string of a compiled sweep, but without a
// cache the runtime forgets a slab the moment the loop iteration ends —
// chains like `c = a*b; e = c + a*b` re-read data that was in memory
// microseconds earlier. SlabBufferPool is the per-processor substrate that
// closes that gap. It has two modes over one policy:
//
//  * retaining (the default): slabs stay resident after their sweep, staged
//    outputs write back lazily, and later reads hit;
//  * no-retain (--no-cache): a staged output writes through at once and an
//    entry is dropped at its last unpin, so every sweep re-reads.
//
// Every decision (lookup, eviction, write-back, read-ahead admission, flush
// order, capacity) is runtime::SlabDirectory's (slab_directory.hpp), the
// same object the compiler's step pricer and verifier drive. The pool keeps
// only what shapes cannot: the bytes, charged against the node's
// MemoryBudget like the ICLAs they replace; the LAF I/O; the async engine;
// and the simulated-clock timing. Reads use the conservative async-I/O
// model of the old double buffer: the host performs the read immediately,
// the simulated clock is rewound to the issue point, and the entry carries
// its completion timestamp; a demand acquire waits for it, a read-ahead
// does not. One outstanding request per pool (one disk per processor).
//
// With an async engine, a write-back copies nothing: the job reads the
// entry's own buffer, an entry erased while its write is in flight hands
// the buffer's storage to that write, and at most one such orphan is in
// flight per pool. A pool's host memory is thus bounded by its budget
// plus one slab (plus the compute kernel's column temporaries).
//
// A sweep that overwrites an array in full before reading it (the step
// walk's dead arrays: a stencil sweep's target half) has the pool drop
// that array's slabs first. They go without write-back, dirty or not, so
// the sweep neither pays to persist data it is about to replace nor
// evicts live slabs to make room for it. Eviction ranks victims by the
// reuse hint each request carries: the step's forward reuse distance,
// which the executor derives from the sequence it runs
// (compiler::annotate_reuse_distances) and the step walk hands to each
// event.
//
// IoScheduler is the read-ahead front: the step walk (compiler/walk.hpp)
// hands it a prefetching slab loop's upcoming ReadSlab schedule and pumps
// it after each demand read, which generalizes the old two-buffer prefetch
// to any lookahead the budget can hold. The executor's hooks issue the
// reads on its pool, the pricer's on its directory.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "oocc/io/laf.hpp"
#include "oocc/runtime/icla.hpp"
#include "oocc/runtime/slab_directory.hpp"
#include "oocc/runtime/slab_iter.hpp"
#include "oocc/sim/machine.hpp"

namespace oocc::runtime {

/// Aggregate counters for one pool, the one record of its cache activity
/// (the LAFs' IoStats count only the traffic that reached them). A
/// no-retain pool is not a cache and counts nothing.
struct SlabCacheStats {
  std::uint64_t hits = 0;         ///< demand reads served without disk I/O
  std::uint64_t misses = 0;       ///< demand reads that went to the LAF
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;   ///< dirty slabs written back to their LAF
  std::uint64_t elements_hit = 0; ///< LAF elements the hits avoided moving
  std::uint64_t discarded = 0;    ///< dead slabs dropped, never written

  void merge(const SlabCacheStats& o) noexcept {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    writebacks += o.writebacks;
    elements_hit += o.elements_hit;
    discarded += o.discarded;
  }
};

/// Per-processor cache of slab-sized buffers over the Local Array Files.
/// Not thread-safe; one pool per simulated processor, like every other
/// runtime object.
class SlabBufferPool {
 public:
  /// Entries are reserved against `budget` as they are created and released
  /// as they are dropped; `name` prefixes buffer names for diagnostics.
  /// `retain` = false is the no-retain (--no-cache) mode.
  SlabBufferPool(MemoryBudget& budget, std::string name, bool retain = true);
  ~SlabBufferPool();

  /// True in OOCC_SANITIZE builds, where destroying a pool that still
  /// holds pinned entries (a pin leak: some sweep forgot its unpin) is a
  /// hard error — the destructor aborts instead of warning. Regular
  /// builds only log, so a leaky teardown path stays observable without
  /// taking the process down in production runs.
  static constexpr bool strict_teardown() noexcept {
#if defined(OOCC_SANITIZE)
    return true;
#else
    return false;
#endif
  }

  SlabBufferPool(const SlabBufferPool&) = delete;
  SlabBufferPool& operator=(const SlabBufferPool&) = delete;

  /// Demand-reads section `s` of `array` and returns the buffer holding
  /// exactly it, pinned. Served from memory when resident (or assemblable);
  /// otherwise read from `laf`, evicting unpinned entries as needed.
  /// `reuse_hint` is the compiler's forward reuse distance (-1 = no known
  /// reuse); a `transient` (halo-widened) read is dropped at its last
  /// unpin. Blocks (in simulated time) until the data is ready.
  IclaBuffer& acquire_read(sim::SpmdContext& ctx, io::LocalArrayFile& laf,
                           const std::string& array, const io::Section& s,
                           double reuse_hint, bool transient = false);

  /// Returns a pinned buffer targeted at `s` for staging output data; no
  /// disk read happens. An existing entry for exactly `s` keeps its data
  /// (the in-place-update and fused-statement cases); any *other* cached
  /// range overlapping `s` is written back (if dirty) and dropped, since it
  /// would go stale the moment this buffer is computed into.
  IclaBuffer& acquire_write(sim::SpmdContext& ctx, io::LocalArrayFile& laf,
                            const std::string& array, const io::Section& s,
                            double reuse_hint);

  /// The staged entry for exactly `s` now supersedes the LAF: it is written
  /// back on eviction or flush, or at once in no-retain mode. Updates the
  /// entry's reuse hint (the write step knows the distance to the next
  /// read).
  void mark_dirty(sim::SpmdContext& ctx, const std::string& array,
                  const io::Section& s, double reuse_hint);

  /// Drops one pin from the entry holding exactly `s`.
  void unpin(sim::SpmdContext& ctx, const std::string& array,
             const io::Section& s);

  /// True when a demand read of `s` would be served from memory.
  bool resident(const std::string& array, const io::Section& s) const {
    return dir_.resident(array, s);
  }

  /// Fetches `s` into the pool without pinning, modelled asynchronously
  /// (the caller's clock is not advanced by the service time). Returns true
  /// when the section is resident or was issued; false when it would not
  /// fit without eviction — read-ahead never evicts.
  bool read_ahead(sim::SpmdContext& ctx, io::LocalArrayFile& laf,
                  const std::string& array, const io::Section& s,
                  double reuse_hint);

  /// Writes back every dirty entry (deterministically: arrays in name
  /// order, sections in ascending (col0, row0) order) and drains the
  /// async write-backs. Called at the end of a sweep/sequence so the LAFs
  /// are the source of truth again. With `only`, writes back that array's
  /// entries alone (a checkpoint saves one array from its LAF).
  void flush(sim::SpmdContext& ctx, const std::string* only = nullptr);

  /// Drops every entry of `array` (SlabDirectory::drop). Not `dead`, dirty
  /// entries are written back first: before a plan writes the array around
  /// the pool (the GAXPY reduction's output batches), after which cached
  /// slabs would be stale. `dead`, none is: the sweep about to run
  /// overwrites the whole array before reading it (the step walk's dead
  /// arrays), so freeing the budget costs no write-back.
  void drop(sim::SpmdContext& ctx, const std::string& array, bool dead);

  /// Attaches the machine's real async I/O engine. With an engine, the
  /// physical disk transfer of every pool read and write-back runs on a
  /// worker thread: read_ahead becomes a true submit-ahead, a demand
  /// acquire of a prefetched slab costs only a wait, and write-backs drain
  /// at barriers / flush. The *simulated* accounting (the clock-rewind
  /// model above, and every directory decision) is unchanged — fault-free
  /// runs are bit-identical with and without an engine, which is what
  /// keeps the priced == measured invariants intact.
  void set_async_engine(io::AsyncEngine* engine) noexcept {
    engine_ = engine;
  }

  /// Settles every in-flight asynchronous write-back, charging deferred
  /// retry backoff and rethrowing the first worker error. Called at
  /// barriers and after flush()/drop() so errors cannot outlive the
  /// region that caused them. No-op without an engine.
  void drain_writes(sim::SpmdContext& ctx);

  /// Evicts unpinned entries until `elements` fit in the budget; throws
  /// Error(kResourceExhausted) when pinned entries make that impossible.
  /// Used before reserving non-pool buffers (the GAXPY side buffers) from
  /// the shared budget.
  void ensure_available(sim::SpmdContext& ctx, std::int64_t elements);

  /// Number of entries with a nonzero pin count (leak detection: a sweep
  /// must end with zero).
  std::int64_t pinned_count() const noexcept { return dir_.pinned_count(); }

  const SlabCacheStats& stats() const noexcept { return stats_; }
  MemoryBudget& budget() noexcept { return budget_; }

 private:
  /// The bytes behind one directory entry.
  struct Slab {
    std::unique_ptr<IclaBuffer> buf;
    io::LocalArrayFile* laf = nullptr;
    double ready_time_s = 0.0;
    /// In-flight asynchronous read filling `buf` (engine mode only);
    /// settled before the buffer is touched or dropped.
    std::unique_ptr<io::AsyncHandle> pending;
  };
  using Directory = SlabDirectory<Slab>;
  using Entry = Directory::Entry;
  class Io;

  /// Gives a fresh directory entry its buffer.
  void allocate(Entry& e, io::LocalArrayFile& laf, const std::string& array);

  /// Performs the (modelled-async) disk read of `e.sec` into its buffer.
  void read_into(sim::SpmdContext& ctx, Entry& e);

  void write_back(sim::SpmdContext& ctx, Entry& e);
  /// Waits out `e`'s pending read (if any), applying its deferred
  /// accounting.
  static void settle_entry(sim::SpmdContext& ctx, Entry& e);
  /// Settles pending write `i` and drops it from the list.
  void settle_write(sim::SpmdContext& ctx, std::size_t i);
  /// Settles every in-flight write-back reading `buf`.
  void settle_writes_of(sim::SpmdContext& ctx, const IclaBuffer& buf);
  /// `buf` is about to be dropped: when a write-back still reads it, that
  /// write takes over its storage, after the pool's previous orphan (if
  /// any) has settled.
  void orphan(sim::SpmdContext& ctx, IclaBuffer& buf);
  void note_hit(const io::Section& s);

  /// An asynchronous write-back in flight. It reads `borrowed`, a resident
  /// entry's buffer, or, once that entry is gone, `orphan`, the storage it
  /// handed over.
  struct PendingWrite {
    io::LocalArrayFile* laf = nullptr;
    io::AsyncHandle handle;
    const IclaBuffer* borrowed = nullptr;
    std::vector<double> orphan;
  };

  MemoryBudget& budget_;
  std::string name_;
  Directory dir_;
  SlabCacheStats stats_;
  double disk_free_time_s_ = 0.0;
  io::AsyncEngine* engine_ = nullptr;
  std::vector<PendingWrite> pending_writes_;
};

/// Read-ahead queue of one prefetching slab loop: every stream, every slab
/// of the loop's iterator, in demand order. The step walk pumps it after
/// each demand read, over the executor's pool or the pricer's directory,
/// so the next reads are issued (asynchronously, in schedule order) while
/// the current slab computes.
class IoScheduler {
 public:
  /// One stream of the schedule; `section` is filled in per slab.
  struct Request {
    std::string array;
    io::Section section;
    double reuse_hint = -1.0;
  };

  /// Replaces the queue with `streams` read once per slab of `slabs`.
  void schedule(const SlabIterator& slabs, std::vector<Request> streams);

  /// Pops requests already satisfied (`resident`) from the front, then
  /// calls `read_ahead` on the upcoming ones until `lookahead` of them are
  /// resident or in flight, stopping at the first that finds no spare room
  /// (returns false).
  template <typename Resident, typename ReadAhead>
  void pump(int lookahead, const Resident& resident,
            const ReadAhead& read_ahead) {
    while (next_ < size() && resident(request(next_))) {
      ++next_;
    }
    int in_flight = 0;
    for (std::size_t k = next_; k < size() && in_flight < lookahead; ++k) {
      const Request& r = request(k);
      if (!resident(r) && !read_ahead(r)) {
        break;  // no spare room; try again after the next demand read
      }
      ++in_flight;
    }
  }

 private:
  std::size_t size() const noexcept {
    return slabs_ ? streams_.size() * static_cast<std::size_t>(slabs_->count())
                  : 0;
  }
  /// The k-th request of the schedule (slab k / streams, stream k % streams).
  const Request& request(std::size_t k);

  std::optional<SlabIterator> slabs_;
  std::vector<Request> streams_;
  std::size_t next_ = 0;  ///< first request not yet satisfied
};

}  // namespace oocc::runtime
