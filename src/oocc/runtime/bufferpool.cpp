#include "oocc/runtime/bufferpool.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "oocc/util/log.hpp"

namespace oocc::runtime {

/// The pool's side of the directory's decisions, bound to one call's
/// context: the budget's free room, the LAF write of a dirty slab, and the
/// settle + counters of an entry about to go.
class SlabBufferPool::Io final : public Directory::Host {
 public:
  Io(SlabBufferPool& pool, sim::SpmdContext& ctx) : pool_(pool), ctx_(ctx) {}

  std::int64_t room() const override { return pool_.budget_.remaining(); }

  void write_back(const std::string& /*array*/, Entry& e) override {
    pool_.write_back(ctx_, e);
  }

  void erasing(const std::string& /*array*/, Entry& e,
               bool evicted) override {
    // Eviction may pick a never-consumed prefetch: its fill must complete
    // before the buffer is dropped.
    settle_entry(ctx_, e);
    if (e.data.buf != nullptr) {  // null when its allocation failed
      pool_.orphan(ctx_, *e.data.buf);
    }
    if (evicted && pool_.dir_.retains()) {
      ++pool_.stats_.evictions;
    }
  }

 private:
  SlabBufferPool& pool_;
  sim::SpmdContext& ctx_;
};

SlabBufferPool::SlabBufferPool(MemoryBudget& budget, std::string name,
                               bool retain)
    : budget_(budget), name_(std::move(name)), dir_(name_, retain) {}

SlabBufferPool::~SlabBufferPool() {
  // Wait out every in-flight engine job before touching buffers: a worker
  // may still be filling an entry's IclaBuffer. Errors cannot be reported
  // from a destructor; drain_writes() at barriers / flush is where they
  // surface in normal operation.
  const auto wait = [](io::AsyncHandle& h) {
    if (h.ticket.valid()) {
      try {
        h.ticket.wait();
      } catch (...) {
      }
    }
  };
  for (PendingWrite& w : pending_writes_) {
    wait(w.handle);
  }
  bool pin_leak = false;
  dir_.for_each([&](const std::string& array, Entry& e) {
    if (e.data.pending != nullptr) {
      wait(*e.data.pending);
    }
    if (e.pins > 0) {
      pin_leak = true;
      OOCC_WARN("bufferpool", "pool '" << name_ << "' destroyed with '"
                                       << array << "' slab still pinned "
                                       << e.pins << " time(s)");
    }
    if (e.dirty) {
      OOCC_WARN("bufferpool", "pool '" << name_ << "' destroyed with dirty '"
                                       << array << "' slab (missing flush?)");
    }
  });
  // Fault unwinding destroys pools with slabs still pinned by design (the
  // injected error propagates out of StepExecutor mid-step); aborting then
  // would turn every fault-injection test into a crash, so the strict
  // teardown check only applies on clean (non-exceptional) destruction.
  if (pin_leak && strict_teardown() && std::uncaught_exceptions() == 0) {
    // Sanitizer builds treat a pin leak like ASan treats a memory leak: a
    // bug to fix, not a condition to tolerate. Destructors cannot throw,
    // so abort with the diagnostic already on stderr.
    std::fprintf(stderr,
                 "bufferpool: pin leak — pool '%s' destroyed with pinned "
                 "entries\n",
                 name_.c_str());
    std::abort();
  }
}

void SlabBufferPool::allocate(Entry& e, io::LocalArrayFile& laf,
                              const std::string& array) {
  e.data.laf = &laf;
  e.data.buf = std::make_unique<IclaBuffer>(budget_, e.sec.elements(),
                                            name_ + ":" + array);
  e.data.buf->reset_section(e.sec);
}

void SlabBufferPool::read_into(sim::SpmdContext& ctx, Entry& e) {
  // Model asynchronous issue exactly like the classic double buffer: the
  // host read runs now and charges its service time, then the clock rewinds
  // to the issue point and the completion timestamp is queued behind any
  // earlier outstanding request (one disk per processor).
  const double t_issue = ctx.clock().now();
  if (engine_ != nullptr) {
    // Real-async path: the simulated charge is identical (read_section_async
    // prices on the compute thread exactly like the synchronous read); only
    // the physical transfer moves to an engine worker. settle_entry() waits
    // it out before anyone touches the buffer.
    e.data.pending = std::make_unique<io::AsyncHandle>(
        e.data.laf->read_section_async(ctx, *engine_, e.sec,
                                       e.data.buf->data()));
  } else {
    e.data.buf->load(ctx, *e.data.laf, e.sec);
  }
  const double service = ctx.clock().now() - t_issue;
  const double start = std::max(t_issue, disk_free_time_s_);
  e.data.ready_time_s = start + service;
  disk_free_time_s_ = e.data.ready_time_s;
  ctx.clock().rewind_to(t_issue);
}

void SlabBufferPool::settle_entry(sim::SpmdContext& ctx, Entry& e) {
  if (e.data.pending == nullptr) {
    return;
  }
  // Move the handle out first so a throwing settle cannot be retried on a
  // consumed ticket.
  const std::unique_ptr<io::AsyncHandle> pending = std::move(e.data.pending);
  e.data.laf->settle(ctx, *pending);
}

void SlabBufferPool::write_back(sim::SpmdContext& ctx, Entry& e) {
  settle_entry(ctx, e);
  if (engine_ != nullptr) {
    // The job reads the entry's own buffer, which nothing modifies until
    // the write settles (acquire_write settles it first); errors surface
    // at the next drain_writes() or orphan settle.
    pending_writes_.push_back(PendingWrite{
        e.data.laf,
        e.data.laf->write_section_async(ctx, *engine_, e.sec,
                                        e.data.buf->data()),
        e.data.buf.get(), {}});
  } else {
    e.data.buf->store_as(ctx, *e.data.laf, e.sec);
  }
  if (dir_.retains()) {
    ++stats_.writebacks;
  }
}

void SlabBufferPool::settle_write(sim::SpmdContext& ctx, std::size_t i) {
  // Take the write off the list first, so a throwing settle is not
  // retried; an orphan's storage is freed once the job is done.
  PendingWrite w = std::move(pending_writes_[i]);
  pending_writes_.erase(pending_writes_.begin() +
                        static_cast<std::ptrdiff_t>(i));
  w.laf->settle(ctx, w.handle);
}

void SlabBufferPool::settle_writes_of(sim::SpmdContext& ctx,
                                      const IclaBuffer& buf) {
  for (std::size_t i = 0; i < pending_writes_.size();) {
    if (pending_writes_[i].borrowed == &buf) {
      settle_write(ctx, i);
    } else {
      ++i;
    }
  }
}

void SlabBufferPool::orphan(sim::SpmdContext& ctx, IclaBuffer& buf) {
  // The buffer's last write keeps its storage: an earlier write of it is
  // on the same file, so it finishes first.
  const auto last_write = [&] {
    return std::find_if(
        pending_writes_.rbegin(), pending_writes_.rend(),
        [&](const PendingWrite& w) { return w.borrowed == &buf; });
  };
  if (last_write() == pending_writes_.rend()) {
    return;
  }
  // At most one orphan in flight: settle the older one before this buffer
  // gives up its storage, so a throwing settle leaves the entry intact.
  const auto older =
      std::find_if(pending_writes_.begin(), pending_writes_.end(),
                   [](const PendingWrite& w) { return !w.orphan.empty(); });
  if (older != pending_writes_.end()) {
    settle_write(ctx,
                 static_cast<std::size_t>(older - pending_writes_.begin()));
  }
  last_write()->orphan = buf.release_storage();
  for (PendingWrite& w : pending_writes_) {
    if (w.borrowed == &buf) {
      w.borrowed = nullptr;
    }
  }
}

void SlabBufferPool::note_hit(const io::Section& s) {
  if (dir_.retains()) {
    ++stats_.hits;
    stats_.elements_hit += static_cast<std::uint64_t>(s.elements());
  }
}

void SlabBufferPool::ensure_available(sim::SpmdContext& ctx,
                                      std::int64_t elements) {
  Io io(*this, ctx);
  dir_.make_room(io, elements);
}

IclaBuffer& SlabBufferPool::acquire_read(sim::SpmdContext& ctx,
                                         io::LocalArrayFile& laf,
                                         const std::string& array,
                                         const io::Section& s,
                                         double reuse_hint, bool transient) {
  OOCC_REQUIRE(!s.empty(), "cannot acquire empty section of '" << array
                                                               << "'");
  Io io(*this, ctx);
  const Directory::Read r =
      dir_.acquire_read(io, array, s, reuse_hint, transient);
  Entry& e = *r.entry;
  switch (r.how) {
    case SlabLookup::kHit:
    case SlabLookup::kPrefetched:
      // A prefetched acquire is the double-buffer path: the bytes did move,
      // just earlier.
      settle_entry(ctx, e);
      if (r.how == SlabLookup::kHit) {
        note_hit(s);
      }
      break;
    case SlabLookup::kAssembled: {
      // Copy the requested section column by column from the sources the
      // directory kept pinned while it made room.
      allocate(e, laf, array);
      double ready = ctx.clock().now();
      std::int64_t c = s.col0;
      for (const io::Section& from : r.sources) {
        Entry& src = *dir_.find(array, from);
        settle_entry(ctx, src);
        ready = std::max(ready, src.data.ready_time_s);
        for (; c < std::min(from.col1, s.col1); ++c) {
          std::memcpy(&e.data.buf->at(0, c - s.col0),
                      &src.data.buf->at(s.row0 - from.row0, c - from.col0),
                      static_cast<std::size_t>(s.rows()) * sizeof(double));
        }
      }
      e.data.ready_time_s = ready;
      note_hit(s);
      break;
    }
    case SlabLookup::kMiss:
      if (dir_.retains()) {
        ++stats_.misses;
      }
      allocate(e, laf, array);
      read_into(ctx, e);
      settle_entry(ctx, e);
      break;
  }
  ctx.clock().wait_until(e.data.ready_time_s);
  return *e.data.buf;
}

IclaBuffer& SlabBufferPool::acquire_write(sim::SpmdContext& ctx,
                                          io::LocalArrayFile& laf,
                                          const std::string& array,
                                          const io::Section& s,
                                          double reuse_hint) {
  OOCC_REQUIRE(!s.empty(), "cannot stage empty section of '" << array << "'");
  Io io(*this, ctx);
  Entry& e = dir_.acquire_write(io, array, s, reuse_hint);
  if (e.data.buf == nullptr) {
    allocate(e, laf, array);
  } else {
    // The caller is about to modify the buffer: no transfer may still be
    // using it.
    settle_entry(ctx, e);
    settle_writes_of(ctx, *e.data.buf);
  }
  return *e.data.buf;
}

void SlabBufferPool::mark_dirty(sim::SpmdContext& ctx,
                                const std::string& array,
                                const io::Section& s, double reuse_hint) {
  Io io(*this, ctx);
  dir_.mark_dirty(io, array, s, reuse_hint);
}

void SlabBufferPool::unpin(sim::SpmdContext& ctx, const std::string& array,
                           const io::Section& s) {
  Io io(*this, ctx);
  dir_.unpin(io, array, s);
}

bool SlabBufferPool::read_ahead(sim::SpmdContext& ctx,
                                io::LocalArrayFile& laf,
                                const std::string& array,
                                const io::Section& s, double reuse_hint) {
  Io io(*this, ctx);
  Entry* fill = nullptr;
  if (!dir_.read_ahead(io, array, s, reuse_hint, &fill)) {
    return false;
  }
  if (fill != nullptr) {
    allocate(*fill, laf, array);
    read_into(ctx, *fill);
  }
  return true;
}

void SlabBufferPool::flush(sim::SpmdContext& ctx, const std::string* only) {
  Io io(*this, ctx);
  dir_.flush(io, only);
  drain_writes(ctx);
}

void SlabBufferPool::drain_writes(sim::SpmdContext& ctx) {
  std::exception_ptr first;
  for (PendingWrite& w : pending_writes_) {
    try {
      w.laf->settle(ctx, w.handle);
    } catch (...) {
      if (first == nullptr) {
        first = std::current_exception();
      }
    }
  }
  pending_writes_.clear();
  if (first != nullptr) {
    std::rethrow_exception(first);
  }
}

void SlabBufferPool::drop(sim::SpmdContext& ctx, const std::string& array,
                          bool dead) {
  Io io(*this, ctx);
  const std::int64_t dropped = dir_.drop(io, array, dead);
  if (!dead) {
    drain_writes(ctx);
  } else if (dir_.retains()) {
    stats_.discarded += static_cast<std::uint64_t>(dropped);
  }
}

void IoScheduler::schedule(const SlabIterator& slabs,
                           std::vector<Request> streams) {
  slabs_ = slabs;
  streams_ = std::move(streams);
  next_ = 0;
}

const IoScheduler::Request& IoScheduler::request(std::size_t k) {
  Request& r = streams_[k % streams_.size()];
  r.section = slabs_->section(static_cast<std::int64_t>(k / streams_.size()));
  return r;
}

}  // namespace oocc::runtime
