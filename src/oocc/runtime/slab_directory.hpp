// The one slab-pool policy: shared by the runtime pool, the step pricer and
// the plan verifier.
//
// SlabDirectory is the shape-only half of SlabBufferPool. From (array,
// section) shapes alone it decides what a slab request costs and what it
// displaces; the owner supplies the free room and performs the byte-level
// side of each decision through a Host. SlabBufferPool moves bytes through
// the Local Array Files, compiler::StepPricer charges extents where the
// pool would move them, and the verifier counts pinned elements with it.
// Because all three run this one copy of the rules, priced == measured
// holds by construction.
//
// The rules:
//  * one entry per (array, section); pins are refcounted and eviction never
//    touches a pinned entry;
//  * a demand read hits an exact entry, one entry containing the section,
//    or, for a full-height column section, full-height entries covering
//    its columns (the owner assembles the copy). An assembly whose copy
//    cannot fit beside its sources is served as a miss instead;
//  * the victim is the unpinned entry whose next use is farthest away (no
//    known reuse first), ties broken least-recently-used; dirty victims are
//    written back first;
//  * a miss or read-ahead first writes back every dirty entry overlapping
//    the request, so the disk read sees current data; staging a write drops
//    every other overlapping range (writing back dirty ones), because it
//    goes stale the moment the staged slab is computed into;
//  * read-ahead never evicts;
//  * flush writes dirty entries back arrays in name order, sections in
//    ascending (col0, row0) order;
//  * dropping an array erases all of its entries: invalidating writes the
//    dirty ones back first, discarding a dead array (one the caller
//    overwrites in full before reading it) clears their dirty flag
//    instead, so its stale data never reaches the LAF;
//  * capacity is hard: an allocation that evicting every unpinned entry
//    cannot make room for throws Error(kResourceExhausted).
//
// A no-retain directory (--no-cache) keeps nothing past its use: a staged
// write goes through to the LAF at once and an entry is dropped at its last
// unpin. Only read-ahead entries wait, unpinned, for their demand read. A
// retaining directory drops a transient (halo-widened) read's entry at its
// last unpin too: it overlaps its neighbours and the ping-pong partner is
// what the next sweep reads, so keeping it would only crowd out the
// reusable dirty slabs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "oocc/io/laf.hpp"
#include "oocc/util/error.hpp"

namespace oocc::runtime {

/// How a demand read was served.
enum class SlabLookup {
  kMiss,        ///< read from the LAF into a fresh entry
  kHit,         ///< an exact entry held the section
  kPrefetched,  ///< first demand of a read-ahead entry (bytes moved at issue)
  kAssembled,   ///< copied from a containing entry or covering entries
};

/// Entry payload of a directory that tracks shapes only.
struct NoPayload {};

template <typename Payload = NoPayload>
class SlabDirectory {
 public:
  struct Entry {
    io::Section sec;
    int pins = 0;
    bool dirty = false;
    /// A read-ahead entry not yet demanded: its first demand read is the
    /// double-buffer path, not a reuse hit.
    bool prefetched = false;
    /// Dropped at its last unpin, clean, even when retaining.
    bool transient = false;
    /// The compiler's forward reuse distance (-1 = no known reuse).
    double reuse_hint = -1.0;
    std::uint64_t last_use = 0;
    Payload data{};
  };

  /// The owner's side of every decision. The defaults have no capacity
  /// limit and move no bytes: shape-only pin accounting (the verifier's).
  class Host {
   public:
    /// Elements the owner can allocate now without evicting anything.
    virtual std::int64_t room() const {
      return std::numeric_limits<std::int64_t>::max();
    }
    /// Makes a dirty entry's data durable in its LAF; the entry stays.
    virtual void write_back(const std::string& /*array*/, Entry& /*e*/) {}
    /// Called just before `e` is erased; `evicted` is true when it goes to
    /// make room, false when it is dropped or invalidated.
    virtual void erasing(const std::string& /*array*/, Entry& /*e*/,
                         bool /*evicted*/) {}

   protected:
    ~Host() = default;
  };

  /// What a demand read found. `entry` is valid until the next call that
  /// changes the directory; for kAssembled, `sources` lists the sections
  /// of the entries to copy from, in column order.
  struct Read {
    SlabLookup how = SlabLookup::kMiss;
    Entry* entry = nullptr;
    std::vector<io::Section> sources;
  };

  /// `name` prefixes capacity diagnostics; `retain` = false is the
  /// no-retain (--no-cache) mode.
  SlabDirectory(std::string name, bool retain)
      : name_(std::move(name)), retain_(retain) {}

  bool retains() const noexcept { return retain_; }

  /// Demand read of `s`. The requested entry ends pinned; a kMiss or
  /// kAssembled entry is fresh and must be filled by the owner.
  Read acquire_read(Host& host, const std::string& array,
                    const io::Section& s, double reuse_hint,
                    bool transient = false) {
    Read out;
    if (Entry* e = find(array, s)) {
      e->last_use = ++tick_;
      e->reuse_hint = reuse_hint;
      e->transient = transient;
      add_pin(*e);
      out.how = std::exchange(e->prefetched, false) ? SlabLookup::kPrefetched
                                                     : SlabLookup::kHit;
      out.entry = e;
      return out;
    }
    out.sources = covering(array, s);
    if (!out.sources.empty()) {
      // The sources stay pinned while room is made for the copy; when they
      // leave too little, the request goes to disk and they may be evicted.
      for (const io::Section& src : out.sources) {
        add_pin(*find(array, src));
      }
      const bool fits =
          host.room() >= s.elements() - (resident_ - pinned_elements_);
      if (fits) {
        out.entry = &insert(host, array, s, reuse_hint);
      }
      for (const io::Section& src : out.sources) {
        remove_pin(*find(array, src));
      }
      if (fits) {
        add_pin(*out.entry);
        out.entry->transient = transient;
        out.how = SlabLookup::kAssembled;
        return out;
      }
      out.sources.clear();
    }
    write_back_overlapping(host, array, s);
    out.entry = &insert(host, array, s, reuse_hint);
    add_pin(*out.entry);
    out.entry->transient = transient;
    return out;
  }

  /// Stages `s` for output: drops every other range overlapping it, then
  /// pins the exact entry (its data is kept: the in-place and fused cases)
  /// or a fresh one, which needs no disk read.
  Entry& acquire_write(Host& host, const std::string& array,
                       const io::Section& s, double reuse_hint) {
    const auto it = entries_.find(array);
    if (it != entries_.end()) {
      const auto stale = [&](const Entry& e) {
        return !(e.sec == s) && e.sec.overlaps(s);
      };
      for (const Entry& e : it->second) {
        OOCC_CHECK(!stale(e) || e.pins == 0, ErrorCode::kRuntimeError,
                   "staging '" << array
                               << "' would invalidate a pinned cached slab");
      }
      for (std::size_t i = 0; i < it->second.size();) {
        if (!stale(it->second[i])) {
          ++i;
        } else if (erase(host, it, i, /*evicted=*/false)) {
          break;  // the array's last entry went
        }
      }
    }
    Entry* e = find(array, s);
    if (e == nullptr) {
      e = &insert(host, array, s, reuse_hint);
    } else {
      e->last_use = ++tick_;
    }
    add_pin(*e);
    return *e;
  }

  /// The staged entry for exactly `s` now supersedes the LAF: it turns
  /// dirty, or in no-retain mode is written through at once.
  void mark_dirty(Host& host, const std::string& array, const io::Section& s,
                  double reuse_hint) {
    Entry* e = find(array, s);
    OOCC_CHECK(e != nullptr, ErrorCode::kRuntimeError,
               "mark_dirty of '" << array
                                 << "' before any compute staged the slab");
    e->reuse_hint = reuse_hint;
    e->last_use = ++tick_;
    if (retain_) {
      e->dirty = true;
    } else {
      host.write_back(array, *e);
    }
  }

  /// Drops one pin from the entry for exactly `s`; the last unpin drops the
  /// entry in no-retain mode, or when it is transient and clean.
  void unpin(Host& host, const std::string& array, const io::Section& s) {
    const auto [it, i] = locate(array, s);
    OOCC_CHECK(it != entries_.end() && it->second[i].pins > 0,
               ErrorCode::kRuntimeError,
               "unpin of '" << array << "' slab that is not pinned");
    Entry& e = it->second[i];
    remove_pin(e);
    if (e.pins == 0 && (!retain_ || (e.transient && !e.dirty))) {
      erase(host, it, i, /*evicted=*/false);
    }
  }

  /// Pins the entry for exactly `s`, creating it when absent; no lookup
  /// rule, no I/O. The verifier's pin accounting.
  void pin(Host& host, const std::string& array, const io::Section& s) {
    Entry* e = find(array, s);
    if (e == nullptr) {
      e = &insert(host, array, s, -1.0);
    }
    add_pin(*e);
  }

  /// Admits a read-ahead of `s` without pinning it. False when `s` does not
  /// fit beside what is resident (read-ahead never evicts). Otherwise true,
  /// with `*fill` set to the fresh entry the owner must read into, or null
  /// when `s` was already resident.
  bool read_ahead(Host& host, const std::string& array, const io::Section& s,
                  double reuse_hint, Entry** fill) {
    *fill = nullptr;
    if (resident(array, s)) {
      return true;
    }
    if (host.room() < s.elements()) {
      return false;
    }
    write_back_overlapping(host, array, s);
    Entry& e = insert(host, array, s, reuse_hint);
    e.prefetched = true;
    *fill = &e;
    return true;
  }

  /// Writes back every dirty entry in the deterministic flush order; with
  /// `only`, only that array's.
  void flush(Host& host, const std::string* only = nullptr) {
    for (auto& [array, list] : entries_) {
      if (only != nullptr && array != *only) {
        continue;
      }
      std::vector<Entry*> dirty;
      for (Entry& e : list) {
        if (e.dirty) {
          dirty.push_back(&e);
        }
      }
      std::sort(dirty.begin(), dirty.end(), [](const Entry* a, const Entry* b) {
        return std::pair(a->sec.col0, a->sec.row0) <
               std::pair(b->sec.col0, b->sec.row0);
      });
      for (Entry* e : dirty) {
        write_back(host, array, *e);
      }
    }
  }

  /// Drops every entry of `array`; none may be pinned. Dirty entries are
  /// written back first, unless the array is `dead`: the caller overwrites
  /// all of it before reading any of it, so no cached byte is needed.
  /// Returns the number of entries dropped.
  std::int64_t drop(Host& host, const std::string& array, bool dead) {
    const auto it = entries_.find(array);
    if (it == entries_.end()) {
      return 0;
    }
    for (const Entry& e : it->second) {
      OOCC_CHECK(e.pins == 0, ErrorCode::kRuntimeError,
                 "dropping '" << array << "' with pinned slabs");
    }
    std::int64_t dropped = 0;
    do {
      if (dead) {
        it->second.front().dirty = false;
      }
      ++dropped;
    } while (!erase(host, it, 0, /*evicted=*/false));
    return dropped;
  }

  /// Evicts unpinned entries until `elements` fit; throws
  /// Error(kResourceExhausted) when pinned entries make that impossible.
  void make_room(Host& host, std::int64_t elements) {
    while (host.room() < elements) {
      OOCC_CHECK(evict_one(host), ErrorCode::kResourceExhausted,
                 "slab pool '" << name_ << "' cannot free " << elements
                               << " elements: " << host.room() << " free, "
                               << pinned_entries_ << " entries pinned");
    }
  }

  /// True when a demand read of `s` would be served from memory.
  bool resident(const std::string& array, const io::Section& s) const {
    return !covering(array, s).empty();
  }

  Entry* find(const std::string& array, const io::Section& s) noexcept {
    const auto [it, i] = locate(array, s);
    return it == entries_.end() ? nullptr : &it->second[i];
  }

  /// Calls `fn(array, entry)` for every entry (teardown diagnostics).
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& [array, list] : entries_) {
      for (Entry& e : list) {
        fn(array, e);
      }
    }
  }

  std::int64_t pinned_count() const noexcept { return pinned_entries_; }
  std::int64_t pinned_elements() const noexcept { return pinned_elements_; }
  std::int64_t resident_elements() const noexcept { return resident_; }

 private:
  using Map = std::map<std::string, std::vector<Entry>>;

  /// The list holding the entry for exactly `s` and its index there;
  /// (end, 0) when there is none.
  std::pair<typename Map::iterator, std::size_t> locate(
      const std::string& array, const io::Section& s) noexcept {
    const auto it = entries_.find(array);
    if (it != entries_.end()) {
      for (std::size_t i = 0; i < it->second.size(); ++i) {
        if (it->second[i].sec == s) {
          return {it, i};
        }
      }
    }
    return {entries_.end(), 0};
  }

  /// Sections of the entries that serve `s`: one entry containing it, or
  /// full-height entries covering its columns (column c comes from the
  /// first entry spanning it). Empty when `s` is not resident.
  std::vector<io::Section> covering(const std::string& array,
                                    const io::Section& s) const {
    const auto it = entries_.find(array);
    if (it == entries_.end()) {
      return {};
    }
    for (const Entry& e : it->second) {
      if (e.sec.contains(s)) {
        return {e.sec};
      }
    }
    std::vector<io::Section> sources;
    for (std::int64_t c = s.col0; c < s.col1;) {
      const Entry* found = nullptr;
      for (const Entry& e : it->second) {
        if (e.sec.row0 == s.row0 && e.sec.row1 == s.row1 &&
            e.sec.col0 <= c && c < e.sec.col1) {
          found = &e;
          break;
        }
      }
      if (found == nullptr) {
        return {};
      }
      sources.push_back(found->sec);
      c = found->sec.col1;
    }
    return sources;
  }

  void add_pin(Entry& e) noexcept {
    if (e.pins++ == 0) {
      ++pinned_entries_;
      pinned_elements_ += e.sec.elements();
    }
  }

  void remove_pin(Entry& e) noexcept {
    if (--e.pins == 0) {
      --pinned_entries_;
      pinned_elements_ -= e.sec.elements();
    }
  }

  Entry& insert(Host& host, const std::string& array, const io::Section& s,
                double reuse_hint) {
    make_room(host, s.elements());
    Entry& e = entries_[array].emplace_back();
    e.sec = s;
    e.reuse_hint = reuse_hint;
    e.last_use = ++tick_;
    resident_ += s.elements();
    return e;
  }

  void write_back(Host& host, const std::string& array, Entry& e) {
    host.write_back(array, e);
    e.dirty = false;
  }

  void write_back_overlapping(Host& host, const std::string& array,
                              const io::Section& s) {
    const auto it = entries_.find(array);
    if (it == entries_.end()) {
      return;
    }
    for (Entry& e : it->second) {
      if (e.dirty && e.sec.overlaps(s)) {
        write_back(host, array, e);
      }
    }
  }

  /// Erases entry `i` of `it`'s list, writing it back first when dirty.
  /// Returns true when that emptied the list (and `it` is gone).
  bool erase(Host& host, typename Map::iterator it, std::size_t i,
             bool evicted) {
    Entry& e = it->second[i];
    if (e.dirty) {
      write_back(host, it->first, e);
    }
    host.erasing(it->first, e, evicted);
    resident_ -= e.sec.elements();
    it->second.erase(it->second.begin() + static_cast<std::ptrdiff_t>(i));
    if (it->second.empty()) {
      entries_.erase(it);
      return true;
    }
    return false;
  }

  static double eviction_rank(double reuse_hint) noexcept {
    return reuse_hint < 0 ? std::numeric_limits<double>::infinity()
                          : reuse_hint;
  }

  bool evict_one(Host& host) {
    typename Map::iterator victim_list = entries_.end();
    std::size_t victim = 0;
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      for (std::size_t i = 0; i < it->second.size(); ++i) {
        const Entry& e = it->second[i];
        if (e.pins > 0) {
          continue;
        }
        if (victim_list == entries_.end()) {
          victim_list = it;
          victim = i;
          continue;
        }
        const Entry& v = victim_list->second[victim];
        const double er = eviction_rank(e.reuse_hint);
        const double vr = eviction_rank(v.reuse_hint);
        if (er > vr || (er == vr && e.last_use < v.last_use)) {
          victim_list = it;
          victim = i;
        }
      }
    }
    if (victim_list == entries_.end()) {
      return false;
    }
    erase(host, victim_list, victim, /*evicted=*/true);
    return true;
  }

  std::string name_;
  bool retain_;
  Map entries_;
  std::int64_t resident_ = 0;
  std::int64_t pinned_entries_ = 0;
  std::int64_t pinned_elements_ = 0;
  std::uint64_t tick_ = 0;
};

}  // namespace oocc::runtime
