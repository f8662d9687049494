// The one least-recently-used cache behind c2h's three caching layers: the
// engine's front-end cache (core::FrontendCache), the serve layer's
// response cache and vsim's cross-request model cache (vsim::ModelCache).
//
// Keys are strings.  Every entry carries a cost chosen by its owner (bytes
// for the front end and the responses, 1 for models), and insert evicts
// least-recent entries until the summed cost fits the capacity.  An entry
// that alone exceeds the capacity is admitted and evicted at once, so a cap
// smaller than one entry caches nothing.  Capacity 0 means unbounded.
//
// The cache has no lock of its own: each owner already serializes its
// lookups and stores under the mutex that guards its other state.  Keys
// are hashed when they are built (LruKey), before the owner takes that
// lock, so a long key — a whole source, a whole Verilog text — never
// lengthens the critical section by more than a compare.  Values are
// usually shared_ptrs, so an evicted entry stays alive for whoever still
// holds it.
#ifndef C2H_SUPPORT_LRU_H
#define C2H_SUPPORT_LRU_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

namespace c2h::support {

struct CacheStats {
  std::uint64_t hits = 0, misses = 0, evictions = 0;
  std::uint64_t size = 0; // summed cost of the resident entries
  std::uint64_t entries = 0;
  std::uint64_t capacity = 0; // 0 = unbounded
};

// A cache key and its hash, computed once where the key is built.  The
// conversion from std::string is implicit so owners can pass the key text.
class LruKey {
public:
  LruKey(std::string text)
      : text_(std::move(text)), hash_(std::hash<std::string>{}(text_)) {}

  const std::string &text() const { return text_; }
  std::size_t hash() const { return hash_; }

private:
  std::string text_;
  std::size_t hash_;
};

template <class V> class LruCache {
public:
  explicit LruCache(std::uint64_t capacity = 0) { stats_.capacity = capacity; }

  LruCache(const LruCache &) = delete;
  LruCache &operator=(const LruCache &) = delete;

  // The value under `key`, now the most recent entry, or null.  Counts a
  // hit or a miss.  The pointer is valid until the next insert or
  // setCapacity.
  V *find(const LruKey &key) {
    auto it = index_.find(Ref{&key});
    if (it == index_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->value;
  }

  // Is `key` resident?  Neither touches the entry nor counts.
  bool contains(const LruKey &key) const { return index_.count(Ref{&key}); }

  // Stores `value` as the most recent entry, replacing any entry under the
  // same key in place, then evicts down to the capacity.
  void insert(LruKey key, V value, std::uint64_t cost) {
    auto it = index_.find(Ref{&key});
    if (it != index_.end()) {
      Node &node = *it->second;
      stats_.size -= node.cost;
      node.value = std::move(value);
      node.cost = cost;
      order_.splice(order_.begin(), order_, it->second);
    } else {
      order_.push_front(Node{std::move(key), std::move(value), cost});
      index_.emplace(Ref{&order_.front().key}, order_.begin());
    }
    stats_.size += cost;
    evict();
  }

  // Shrinking below the resident cost evicts immediately.
  void setCapacity(std::uint64_t capacity) {
    stats_.capacity = capacity;
    evict();
  }

  CacheStats stats() const {
    CacheStats s = stats_;
    s.entries = order_.size();
    return s;
  }

private:
  struct Node {
    LruKey key;
    V value;
    std::uint64_t cost;
  };

  // A key the index does not own: the caller's during a lookup, a node's
  // in the index (list nodes never move).
  struct Ref {
    const LruKey *key;
    bool operator==(const Ref &other) const {
      return key->hash() == other.key->hash() &&
             key->text() == other.key->text();
    }
  };
  struct RefHash {
    std::size_t operator()(const Ref &ref) const { return ref.key->hash(); }
  };

  void evict() {
    if (stats_.capacity == 0)
      return;
    while (stats_.size > stats_.capacity && !order_.empty()) {
      stats_.size -= order_.back().cost;
      index_.erase(Ref{&order_.back().key});
      order_.pop_back();
      ++stats_.evictions;
    }
  }

  std::list<Node> order_; // most recent first
  std::unordered_map<Ref, typename std::list<Node>::iterator, RefHash> index_;
  CacheStats stats_; // `entries` is filled in by stats()
};

} // namespace c2h::support

#endif // C2H_SUPPORT_LRU_H
