// Message base class for all daemon-to-daemon traffic.
//
// Messages are polymorphic C++ objects rather than serialized bytes — the
// simulator never crosses a process boundary — but every message reports a
// wire_size() so the fabric can account bandwidth the way a real deployment
// would (the PWS-vs-PBS experiment depends on this).
//
// Message *types* are interned process-wide into dense MessageTypeId
// integers so per-message stats accounting is an array index, not a
// string hash. Concrete messages declare their type with
// PHOENIX_MESSAGE_TYPE("x.y"), which interns once per class (thread-safe
// function-local static) and serves both type() and type_id() from it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "net/ids.h"

namespace phoenix::net {

/// Dense process-wide id for a message type name. 0 is reserved/invalid.
struct MessageTypeId {
  std::uint16_t value = 0;
  constexpr bool valid() const noexcept { return value != 0; }
  friend constexpr bool operator==(MessageTypeId, MessageTypeId) = default;
};

/// Interns `name`, returning its stable id (same name -> same id for the
/// life of the process). Thread-safe: parallel trials intern from worker
/// threads. Interned names are never released.
MessageTypeId intern_message_type(std::string_view name);

/// Looks up an already-interned name's id without interning; invalid id
/// when the name has never been seen.
MessageTypeId find_message_type(std::string_view name);

/// The name for `id`; empty for invalid/unknown ids.
std::string_view message_type_name(MessageTypeId id);

/// Number of distinct interned types (upper bound for TypeCounts sizing).
std::size_t message_type_count();

class Message {
 public:
  virtual ~Message() = default;

  /// Stable message type name, e.g. "group.heartbeat". Used for tracing,
  /// stats breakdown, and dynamic dispatch checks in tests.
  virtual std::string_view type() const noexcept = 0;

  /// Interned id of type(). The default interns on every call (a hash
  /// lookup); classes declared via PHOENIX_MESSAGE_TYPE override it with a
  /// cached per-class id and pay the lookup once per process.
  virtual MessageTypeId type_id() const noexcept { return intern_message_type(type()); }

  /// Bytes this message would occupy on the wire (header + payload).
  virtual std::size_t wire_size() const noexcept = 0;
};

/// Declares type(), a cached type_id(), and a class-level static_type_id()
/// for a Message subclass. static_type_id() lets dispatch tables resolve a
/// handler slot from the class alone (cluster::Daemon::on<MsgT>) without an
/// instance in hand.
#define PHOENIX_MESSAGE_TYPE(name)                                      \
  static ::phoenix::net::MessageTypeId static_type_id() noexcept {      \
    static const ::phoenix::net::MessageTypeId cached_id =              \
        ::phoenix::net::intern_message_type(name);                      \
    return cached_id;                                                   \
  }                                                                     \
  std::string_view type() const noexcept override { return (name); }   \
  ::phoenix::net::MessageTypeId type_id() const noexcept override {    \
    return static_type_id();                                           \
  }

using MessagePtr = std::unique_ptr<Message>;

/// Common fixed header cost applied to every message (addresses, type tag,
/// length, checksum — roughly a UDP-ish control datagram header).
inline constexpr std::size_t kWireHeaderBytes = 64;

/// Downcast helper: returns nullptr when the runtime type does not match.
/// For tests and benches; daemons dispatch through Daemon::on<MsgT>.
template <typename T>
const T* message_cast(const Message& m) noexcept {
  return dynamic_cast<const T*>(&m);
}

/// Envelope: a message in flight between two daemon addresses on one network.
struct Envelope {
  Address from;
  Address to;
  NetworkId network;
  std::shared_ptr<const Message> message;
};

/// Per-message-type counters indexed by MessageTypeId: the hot path is
/// `counts.slot(id) += bytes` (one array index); the map-like string API
/// (`at`, `contains`, `count`, iteration as (name, value) pairs) exists for
/// tests, benches, and report rendering. A type with a zero count is
/// indistinguishable from an absent one, matching how the old
/// unordered_map<string, uint64> behaved (keys only ever appeared with a
/// positive value).
class TypeCounts {
 public:
  /// Mutable counter cell for `id` (hot path; grows storage on demand).
  std::uint64_t& slot(MessageTypeId id) {
    if (id.value >= counts_.size()) counts_.resize(id.value + std::size_t{1}, 0);
    return counts_[id.value];
  }

  /// Value for `name`; 0 when absent.
  std::uint64_t get(std::string_view name) const;

  /// Value for `name`; throws std::out_of_range when absent (map parity).
  std::uint64_t at(std::string_view name) const;

  bool contains(std::string_view name) const { return get(name) != 0; }
  std::size_t count(std::string_view name) const { return contains(name) ? 1 : 0; }

  /// Number of types with a non-zero count.
  std::size_t size() const noexcept;
  bool empty() const noexcept { return size() == 0; }

  /// Element-wise accumulate (used by Fabric::total_stats).
  void add(const TypeCounts& other);

  void clear() noexcept { counts_.clear(); }

  /// Iterates non-zero entries as (type name, count) pairs.
  class const_iterator {
   public:
    using value_type = std::pair<std::string_view, std::uint64_t>;

    const_iterator(const std::vector<std::uint64_t>* counts, std::size_t i)
        : counts_(counts), i_(i) {
      skip_zeros();
    }

    value_type operator*() const {
      return {message_type_name(MessageTypeId{static_cast<std::uint16_t>(i_)}),
              (*counts_)[i_]};
    }
    const_iterator& operator++() {
      ++i_;
      skip_zeros();
      return *this;
    }
    friend bool operator==(const const_iterator&, const const_iterator&) = default;

   private:
    void skip_zeros() {
      while (i_ < counts_->size() && (*counts_)[i_] == 0) ++i_;
    }
    const std::vector<std::uint64_t>* counts_;
    std::size_t i_;
  };

  const_iterator begin() const {
    return const_iterator(&counts_, counts_.empty() ? 0 : 1);  // 0 is reserved
  }
  const_iterator end() const { return const_iterator(&counts_, counts_.size()); }

 private:
  std::vector<std::uint64_t> counts_;  // [MessageTypeId::value] -> count
};

}  // namespace phoenix::net
