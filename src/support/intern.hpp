// String interner: maps names (thread-local variable identifiers, endpoint
// labels) to dense 32-bit symbols so the hot paths compare integers instead
// of strings. Symbols are stable for the lifetime of the interner.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace mcsym::support {

/// Dense handle produced by Interner. Value 0 is reserved as "invalid".
class Symbol {
 public:
  constexpr Symbol() = default;
  constexpr explicit Symbol(std::uint32_t raw) : raw_(raw) {}

  [[nodiscard]] constexpr bool valid() const { return raw_ != 0; }
  [[nodiscard]] constexpr std::uint32_t raw() const { return raw_; }

  friend constexpr bool operator==(Symbol a, Symbol b) { return a.raw_ == b.raw_; }
  friend constexpr bool operator!=(Symbol a, Symbol b) { return a.raw_ != b.raw_; }
  friend constexpr bool operator<(Symbol a, Symbol b) { return a.raw_ < b.raw_; }

 private:
  std::uint32_t raw_ = 0;
};

class Interner {
 public:
  Interner();
  /// Copies rebuild the index: its keys view the spellings, and a copy's
  /// keys must view the copy's own, not the source's.
  Interner(const Interner& other);
  Interner& operator=(const Interner& other);
  // A moved deque keeps its elements where they are, so the keys stay valid.
  Interner(Interner&&) = default;
  Interner& operator=(Interner&&) = default;

  /// Returns the symbol for `name`, creating it on first sight.
  Symbol intern(std::string_view name);

  /// Looks up without creating; returns the invalid symbol if absent.
  [[nodiscard]] Symbol find(std::string_view name) const;

  /// The spelling of a previously interned symbol.
  [[nodiscard]] const std::string& spelling(Symbol sym) const;

  [[nodiscard]] std::size_t size() const { return names_.size() - 1; }

 private:
  /// Rebuilds index_ over names_.
  void reindex();

  // deque: element addresses are stable under push_back, so the string_view
  // keys in the index can safely view the stored spellings.
  std::deque<std::string> names_;  // index = raw symbol; slot 0 unused
  std::unordered_map<std::string_view, std::uint32_t> index_;
};

}  // namespace mcsym::support

template <>
struct std::hash<mcsym::support::Symbol> {
  std::size_t operator()(mcsym::support::Symbol s) const noexcept {
    return std::hash<std::uint32_t>{}(s.raw());
  }
};
