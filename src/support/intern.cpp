#include "support/intern.hpp"

#include "support/assert.hpp"

namespace mcsym::support {

Interner::Interner() {
  names_.emplace_back();  // slot 0 = invalid symbol
}

Interner::Interner(const Interner& other) : names_(other.names_) { reindex(); }

Interner& Interner::operator=(const Interner& other) {
  if (this != &other) *this = Interner(other);
  return *this;
}

void Interner::reindex() {
  index_.clear();
  index_.reserve(names_.size());
  for (std::size_t raw = 1; raw < names_.size(); ++raw) {
    index_.emplace(names_[raw], static_cast<std::uint32_t>(raw));
  }
}

Symbol Interner::intern(std::string_view name) {
  if (auto it = index_.find(name); it != index_.end()) return Symbol(it->second);
  const auto raw = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), raw);
  return Symbol(raw);
}

Symbol Interner::find(std::string_view name) const {
  auto it = index_.find(name);
  return it == index_.end() ? Symbol{} : Symbol(it->second);
}

const std::string& Interner::spelling(Symbol sym) const {
  MCSYM_ASSERT(sym.valid() && sym.raw() < names_.size());
  return names_[sym.raw()];
}

}  // namespace mcsym::support
