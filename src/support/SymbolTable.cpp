//===- support/SymbolTable.cpp --------------------------------------------===//

#include "support/SymbolTable.h"

#include <algorithm>

using namespace awam;

SymbolTable::SymbolTable() {
  // Keep in sync with the fixed-id enum in the header.
  static const char *const Fixed[NumFixedSymbols] = {
      "[]", ".", ",", ":-", "true", "fail", "!", "{}", "-", "+"};
  for (const char *Name : Fixed)
    intern(Name);
}

SymbolTable::SymbolTable(const SymbolTable &Other) : Index(Other.Index) {
  // The index holds only hashes and ids, so it carries over verbatim; the
  // names are copied into storage of this table's own.
  Names.reserve(Other.Names.size());
  for (std::string_view Name : Other.Names)
    Names.push_back(store(Name));
}

SymbolTable &SymbolTable::operator=(const SymbolTable &Other) {
  if (this != &Other)
    *this = SymbolTable(Other);
  return *this;
}

std::string_view SymbolTable::store(std::string_view Name) {
  auto *Dest = reinterpret_cast<char *>(Chars.allocate(Name.size()));
  std::copy(Name.begin(), Name.end(), Dest);
  return {Dest, Name.size()};
}

Symbol SymbolTable::intern(std::string_view Name) {
  auto Id = static_cast<Symbol>(Names.size());
  Symbol S = Index.findOrInsert(hashBytes(Name), Id, [&](uint32_t Other) {
    return Names[Other] == Name;
  });
  if (S == Id)
    Names.push_back(store(Name));
  return S;
}

Symbol SymbolTable::lookup(std::string_view Name) const {
  return Index.find(hashBytes(Name),
                    [&](uint32_t Other) { return Names[Other] == Name; });
}
