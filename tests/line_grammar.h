// Matchers for the line formats the observability tests check,
// written out instead of with <regex>: built with -fsanitize=address,
// GCC 12 warns (-Wmaybe-uninitialized, a false positive) inside
// libstdc++'s regex automaton wherever a std::regex is built.
#pragma once

#include <cctype>
#include <cstddef>
#include <string>
#include <string_view>

namespace pelican::grammar {

inline bool IsDigit(char c) {
  return std::isdigit(static_cast<unsigned char>(c)) != 0;
}

// [a-zA-Z_:][a-zA-Z0-9_:]* at s[pos]: its length, 0 if there is none.
inline std::size_t NameLength(std::string_view s, std::size_t pos) {
  const auto start = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == ':';
  };
  if (pos >= s.size() || !start(s[pos])) return 0;
  std::size_t n = 1;
  while (pos + n < s.size() && (start(s[pos + n]) || IsDigit(s[pos + n]))) {
    ++n;
  }
  return n;
}

// [0-9eE.+\-]
inline bool IsNumberChar(char c) {
  return IsDigit(c) || c == 'e' || c == 'E' || c == '.' || c == '+' ||
         c == '-';
}

// ^[0-9eE.+\-]+$
inline bool IsNumber(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (!IsNumberChar(c)) return false;
  }
  return true;
}

// `pattern` with '#' standing for one digit and '*' for one or more
// digits; every other character is literal. The whole of s must match.
inline bool MatchDigits(std::string_view s, std::string_view pattern) {
  std::size_t i = 0;
  for (const char p : pattern) {
    if (p == '#' || p == '*') {
      if (i >= s.size() || !IsDigit(s[i])) return false;
      ++i;
      while (p == '*' && i < s.size() && IsDigit(s[i])) ++i;
    } else {
      if (i >= s.size() || s[i] != p) return false;
      ++i;
    }
  }
  return i == s.size();
}

}  // namespace pelican::grammar
