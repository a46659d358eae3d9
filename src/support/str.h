/**
 * @file
 * Small string utilities shared across modules.
 */
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace firmup {

/** Join elements of @p parts with @p sep. */
std::string join(const std::vector<std::string> &parts, std::string_view sep);

/** @p parts back to back, built in one allocation. */
std::string concat(std::initializer_list<std::string_view> parts);

/** Hexadecimal rendering of a value, zero-padded to @p width digits. */
std::string to_hex(std::uint64_t value, int width = 0);

/** Printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** True if @p s starts with @p prefix. */
bool starts_with(std::string_view s, std::string_view prefix);

/** Split @p s on @p sep (single character); keeps empty fields. */
std::vector<std::string> split(std::string_view s, char sep);

/**
 * Parse all of @p text as a T in [lo, hi] (integers in @p base; 0 takes
 * C prefixes) into @p out. Blanks, trailing text, a minus on an unsigned
 * T, overflow, NaN and infinities fail and leave @p out untouched.
 */
template <typename T>
bool
parse_number(const std::string &text, T &out,
             std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
             std::type_identity_t<T> hi = std::numeric_limits<T>::max(),
             int base = 10)
{
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
        (std::is_unsigned_v<T> && text[0] == '-')) {
        return false;
    }
    char *end = nullptr;
    errno = 0;
    const auto value = [&] {
        if constexpr (std::is_floating_point_v<T>) {
            return std::strtod(text.c_str(), &end);
        } else if constexpr (std::is_signed_v<T>) {
            return std::strtoll(text.c_str(), &end, base);
        } else {
            return std::strtoull(text.c_str(), &end, base);
        }
    }();
    if (errno != 0 || end != text.c_str() + text.size() ||
        !(value >= lo && value <= hi)) {
        return false;
    }
    out = static_cast<T>(value);
    return true;
}

}  // namespace firmup
