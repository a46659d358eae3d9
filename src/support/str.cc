#include "support/str.h"

#include <cstdarg>
#include <cstdio>

namespace firmup {

std::string
join(const std::vector<std::string> &parts, std::string_view sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) {
            out += sep;
        }
        out += parts[i];
    }
    return out;
}

std::string
concat(std::initializer_list<std::string_view> parts)
{
    std::size_t size = 0;
    for (const std::string_view part : parts) {
        size += part.size();
    }
    std::string out;
    out.reserve(size);
    for (const std::string_view part : parts) {
        out += part;
    }
    return out;
}

std::string
to_hex(std::uint64_t value, int width)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%0*llx", width,
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
strprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out(static_cast<std::size_t>(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

bool
starts_with(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.substr(0, prefix.size()) == prefix;
}

std::vector<std::string>
split(std::string_view s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.emplace_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

}  // namespace firmup
