#include "support/hash.h"

#include <cstring>

namespace firmup {

std::uint64_t
fnv1a64(std::string_view bytes)
{
    return fnv1a64_update(kFnv1a64Seed, bytes);
}

std::uint64_t
content_hash64(std::string_view bytes)
{
    std::uint64_t lane[4] = {kFnv1a64Seed,
                             kFnv1a64Seed ^ 0x9e3779b97f4a7c15ull,
                             kFnv1a64Seed ^ 0xbf58476d1ce4e5b9ull,
                             kFnv1a64Seed ^ 0x94d049bb133111ebull};
    const char *p = bytes.data();
    std::size_t n = bytes.size();
    while (n >= 32) {
        std::uint64_t w[4];
        std::memcpy(w, p, sizeof(w));
        for (int k = 0; k < 4; ++k) {
            lane[k] = (lane[k] ^ w[k]) * kFnv1a64Prime;
        }
        p += 32;
        n -= 32;
    }
    // Seed the tail state with the length so "" and "\0" differ and a
    // block boundary can't be smuggled across inputs of unequal size.
    std::uint64_t h = mix64(lane[0]) ^ mix64(lane[1]) ^ mix64(lane[2]) ^
                      mix64(lane[3]) ^ mix64(bytes.size());
    while (n >= 8) {
        std::uint64_t w;
        std::memcpy(&w, p, sizeof(w));
        h = (h ^ w) * kFnv1a64Prime;
        p += 8;
        n -= 8;
    }
    std::uint64_t tail = 0;
    for (std::size_t j = 0; j < n; ++j) {
        tail = (tail << 8) |
               static_cast<unsigned char>(p[j]);
    }
    if (n > 0) {
        h = (h ^ tail) * kFnv1a64Prime;
    }
    return mix64(h);
}

}  // namespace firmup
