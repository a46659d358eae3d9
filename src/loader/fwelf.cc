#include "loader/fwelf.h"

#include <algorithm>
#include <cstring>

namespace firmup::loader {

namespace {

constexpr std::uint16_t kVersion = 1;
constexpr std::uint8_t kFlagStripped = 0x01;

}  // namespace

std::string
Executable::symbol_at(std::uint32_t addr) const
{
    for (const Symbol &sym : symbols) {
        if (sym.addr == addr) {
            return sym.name;
        }
    }
    return "";
}

void
Executable::release()
{
    ByteBuffer().swap(text);
    ByteBuffer().swap(data);
    std::vector<Symbol>().swap(symbols);
    released = true;
}

ByteBuffer
write_fwelf(const Executable &exe)
{
    ByteBuffer out;
    for (std::uint8_t byte : kMagic) {
        out.push_back(byte);
    }
    append_u16_le(out, kVersion);
    append_u8(out, static_cast<std::uint8_t>(exe.declared_arch));
    append_u8(out, exe.stripped ? kFlagStripped : 0);
    append_u32_le(out, exe.entry);
    append_u32_le(out, exe.text_addr);
    append_u32_le(out, static_cast<std::uint32_t>(exe.text.size()));
    append_u32_le(out, exe.data_addr);
    append_u32_le(out, static_cast<std::uint32_t>(exe.data.size()));
    append_u32_le(out, static_cast<std::uint32_t>(exe.symbols.size()));
    for (const Symbol &sym : exe.symbols) {
        append_u32_le(out, sym.addr);
        append_u8(out, sym.exported ? 1 : 0);
        append_u16_le(out, static_cast<std::uint16_t>(sym.name.size()));
        out.insert(out.end(), sym.name.begin(), sym.name.end());
    }
    out.insert(out.end(), exe.text.begin(), exe.text.end());
    out.insert(out.end(), exe.data.begin(), exe.data.end());
    return out;
}

Result<Executable>
parse_fwelf(const std::uint8_t *bytes, std::size_t size)
{
    constexpr std::size_t kHeaderSize = 4 + 2 + 1 + 1 + 4 * 6;
    if (size < kHeaderSize) {
        return Result<Executable>::error(
            ErrorCode::TruncatedMember, "fwelf: too small");
    }
    if (std::memcmp(bytes, kMagic, 4) != 0) {
        return Result<Executable>::error(
            ErrorCode::MalformedContainer, "fwelf: bad magic");
    }
    const std::uint16_t version = read_u16_le(bytes + 4);
    if (version != kVersion) {
        return Result<Executable>::error(
            ErrorCode::MalformedContainer,
            "fwelf: unsupported version");
    }
    Executable exe;
    const std::uint8_t arch_byte = bytes[6];
    if (arch_byte > static_cast<std::uint8_t>(isa::Arch::X86)) {
        return Result<Executable>::error(
            ErrorCode::MalformedContainer, "fwelf: bad arch byte");
    }
    exe.declared_arch = static_cast<isa::Arch>(arch_byte);
    exe.arch = exe.declared_arch;
    exe.stripped = (bytes[7] & kFlagStripped) != 0;
    exe.entry = read_u32_le(bytes + 8);
    exe.text_addr = read_u32_le(bytes + 12);
    const std::uint32_t text_size = read_u32_le(bytes + 16);
    exe.data_addr = read_u32_le(bytes + 20);
    const std::uint32_t data_size = read_u32_le(bytes + 24);
    const std::uint32_t sym_count = read_u32_le(bytes + 28);

    std::size_t pos = kHeaderSize;
    for (std::uint32_t i = 0; i < sym_count; ++i) {
        if (pos + 7 > size) {
            return Result<Executable>::error(
                ErrorCode::TruncatedMember,
                "fwelf: truncated symtab");
        }
        Symbol sym;
        sym.addr = read_u32_le(bytes + pos);
        sym.exported = bytes[pos + 4] != 0;
        const std::uint16_t name_len = read_u16_le(bytes + pos + 5);
        pos += 7;
        if (pos + name_len > size) {
            return Result<Executable>::error(
                ErrorCode::TruncatedMember,
                "fwelf: truncated sym name");
        }
        sym.name.assign(reinterpret_cast<const char *>(bytes + pos),
                        name_len);
        pos += name_len;
        exe.symbols.push_back(std::move(sym));
    }
    if (pos + text_size + data_size > size) {
        return Result<Executable>::error(
            ErrorCode::TruncatedMember, "fwelf: truncated sections");
    }
    exe.text.assign(bytes + pos, bytes + pos + text_size);
    pos += text_size;
    exe.data.assign(bytes + pos, bytes + pos + data_size);
    return exe;
}

Result<Executable>
parse_fwelf(const ByteBuffer &bytes)
{
    return parse_fwelf(bytes.data(), bytes.size());
}

void
strip_executable(Executable &exe, bool keep_exported)
{
    if (keep_exported) {
        std::erase_if(exe.symbols,
                      [](const Symbol &sym) { return !sym.exported; });
    } else {
        exe.symbols.clear();
    }
    exe.stripped = true;
}

}  // namespace firmup::loader
