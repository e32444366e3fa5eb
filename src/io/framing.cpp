#include "io/framing.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace geyser {
namespace io {

namespace fs = std::filesystem;

uint64_t
fnv1a64(const void *data, size_t len)
{
    constexpr uint64_t kOffset = 0xcbf29ce484222325ull;
    constexpr uint64_t kPrime = 0x100000001b3ull;
    uint64_t h = kOffset;
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= bytes[i];
        h *= kPrime;
    }
    return h;
}

std::string
Fnv128::hex() const
{
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return buf;
}

namespace {

constexpr const char *kFrameHeader = "geyser-frame v1 ";

}  // namespace

std::string
frameWithChecksum(const std::string &payload)
{
    std::ostringstream out;
    out << kFrameHeader << payload.size() << "\n";
    out << payload << "\n";
    char sum[17];
    std::snprintf(sum, sizeof(sum), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(payload.data(), payload.size())));
    out << "fnv64 " << sum << "\n";
    return out.str();
}

std::optional<std::string>
unframeWithChecksum(const std::string &framed)
{
    const size_t headerLen = std::char_traits<char>::length(kFrameHeader);
    if (framed.compare(0, headerLen, kFrameHeader) != 0)
        return std::nullopt;  // Wrong magic or format-version skew.
    const size_t eol = framed.find('\n', headerLen);
    if (eol == std::string::npos)
        return std::nullopt;
    size_t payloadLen = 0;
    try {
        size_t consumed = 0;
        const std::string lenText = framed.substr(headerLen, eol - headerLen);
        payloadLen = std::stoull(lenText, &consumed);
        if (consumed != lenText.size())
            return std::nullopt;
    } catch (const std::exception &) {
        return std::nullopt;
    }
    const size_t payloadStart = eol + 1;
    // Frame = header line + payload + "\n" + "fnv64 " + 16 hex + "\n".
    const size_t footerLen = 1 + 6 + 16 + 1;
    if (framed.size() < payloadStart + payloadLen + footerLen)
        return std::nullopt;  // Truncated.
    const std::string payload = framed.substr(payloadStart, payloadLen);
    const size_t footerStart = payloadStart + payloadLen;
    if (framed.compare(footerStart, 7, "\nfnv64 ") != 0)
        return std::nullopt;
    const std::string sumHex = framed.substr(footerStart + 7, 16);
    uint64_t expected = 0;
    try {
        size_t consumed = 0;
        expected = std::stoull(sumHex, &consumed, 16);
        if (consumed != sumHex.size())
            return std::nullopt;
    } catch (const std::exception &) {
        return std::nullopt;
    }
    if (fnv1a64(payload.data(), payload.size()) != expected)
        return std::nullopt;  // Bit rot.
    return payload;
}

bool
writeFileAtomic(const std::string &path, const std::string &contents)
{
    // Same-directory temp file so the final rename cannot cross a
    // filesystem boundary (rename is only atomic within one). The pid
    // keeps processes apart and the sequence number keeps threads
    // apart: two threads publishing one path (two compiles composing
    // the same block) must not truncate and rename each other's file.
    static std::atomic<unsigned long> sequence{0};
    const std::string tmp =
        path + ".tmp" + std::to_string(::getpid()) + "-" +
        std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(contents.data(),
                  static_cast<std::streamsize>(contents.size()));
        out.flush();
        if (!out) {
            out.close();
            std::error_code ec;
            fs::remove(tmp, ec);
            return false;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

std::optional<std::string>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad())
        return std::nullopt;
    return buf.str();
}

bool
createDirectories(const std::string &path)
{
    std::error_code ec;
    fs::create_directories(path, ec);
    std::error_code checkEc;
    return !ec && fs::is_directory(path, checkEc);
}

}  // namespace io
}  // namespace geyser
