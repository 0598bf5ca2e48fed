#include "exec/net/auth.hh"

#include <cstring>
#include <fstream>
#include <random>
#include <stdexcept>
#include <vector>

namespace rigor::exec::net
{

namespace
{

// SHA-256 per FIPS 180-4. Straightforward single-shot implementation:
// message schedule and compression in one pass over padded blocks.

constexpr std::array<std::uint32_t, 64> kSha256K = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t
rotr(std::uint32_t value, unsigned bits)
{
    return (value >> bits) | (value << (32 - bits));
}

void
compressBlock(std::array<std::uint32_t, 8> &state,
              const std::uint8_t *block)
{
    std::array<std::uint32_t, 64> w;
    for (std::size_t i = 0; i < 16; ++i)
        w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
               (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
               (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
               static_cast<std::uint32_t>(block[i * 4 + 3]);
    for (std::size_t i = 16; i < 64; ++i) {
        const std::uint32_t s0 = rotr(w[i - 15], 7) ^
                                 rotr(w[i - 15], 18) ^
                                 (w[i - 15] >> 3);
        const std::uint32_t s1 = rotr(w[i - 2], 17) ^
                                 rotr(w[i - 2], 19) ^
                                 (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2],
                  d = state[3], e = state[4], f = state[5],
                  g = state[6], h = state[7];
    for (std::size_t i = 0; i < 64; ++i) {
        const std::uint32_t s1 =
            rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        const std::uint32_t ch = (e & f) ^ (~e & g);
        const std::uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
        const std::uint32_t s0 =
            rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        const std::uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

} // namespace

Sha256Digest
sha256(const void *data, std::size_t size)
{
    std::array<std::uint32_t, 8> state = {
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
        0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::size_t offset = 0;
    for (; offset + 64 <= size; offset += 64)
        compressBlock(state, bytes + offset);

    // Final block(s): the 0x80 terminator, zero padding, and the
    // 64-bit big-endian bit length.
    std::array<std::uint8_t, 128> tail{};
    const std::size_t rest = size - offset;
    std::memcpy(tail.data(), bytes + offset, rest);
    tail[rest] = 0x80;
    const std::size_t tail_blocks = rest + 1 + 8 <= 64 ? 1 : 2;
    const std::uint64_t bits =
        static_cast<std::uint64_t>(size) * 8;
    for (std::size_t i = 0; i < 8; ++i)
        tail[tail_blocks * 64 - 1 - i] =
            static_cast<std::uint8_t>(bits >> (8 * i));
    compressBlock(state, tail.data());
    if (tail_blocks == 2)
        compressBlock(state, tail.data() + 64);

    Sha256Digest digest;
    for (std::size_t i = 0; i < 8; ++i) {
        digest[i * 4] = static_cast<std::uint8_t>(state[i] >> 24);
        digest[i * 4 + 1] =
            static_cast<std::uint8_t>(state[i] >> 16);
        digest[i * 4 + 2] = static_cast<std::uint8_t>(state[i] >> 8);
        digest[i * 4 + 3] = static_cast<std::uint8_t>(state[i]);
    }
    return digest;
}

Sha256Digest
hmacSha256(const std::string &key, const void *data,
           std::size_t size)
{
    constexpr std::size_t kBlock = 64;
    std::array<std::uint8_t, kBlock> padded_key{};
    if (key.size() > kBlock) {
        const Sha256Digest hashed =
            sha256(key.data(), key.size());
        std::memcpy(padded_key.data(), hashed.data(),
                    hashed.size());
    } else {
        std::memcpy(padded_key.data(), key.data(), key.size());
    }

    std::vector<std::uint8_t> inner(kBlock + size);
    for (std::size_t i = 0; i < kBlock; ++i)
        inner[i] = padded_key[i] ^ 0x36;
    std::memcpy(inner.data() + kBlock, data, size);
    const Sha256Digest inner_hash =
        sha256(inner.data(), inner.size());

    std::array<std::uint8_t, kBlock + 32> outer{};
    for (std::size_t i = 0; i < kBlock; ++i)
        outer[i] = padded_key[i] ^ 0x5c;
    std::memcpy(outer.data() + kBlock, inner_hash.data(),
                inner_hash.size());
    return sha256(outer.data(), outer.size());
}

std::string
toHex(const Sha256Digest &digest)
{
    static const char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(digest.size() * 2);
    for (const std::uint8_t byte : digest) {
        out += kHex[byte >> 4];
        out += kHex[byte & 0x0f];
    }
    return out;
}

std::string
authProof(const std::string &token, const std::string &challenge,
          const std::string &name)
{
    const std::string message = challenge + name;
    return toHex(hmacSha256(token, message.data(), message.size()));
}

bool
constantTimeEquals(const std::string &a, const std::string &b)
{
    if (a.size() != b.size())
        return false;
    unsigned char acc = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc = static_cast<unsigned char>(
            acc | (static_cast<unsigned char>(a[i]) ^
                   static_cast<unsigned char>(b[i])));
    return acc == 0;
}

std::string
loadAuthToken(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read auth token file '" +
                                 path + "'");
    std::string token((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    while (!token.empty() &&
           (token.back() == '\n' || token.back() == '\r' ||
            token.back() == ' ' || token.back() == '\t'))
        token.pop_back();
    if (token.empty())
        throw std::runtime_error("auth token file '" + path +
                                 "' is empty");
    return token;
}

std::string
randomNonce()
{
    std::random_device device;
    static const char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(32);
    for (std::size_t i = 0; i < 4; ++i) {
        std::uint32_t word = device();
        for (std::size_t nibble = 0; nibble < 8; ++nibble) {
            out += kHex[word & 0x0f];
            word >>= 4;
        }
    }
    return out;
}

} // namespace rigor::exec::net
