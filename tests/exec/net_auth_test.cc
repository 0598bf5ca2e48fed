/**
 * The hand-written crypto under the fleet handshake, validated
 * against published vectors: SHA-256 against the FIPS 180-4 / RFC
 * 6234 examples, HMAC-SHA256 against the RFC 4231 test cases
 * (including the >64-byte key case that exercises the key-hashing
 * path). A home-grown digest that merely "looks random" is worthless
 * as an authenticator; matching the vectors is the whole guarantee.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "exec/net/auth.hh"

namespace net = rigor::exec::net;

namespace
{

std::string
sha256Hex(const std::string &message)
{
    return net::toHex(net::sha256(message.data(), message.size()));
}

std::string
hmacHex(const std::string &key, const std::string &message)
{
    return net::toHex(
        net::hmacSha256(key, message.data(), message.size()));
}

} // namespace

TEST(NetAuth, Sha256MatchesFipsVectors)
{
    EXPECT_EQ(sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(sha256Hex("abcdbcdecdefdefgefghfghighijhijk"
                        "ijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
    // One-million 'a's: exercises many compression rounds and the
    // length-in-bits tail across block boundaries.
    EXPECT_EQ(sha256Hex(std::string(1000000, 'a')),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST(NetAuth, HmacSha256MatchesRfc4231Vectors)
{
    // RFC 4231 test case 1.
    EXPECT_EQ(hmacHex(std::string(20, '\x0b'), "Hi There"),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
    // Test case 2: a key shorter than the block size.
    EXPECT_EQ(hmacHex("Jefe", "what do ya want for nothing?"),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
    // Test case 3: 0xaa*20 key, 0xdd*50 data.
    EXPECT_EQ(hmacHex(std::string(20, '\xaa'),
                      std::string(50, '\xdd')),
              "773ea91e36800e46854db8ebd09181a7"
              "2959098b3ef8c122d9635514ced565fe");
    // Test case 6: a 131-byte key, longer than the SHA-256 block —
    // HMAC must hash the key down first.
    EXPECT_EQ(hmacHex(std::string(131, '\xaa'),
                      "Test Using Larger Than Block-Size Key - "
                      "Hash Key First"),
              "60e431591ee0b67f0d8a26aacbf5b77f"
              "8e0bc6213728c5140546040f0ee37f54");
    // Test case 7: long key and long data together.
    EXPECT_EQ(hmacHex(std::string(131, '\xaa'),
                      "This is a test using a larger than "
                      "block-size key and a larger than "
                      "block-size data. The key needs to be "
                      "hashed before being used by the HMAC "
                      "algorithm."),
              "9b09ffa71b942fcb27635fbcd5b0e944"
              "bfdc63644f0713938a7f51535c3a35e2");
}

TEST(NetAuth, AuthProofCoversEveryFieldOfTheChallenge)
{
    const std::string base = net::authProof("token", "nonce", "worker");
    EXPECT_EQ(base.size(), 64u);
    // Any field changing changes the proof: the HMAC binds the
    // token, the fresh nonce, and the worker name.
    EXPECT_NE(base, net::authProof("other", "nonce", "worker"));
    EXPECT_NE(base, net::authProof("token", "nonc2", "worker"));
    EXPECT_NE(base, net::authProof("token", "nonce", "worke2"));
    // Deterministic: both ends compute the same proof.
    EXPECT_EQ(base, net::authProof("token", "nonce", "worker"));
}

TEST(NetAuth, ConstantTimeEqualsComparesCorrectly)
{
    EXPECT_TRUE(net::constantTimeEquals("", ""));
    EXPECT_TRUE(net::constantTimeEquals("abc", "abc"));
    EXPECT_FALSE(net::constantTimeEquals("abc", "abd"));
    EXPECT_FALSE(net::constantTimeEquals("abc", "ab"));
    EXPECT_FALSE(net::constantTimeEquals("", "x"));
}

TEST(NetAuth, LoadAuthTokenStripsTrailingWhitespaceOnly)
{
    const std::string path = ::testing::TempDir() + "fleet.token";
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "  s3cret token\n";
    }
    // Leading spaces are part of the token; the trailing newline
    // (from `echo secret > file`) is not.
    EXPECT_EQ(net::loadAuthToken(path), "  s3cret token");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "\n \t \n";
    }
    EXPECT_THROW(net::loadAuthToken(path), std::runtime_error);
    std::remove(path.c_str());
    EXPECT_THROW(net::loadAuthToken(path), std::runtime_error);
}

TEST(NetAuth, RandomNonceIsFreshAndWellFormed)
{
    std::set<std::string> seen;
    for (int i = 0; i < 64; ++i) {
        const std::string nonce = net::randomNonce();
        ASSERT_EQ(nonce.size(), 32u);
        for (char c : nonce)
            ASSERT_TRUE((c >= '0' && c <= '9') ||
                        (c >= 'a' && c <= 'f'))
                << nonce;
        seen.insert(nonce);
    }
    // 64 draws from a 128-bit space: any collision means the nonce
    // stream is broken (and replay defense with it).
    EXPECT_EQ(seen.size(), 64u);
}
