// Package hashx implements the digest and prefix primitives of the Safe
// Browsing protocol: full SHA-256 digests of canonicalized URL
// decompositions and their truncated l-bit prefixes.
//
// Google and Yandex Safe Browsing anonymize URLs by hashing
// (pseudonymization) followed by truncation (forced collisions). The
// protocol fixes the prefix length at 32 bits; this package additionally
// supports arbitrary truncation lengths so that the privacy analysis of
// the paper (Tables 2 and 5) can sweep the prefix size.
package hashx

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
)

// DigestSize is the size in bytes of a full SHA-256 digest.
const DigestSize = sha256.Size

// PrefixSize is the size in bytes of the standard Safe Browsing prefix.
const PrefixSize = 4

// Digest is a full SHA-256 digest of a canonicalized URL decomposition.
type Digest [DigestSize]byte

// Prefix is the standard 32-bit Safe Browsing prefix: the first four bytes
// of a Digest. It is the unit of information a client reveals to the
// server on a local-database hit.
type Prefix uint32

// ErrBadPrefixLen reports an unsupported truncation length.
var ErrBadPrefixLen = errors.New("hashx: prefix length must be a multiple of 8 in [8, 256]")

// Sum returns the full SHA-256 digest of a canonicalized decomposition
// string, e.g. "petsymposium.org/2016/cfp.php". The input must not include
// a scheme, username, password or port; see package urlx.
func Sum(decomposition string) Digest {
	return Digest(sha256.Sum256([]byte(decomposition)))
}

// SumPrefix returns the 32-bit prefix of the SHA-256 digest of a
// canonicalized decomposition string.
func SumPrefix(decomposition string) Prefix {
	return Sum(decomposition).Prefix()
}

// Prefix returns the standard 32-bit prefix of the digest.
//
// The prefix preserves the big-endian byte order of the digest: the paper's
// example prefix 0xe70ee6d1 corresponds to a digest starting with bytes
// e7 0e e6 d1.
func (d Digest) Prefix() Prefix {
	return Prefix(binary.BigEndian.Uint32(d[:PrefixSize]))
}

// Truncate returns the first bits/8 bytes of the digest. It returns
// ErrBadPrefixLen if bits is not a multiple of 8 in [8, 256].
func (d Digest) Truncate(bits int) ([]byte, error) {
	if bits < 8 || bits > 256 || bits%8 != 0 {
		return nil, fmt.Errorf("%w: got %d", ErrBadPrefixLen, bits)
	}
	out := make([]byte, bits/8)
	copy(out, d[:])
	return out, nil
}

// String returns the digest as lowercase hex.
func (d Digest) String() string {
	return hex.EncodeToString(d[:])
}

// MatchesPrefix reports whether the digest's 32-bit prefix equals p.
func (d Digest) MatchesPrefix(p Prefix) bool {
	return d.Prefix() == p
}

// String formats the prefix in the paper's 0xdeadbeef notation.
func (p Prefix) String() string {
	return fmt.Sprintf("0x%08x", uint32(p))
}

// Bytes returns the prefix as its 4 big-endian bytes, matching the leading
// bytes of the originating digest.
func (p Prefix) Bytes() [PrefixSize]byte {
	var b [PrefixSize]byte
	binary.BigEndian.PutUint32(b[:], uint32(p))
	return b
}

// PrefixFromBytes reconstructs a Prefix from its big-endian byte form.
// It returns an error if b is not exactly PrefixSize bytes.
func PrefixFromBytes(b []byte) (Prefix, error) {
	if len(b) != PrefixSize {
		return 0, fmt.Errorf("hashx: prefix must be %d bytes, got %d", PrefixSize, len(b))
	}
	return Prefix(binary.BigEndian.Uint32(b)), nil
}

// ParseDigest parses a 64-character hex string into a Digest.
func ParseDigest(s string) (Digest, error) {
	var d Digest
	raw, err := hex.DecodeString(s)
	if err != nil {
		return d, fmt.Errorf("hashx: parse digest: %w", err)
	}
	if len(raw) != DigestSize {
		return d, fmt.Errorf("hashx: digest must be %d bytes, got %d", DigestSize, len(raw))
	}
	copy(d[:], raw)
	return d, nil
}

// ParsePrefix parses a prefix in 0xdeadbeef or deadbeef hex notation.
func ParsePrefix(s string) (Prefix, error) {
	if len(s) >= 2 && (s[:2] == "0x" || s[:2] == "0X") {
		s = s[2:]
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return 0, fmt.Errorf("hashx: parse prefix: %w", err)
	}
	return PrefixFromBytes(raw)
}
