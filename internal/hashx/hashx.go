// Package hashx implements the digest and prefix primitives of the Safe
// Browsing protocol: full SHA-256 digests of canonicalized URL
// decompositions and their 32-bit prefixes.
//
// Google and Yandex Safe Browsing anonymize URLs by hashing
// (pseudonymization) followed by truncation (forced collisions). The
// protocol fixes the prefix length at 32 bits.
package hashx

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
