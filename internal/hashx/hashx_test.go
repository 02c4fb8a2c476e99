package hashx

import (
	"testing"
	"testing/quick"
)

// TestPaperPrefixVectors pins the digest format against the 32-bit prefixes
// printed in the paper (Tables 4 and 12). These are real SHA-256 values of
// canonicalized decompositions, so they validate both the hash input format
// (no scheme/user/port) and the big-endian prefix extraction.
func TestPaperPrefixVectors(t *testing.T) {
	t.Parallel()
	vectors := []struct {
		decomposition string
		want          Prefix
	}{
		{"petsymposium.org/2016/cfp.php", 0xe70ee6d1},
		{"petsymposium.org/2016/", 0x1d13ba6a},
		{"petsymposium.org/", 0x33a02ef5},
		{"17buddies.net/wp/cs_sub_7-2.pwf", 0x18366658},
		{"17buddies.net/wp/", 0x77c1098b},
		{"1001cartes.org/tag/emergency-issues", 0xab5140c7},
		{"1001cartes.org/tag/", 0xc73e0d7b},
		{"www.1ptv.ru/", 0xf90449d7},
		{"1ptv.ru/menu/", 0xb15dbc15},
		{"fr.xhamster.com/", 0xe4fdd86c},
		{"nl.xhamster.com/", 0xa95055ff},
		{"xhamster.com/", 0x3074e021},
		{"m.wickedpictures.com/", 0x7ee8c0cc},
		{"wickedpictures.com/", 0xa7962038},
		{"m.mofos.com/", 0x6e961650},
		{"mofos.com/", 0x00354501},
		{"mobile.teenslovehugecocks.com/", 0x585667a5},
		{"teenslovehugecocks.com/", 0x92824b5c},
	}
	for _, tc := range vectors {
		if got := SumPrefix(tc.decomposition); got != tc.want {
			t.Errorf("SumPrefix(%q) = %v, want %v", tc.decomposition, got, tc.want)
		}
	}
}

func TestDigestPrefixConsistency(t *testing.T) {
	t.Parallel()
	d := Sum("example.com/")
	p := d.Prefix()
	if !d.MatchesPrefix(p) {
		t.Fatalf("digest does not match its own prefix")
	}
	b := p.Bytes()
	for i := 0; i < PrefixSize; i++ {
		if b[i] != d[i] {
			t.Errorf("prefix byte %d = %02x, want digest byte %02x", i, b[i], d[i])
		}
	}
}

func TestPrefixString(t *testing.T) {
	t.Parallel()
	tests := []struct {
		p    Prefix
		want string
	}{
		{0xe70ee6d1, "0xe70ee6d1"},
		{0x00354501, "0x00354501"},
		{0, "0x00000000"},
		{0xffffffff, "0xffffffff"},
	}
	for _, tc := range tests {
		if got := tc.p.String(); got != tc.want {
			t.Errorf("Prefix(%d).String() = %q, want %q", uint32(tc.p), got, tc.want)
		}
	}
}

func TestPrefixFromBytes(t *testing.T) {
	t.Parallel()
	p := Prefix(0xdeadbeef)
	b := p.Bytes()
	got, err := PrefixFromBytes(b[:])
	if err != nil {
		t.Fatalf("PrefixFromBytes: %v", err)
	}
	if got != p {
		t.Fatalf("PrefixFromBytes(%x) = %v, want %v", b, got, p)
	}
	if _, err := PrefixFromBytes([]byte{1, 2, 3}); err == nil {
		t.Error("PrefixFromBytes(3 bytes): want error, got nil")
	}
	if _, err := PrefixFromBytes(nil); err == nil {
		t.Error("PrefixFromBytes(nil): want error, got nil")
	}
}

// TestPrefixRoundTripProperty checks Bytes/PrefixFromBytes are inverses
// for arbitrary prefixes.
func TestPrefixRoundTripProperty(t *testing.T) {
	t.Parallel()
	f := func(v uint32) bool {
		p := Prefix(v)
		b := p.Bytes()
		q, err := PrefixFromBytes(b[:])
		return err == nil && q == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSumDeterminism: hashing is a pure function and distinct inputs give
// distinct digests (for this sample, SHA-256 collisions are unobservable).
func TestSumDeterminism(t *testing.T) {
	t.Parallel()
	f := func(s string) bool {
		return Sum(s) == Sum(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Sum("a.example/") == Sum("b.example/") {
		t.Error("distinct inputs produced identical digests")
	}
}
