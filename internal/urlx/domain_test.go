package urlx

import "testing"

// TestRegisteredDomainTable pins RegisteredDomain's answers label by
// label, including the degenerate hosts (empty labels, lone dots) a
// byte-scanning implementation could plausibly get wrong.
func TestRegisteredDomainTable(t *testing.T) {
	t.Parallel()
	tests := []struct{ host, want string }{
		{"", ""},
		{"localhost", "localhost"},
		{"example.com", "example.com"},
		{"www.example.com", "example.com"},
		{"a.b.c.example.com", "example.com"},
		// A suffix only counts at the end of the host.
		{"co.uk.example.com", "example.com"},
		{"uk", "uk"},
		// Unknown two-label endings are not suffixes.
		{"www.example.co.xx", "co.xx"},
		// Empty labels are labels.
		{".", "."},
		{"a.", "a."},
		{".a", ".a"},
		{"..", "."},
		{"a..", "."},
		{"a..b", ".b"},
		{"a.b.", "b."},
		{".co.uk", ".co.uk"},
		{"..co.uk", ".co.uk"},
		{"x..co.uk", ".co.uk"},
		// Dotted quads are their own domain; near-quads are hostnames.
		{"1.2.3.4", "1.2.3.4"},
		{"0.0.0.0", "0.0.0.0"},
		{"255.255.255.255", "255.255.255.255"},
		{"256.1.1.1", "1.1"},
		{"01.2.3.4", "3.4"},
		{"1.2.3", "2.3"},
		{"1.2.3.4.5", "4.5"},
		{"1.2.3.", "3."},
		{"1..3.4", "3.4"},
		{"1.2.3.a", "3.a"},
	}
	for _, tc := range tests {
		if got := RegisteredDomain(tc.host); got != tc.want {
			t.Errorf("RegisteredDomain(%q) = %q, want %q", tc.host, got, tc.want)
		}
	}
	for suffix := range _multiLabelSuffixes {
		for host, want := range map[string]string{
			suffix:                 suffix,
			"shop." + suffix:       "shop." + suffix,
			"www.shop." + suffix:   "shop." + suffix,
			"a.www.shop." + suffix: "shop." + suffix,
		} {
			if got := RegisteredDomain(host); got != want {
				t.Errorf("RegisteredDomain(%q) = %q, want %q", host, got, want)
			}
		}
	}
}

func TestIsDottedQuad(t *testing.T) {
	t.Parallel()
	for host, want := range map[string]bool{
		"1.2.3.4":         true,
		"0.0.0.0":         true,
		"255.255.255.255": true,
		"10.0.200.9":      true,
		"256.1.1.1":       false,
		"1.1.1.256":       false,
		"1000.1.1.1":      false,
		"01.2.3.4":        false,
		"1.2.3.00":        false,
		"1.2.3":           false,
		"1.2.3.4.5":       false,
		"1.2.3.":          false,
		".1.2.3":          false,
		"1..2.3":          false,
		"1.2.3.4.":        false,
		"1.2.3.a":         false,
		"1.2.3.-4":        false,
		"":                false,
		"...":             false,
		"1234":            false,
	} {
		if got := isDottedQuad(host); got != want {
			t.Errorf("isDottedQuad(%q) = %v, want %v", host, got, want)
		}
	}
}

// TestRegisteredDomainNoAllocs holds the point of the byte scan: both
// functions answer with a substring of the host.
func TestRegisteredDomainNoAllocs(t *testing.T) {
	hosts := []string{"a.b.example.com", "www.example.co.uk", "10.0.200.9", "localhost"}
	if n := testing.AllocsPerRun(100, func() {
		for _, h := range hosts {
			_ = RegisteredDomain(h)
		}
	}); n != 0 {
		t.Errorf("RegisteredDomain: %.0f allocs per run, want 0", n)
	}
}
