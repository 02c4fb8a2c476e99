package urlx

import "strings"

// _multiLabelSuffixes is a compact built-in set of common two-label public
// suffixes. The full Public Suffix List cannot be vendored under the
// stdlib-only constraint; this subset covers the registrable-domain
// extraction the tracking algorithm needs (the paper's get_domain, which
// "in most cases will be a Second-Level Domain").
var _multiLabelSuffixes = map[string]struct{}{
	"co.uk": {}, "org.uk": {}, "net.uk": {}, "ac.uk": {}, "gov.uk": {},
	"com.au": {}, "net.au": {}, "org.au": {},
	"co.jp": {}, "ne.jp": {}, "or.jp": {}, "ac.jp": {},
	"com.br": {}, "net.br": {}, "org.br": {},
	"com.cn": {}, "net.cn": {}, "org.cn": {},
	"co.in": {}, "net.in": {}, "org.in": {},
	"co.kr": {}, "co.nz": {}, "co.za": {},
	"com.mx": {}, "com.ar": {}, "com.tr": {},
}

// RegisteredDomain returns the registrable domain (second-level domain) of
// a hostname: the public suffix plus one label. IP addresses and hosts with
// fewer than two labels are returned unchanged. The result is always a
// suffix of host (a substring, no allocation).
func RegisteredDomain(host string) string {
	if isDottedQuad(host) {
		return host
	}
	last := strings.LastIndexByte(host, '.')
	if last < 0 {
		return host
	}
	second := strings.LastIndexByte(host[:last], '.')
	if second < 0 {
		return host
	}
	if _, ok := _multiLabelSuffixes[host[second+1:]]; ok {
		// Suffix plus one label; a three-label host has no dot left and
		// is its own registrable domain.
		return host[strings.LastIndexByte(host[:second], '.')+1:]
	}
	return host[second+1:]
}
