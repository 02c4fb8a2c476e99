package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/urlx"
	"sbprivacy/internal/wire"
)

// plantedList is the list that receives the planted URLs: the large
// malware list of the Google inventory.
const plantedList = "goog-malware-shavar"

// planted is one URL the benchmark blacklists on the server under test,
// with everything needed to check a full-hash answer for it.
type planted struct {
	url    string
	prefix hashx.Prefix
	digest hashx.Digest
}

// gethashInputs is the seeded request stream of the two HTTP workloads.
// Every request carries one planted prefix (a guaranteed server hit) and
// one random prefix (almost surely a miss), under one of a fixed pool of
// cookies, so the provider sees a realistic two-prefix probe.
type gethashInputs struct {
	planted []planted
	cookies []string
	// reqs[w] is worker w's ring of requests; want[w][i] indexes the
	// planted URL request i must be answered for.
	reqs [][]*wire.FullHashRequest
	want [][]int32
}

// genGethashInputs derives the whole request stream from seed: nPlanted
// URLs, nCookies client ids, and perWorker requests for each worker.
func genGethashInputs(seed int64, workers, nPlanted, nCookies, perWorker int) (*gethashInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &gethashInputs{
		planted: make([]planted, nPlanted),
		cookies: make([]string, nCookies),
		reqs:    make([][]*wire.FullHashRequest, workers),
		want:    make([][]int32, workers),
	}
	seen := make(map[hashx.Prefix]bool, nPlanted)
	for i := range in.planted {
		for {
			u := fmt.Sprintf("http://h%08x.bench-%d.example/p/%04x.html", rng.Uint32(), i%97, rng.Intn(1<<16))
			c, err := urlx.Canonicalize(u)
			if err != nil {
				return nil, fmt.Errorf("planted url %q: %w", u, err)
			}
			d := hashx.Sum(c.String())
			if seen[d.Prefix()] {
				continue // keep planted prefixes distinct so each has one answer
			}
			seen[d.Prefix()] = true
			in.planted[i] = planted{url: u, prefix: d.Prefix(), digest: d}
			break
		}
	}
	for i := range in.cookies {
		in.cookies[i] = fmt.Sprintf("c%04x%08x", i, rng.Uint32())
	}
	for w := range in.reqs {
		in.reqs[w] = make([]*wire.FullHashRequest, perWorker)
		in.want[w] = make([]int32, perWorker)
		for i := range in.reqs[w] {
			pi := rng.Intn(nPlanted)
			in.want[w][i] = int32(pi)
			in.reqs[w][i] = &wire.FullHashRequest{
				ClientID: in.cookies[rng.Intn(nCookies)],
				Prefixes: []hashx.Prefix{in.planted[pi].prefix, hashx.Prefix(rng.Uint32())},
			}
		}
	}
	return in, nil
}

// urls returns the planted URLs, the content of sbserver's -urls file.
func (in *gethashInputs) urls() []string {
	out := make([]string, len(in.planted))
	for i, p := range in.planted {
		out[i] = p.url
	}
	return out
}

// streamHash fingerprints the request stream: same seed, same hash.
func (in *gethashInputs) streamHash() string {
	h := sha256.New()
	var b [4]byte
	for w := range in.reqs {
		for _, r := range in.reqs[w] {
			h.Write([]byte(r.ClientID))
			for _, p := range r.Prefixes {
				binary.BigEndian.PutUint32(b[:], uint32(p))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkAnswer reports whether resp answers the planted URL: at least
// one entry whose digest is the planted digest (and so carries the
// planted prefix).
func (p *planted) checkAnswer(resp *wire.FullHashResponse) bool {
	if resp == nil {
		return false
	}
	for _, e := range resp.Entries {
		if e.Digest == p.digest && e.Digest.MatchesPrefix(p.prefix) {
			return true
		}
	}
	return false
}
