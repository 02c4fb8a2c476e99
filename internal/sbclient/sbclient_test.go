package sbclient

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/prefixdb"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/wire"
)

const testList = "goog-malware-shavar"

type fixture struct {
	server *sbserver.Server
	client *Client
	clock  *fakeClock
}

type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func newFixture(t *testing.T, opts ...Option) *fixture {
	t.Helper()
	clock := &fakeClock{t: time.Unix(10000, 0)}
	srv := sbserver.New(sbserver.WithClock(clock.now))
	if err := srv.CreateList(testList, "malware"); err != nil {
		t.Fatalf("CreateList: %v", err)
	}
	opts = append([]Option{WithClock(clock.now), WithCookie("test-cookie")}, opts...)
	cl := New(LocalTransport{Server: srv}, []string{testList}, opts...)
	return &fixture{server: srv, client: cl, clock: clock}
}

func (f *fixture) blacklist(t *testing.T, exprs ...string) {
	t.Helper()
	if err := f.server.AddExpressions(testList, exprs); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	if err := f.client.Update(context.Background(), true); err != nil {
		t.Fatalf("Update: %v", err)
	}
}

// TestLookupFlowFigure3 walks the full client behaviour flow chart:
// database miss -> safe with no leak; hit -> full-hash round trip.
func TestLookupFlowFigure3(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	f.blacklist(t, "evil.example/attack.html")

	// Database miss: safe, nothing sent.
	v, err := f.client.CheckURL(context.Background(), "http://benign.example/page")
	if err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	if !v.Safe || len(v.SentPrefixes) != 0 || len(v.LocalHits) != 0 {
		t.Errorf("miss verdict = %+v", v)
	}
	if got := len(f.server.Probes()); got != 0 {
		t.Errorf("server saw %d probes after a miss", got)
	}

	// Hit: unsafe, exactly the matching decomposition prefix leaked.
	v, err = f.client.CheckURL(context.Background(), "http://evil.example/attack.html")
	if err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	if v.Safe {
		t.Fatal("blacklisted URL judged safe")
	}
	if len(v.Matches) != 1 || v.Matches[0].Expression != "evil.example/attack.html" {
		t.Errorf("matches = %+v", v.Matches)
	}
	if v.Matches[0].List != testList {
		t.Errorf("match list = %q", v.Matches[0].List)
	}
	wantPrefix := hashx.SumPrefix("evil.example/attack.html")
	if len(v.SentPrefixes) != 1 || v.SentPrefixes[0] != wantPrefix {
		t.Errorf("sent prefixes = %v, want [%v]", v.SentPrefixes, wantPrefix)
	}
	probes := f.server.Probes()
	if len(probes) != 1 || probes[0].ClientID != "test-cookie" {
		t.Errorf("probes = %+v", probes)
	}
}

// TestFalsePositivePrefix: a URL whose decomposition shares a prefix with
// a blacklisted URL triggers the round trip but is judged safe — the
// false positive path of Figure 3.
func TestFalsePositivePrefix(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	// Blacklist a digest that shares its prefix with benign.example/'s
	// digest but differs in the tail.
	d := hashx.Sum("benign.example/")
	d[31] ^= 0x01
	if err := f.server.AddDigests(testList, []hashx.Digest{d}); err != nil {
		t.Fatalf("AddDigests: %v", err)
	}
	if err := f.client.Update(context.Background(), true); err != nil {
		t.Fatalf("Update: %v", err)
	}

	v, err := f.client.CheckURL(context.Background(), "http://benign.example/")
	if err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	if !v.Safe {
		t.Error("false positive judged unsafe")
	}
	if len(v.LocalHits) != 1 {
		t.Errorf("local hits = %+v, want 1", v.LocalHits)
	}
	if len(v.SentPrefixes) != 1 {
		t.Errorf("sent prefixes = %v: false positive must still query", v.SentPrefixes)
	}
}

// TestMultiPrefixLeak reproduces the paper's multi-prefix scenario
// (Section 7.3): a URL with several blacklisted decompositions reveals
// several prefixes at once.
func TestMultiPrefixLeak(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	f.blacklist(t, "fr.xhamster.com/", "xhamster.com/")

	v, err := f.client.CheckURL(context.Background(), "http://fr.xhamster.com/user/video")
	if err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	if v.Safe {
		t.Fatal("blacklisted domain judged safe")
	}
	if len(v.SentPrefixes) != 2 {
		t.Fatalf("sent %d prefixes, want 2: %v", len(v.SentPrefixes), v.SentPrefixes)
	}
	// The two leaked prefixes are the paper's Table 12 values.
	want := map[hashx.Prefix]bool{0xe4fdd86c: true, 0x3074e021: true}
	for _, p := range v.SentPrefixes {
		if !want[p] {
			t.Errorf("unexpected prefix %v", p)
		}
	}
}

func TestFullHashCache(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	f.blacklist(t, "evil.example/")

	ctx := context.Background()
	if _, err := f.client.CheckURL(ctx, "http://evil.example/"); err != nil {
		t.Fatalf("CheckURL 1: %v", err)
	}
	v, err := f.client.CheckURL(ctx, "http://evil.example/")
	if err != nil {
		t.Fatalf("CheckURL 2: %v", err)
	}
	if !v.FromCache || len(v.SentPrefixes) != 0 {
		t.Errorf("second lookup not served from cache: %+v", v)
	}
	if v.Safe {
		t.Error("cached lookup lost the match")
	}
	if v.Matches[0].List != testList {
		t.Errorf("cached match lost its list: %+v", v.Matches[0])
	}
	if got := len(f.server.Probes()); got != 1 {
		t.Errorf("server saw %d probes, want 1 (cache must absorb the second)", got)
	}

	// Cache expires after the server-granted lifetime.
	f.clock.advance(time.Duration(sbserver.DefaultCacheSeconds+1) * time.Second)
	v, err = f.client.CheckURL(ctx, "http://evil.example/")
	if err != nil {
		t.Fatalf("CheckURL 3: %v", err)
	}
	if v.FromCache {
		t.Error("expired cache still answering")
	}
	if got := len(f.server.Probes()); got != 2 {
		t.Errorf("server saw %d probes, want 2 after expiry", got)
	}

	stats := f.client.Stats()
	if stats.CacheHits != 1 || stats.FullHashRequests != 2 || stats.Lookups != 3 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestUpdatePacing(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	ctx := context.Background()
	if err := f.client.Update(ctx, false); err != nil {
		t.Fatalf("first Update: %v", err)
	}
	if err := f.client.Update(ctx, false); !errors.Is(err, ErrUpdateTooSoon) {
		t.Errorf("premature Update: err = %v, want ErrUpdateTooSoon", err)
	}
	if err := f.client.Update(ctx, true); err != nil {
		t.Errorf("forced Update: %v", err)
	}
	f.clock.advance(time.Duration(sbserver.DefaultMinWaitSeconds+1) * time.Second)
	if err := f.client.Update(ctx, false); err != nil {
		t.Errorf("post-wait Update: %v", err)
	}
}

func TestUpdateAppliesSubChunks(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	f.blacklist(t, "evil.example/")
	if f.client.LocalPrefixCount(testList) != 1 {
		t.Fatalf("prefix count = %d", f.client.LocalPrefixCount(testList))
	}
	if err := f.server.RemoveExpressions(testList, []string{"evil.example/"}); err != nil {
		t.Fatalf("RemoveExpressions: %v", err)
	}
	if err := f.client.Update(context.Background(), true); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if f.client.LocalPrefixCount(testList) != 0 {
		t.Errorf("prefix count after sub = %d, want 0", f.client.LocalPrefixCount(testList))
	}
	v, err := f.client.CheckURL(context.Background(), "http://evil.example/")
	if err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	if !v.Safe || len(v.SentPrefixes) != 0 {
		t.Errorf("delisted URL verdict = %+v", v)
	}
}

// heldTransport holds the first Download's response until release is
// closed, after telling downloaded that the server has answered.
type heldTransport struct {
	Transport
	downloaded, release chan struct{}
	calls               atomic.Int32
}

func (h *heldTransport) Download(ctx context.Context, req *wire.DownloadRequest) (*wire.DownloadResponse, error) {
	resp, err := h.Transport.Download(ctx, req)
	if h.calls.Add(1) == 1 {
		close(h.downloaded)
		<-h.release
	}
	return resp, err
}

// TestStaleDownloadDoesNotOverwriteNewer overlaps two Updates: A
// downloads chunk 1 (add p), the server appends chunk 2 (sub p), and B
// downloads and applies both before A applies its response. A's chunk
// 1 is then stale and must not bring p back: a client that kept it
// would believe itself at chunk 2 and never fetch the sub again.
func TestStaleDownloadDoesNotOverwriteNewer(t *testing.T) {
	t.Parallel()
	srv := sbserver.New()
	if err := srv.CreateList(testList, "malware"); err != nil {
		t.Fatalf("CreateList: %v", err)
	}
	if err := srv.AddExpressions(testList, []string{"evil.example/"}); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	held := &heldTransport{
		Transport:  LocalTransport{Server: srv},
		downloaded: make(chan struct{}),
		release:    make(chan struct{}),
	}
	released := false
	release := func() {
		if !released {
			released = true
			close(held.release)
		}
	}
	defer release() // a failing test must not leave A blocked
	c := New(held, []string{testList})
	ctx := context.Background()

	errA := make(chan error, 1)
	go func() { errA <- c.Update(ctx, true) }()
	<-held.downloaded
	if err := srv.RemoveExpressions(testList, []string{"evil.example/"}); err != nil {
		t.Fatalf("RemoveExpressions: %v", err)
	}
	if err := c.Update(ctx, true); err != nil {
		t.Fatalf("Update B: %v", err)
	}
	release()
	if err := <-errA; err != nil {
		t.Fatalf("Update A: %v", err)
	}
	held1 := c.LocalPrefixCount(testList)
	if err := c.Update(ctx, true); err != nil {
		t.Fatalf("Update: %v", err)
	}
	want, err := srv.PrefixesOf(testList)
	if err != nil {
		t.Fatalf("PrefixesOf: %v", err)
	}
	if got := c.LocalPrefixCount(testList); held1 != len(want) || got != len(want) {
		t.Errorf("client holds %d prefixes (after one more update %d); server's live set has %d",
			held1, got, len(want))
	}
}

// TestUpdateDiscardsCache: the paper notes full digests are stored until
// an update discards them.
func TestUpdateDiscardsCache(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	f.blacklist(t, "evil.example/")
	ctx := context.Background()
	if _, err := f.client.CheckURL(ctx, "http://evil.example/"); err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	if err := f.client.Update(ctx, true); err != nil {
		t.Fatalf("Update: %v", err)
	}
	v, err := f.client.CheckURL(ctx, "http://evil.example/")
	if err != nil {
		t.Fatalf("CheckURL: %v", err)
	}
	if v.FromCache {
		t.Error("cache survived an update")
	}
}

func TestStoreFactoryOptions(t *testing.T) {
	t.Parallel()
	factories := map[string]StoreFactory{
		"delta":   func() prefixdb.Updatable { return prefixdb.NewDeltaStore(nil) },
		"wrapped": func() prefixdb.Updatable { return wrappedStore{prefixdb.NewDeltaStore(nil)} },
	}
	for name, factory := range factories {
		f := newFixture(t, WithStoreFactory(factory))
		f.blacklist(t, "evil.example/")
		v, err := f.client.CheckURL(context.Background(), "http://evil.example/")
		if err != nil {
			t.Fatalf("%s: CheckURL: %v", name, err)
		}
		if v.Safe {
			t.Errorf("%s: blacklisted URL judged safe", name)
		}
		if f.client.LocalSizeBytes() <= 0 {
			t.Errorf("%s: LocalSizeBytes = %d", name, f.client.LocalSizeBytes())
		}
	}
}

func TestCheckURLInvalid(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	if _, err := f.client.CheckURL(context.Background(), ""); err == nil {
		t.Error("CheckURL(\"\"): want error")
	}
}

func TestContextCancellation(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	f.blacklist(t, "evil.example/")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.client.CheckURL(ctx, "http://evil.example/"); err == nil {
		t.Error("cancelled context: want error")
	}
	if err := f.client.Update(ctx, true); err == nil {
		t.Error("cancelled Update: want error")
	}
}

// TestHTTPEndToEnd runs the whole stack over real HTTP: server handler,
// binary wire format, client transport.
func TestHTTPEndToEnd(t *testing.T) {
	t.Parallel()
	srv := sbserver.New()
	if err := srv.CreateList(testList, "malware"); err != nil {
		t.Fatalf("CreateList: %v", err)
	}
	if err := srv.AddExpressions(testList, []string{"evil.example/attack", "xhamster.com/"}); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	ts := httptest.NewServer(sbserver.Handler(srv))
	defer ts.Close()

	cl := New(HTTPTransport{BaseURL: ts.URL, Client: ts.Client()}, []string{testList},
		WithCookie("http-cookie"))
	ctx := context.Background()
	if err := cl.Update(ctx, true); err != nil {
		t.Fatalf("Update over HTTP: %v", err)
	}
	if cl.LocalPrefixCount(testList) != 2 {
		t.Fatalf("prefix count = %d, want 2", cl.LocalPrefixCount(testList))
	}

	v, err := cl.CheckURL(ctx, "http://evil.example/attack")
	if err != nil {
		t.Fatalf("CheckURL over HTTP: %v", err)
	}
	if v.Safe {
		t.Error("blacklisted URL judged safe over HTTP")
	}
	v, err = cl.CheckURL(ctx, "http://safe.example/")
	if err != nil {
		t.Fatalf("CheckURL over HTTP: %v", err)
	}
	if !v.Safe {
		t.Error("clean URL judged unsafe over HTTP")
	}
	probes := srv.Probes()
	if len(probes) != 1 || probes[0].ClientID != "http-cookie" {
		t.Errorf("probes = %+v", probes)
	}
}

func TestHTTPTransportErrors(t *testing.T) {
	t.Parallel()
	tr := HTTPTransport{BaseURL: "http://127.0.0.1:1"} // closed port
	_, err := tr.FullHashes(context.Background(), &wire.FullHashRequest{
		ClientID: "c",
		Prefixes: []hashx.Prefix{1},
	})
	if err == nil {
		t.Error("unreachable server: want error")
	}
	_, err = tr.Download(context.Background(), &wire.DownloadRequest{ClientID: "c"})
	if err == nil {
		t.Error("unreachable server download: want error")
	}
	_, err = tr.FullHashesBatch(context.Background(), []*wire.FullHashRequest{{ClientID: "c"}})
	if err == nil {
		t.Error("unreachable server batch: want error")
	}
}

// TestTransportsBatchAgree: LocalTransport and HTTPTransport return the
// same batch responses the sequential API would, over the batch wire
// path.
func TestTransportsBatchAgree(t *testing.T) {
	t.Parallel()
	srv := sbserver.New()
	if err := srv.CreateList(testList, "malware"); err != nil {
		t.Fatalf("CreateList: %v", err)
	}
	if err := srv.AddExpressions(testList, []string{"evil.example/", "bad.example/"}); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	ts := httptest.NewServer(sbserver.Handler(srv))
	defer ts.Close()

	reqs := []*wire.FullHashRequest{
		{ClientID: "c1", Prefixes: []hashx.Prefix{hashx.SumPrefix("evil.example/")}},
		{ClientID: "c2", Prefixes: []hashx.Prefix{hashx.SumPrefix("bad.example/"), 7}},
	}
	ctx := context.Background()
	local, err := LocalTransport{Server: srv}.FullHashesBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("local batch: %v", err)
	}
	remote, err := HTTPTransport{BaseURL: ts.URL, Client: ts.Client()}.FullHashesBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("http batch: %v", err)
	}
	if len(local) != len(reqs) || len(remote) != len(reqs) {
		t.Fatalf("batch sizes: local=%d remote=%d", len(local), len(remote))
	}
	for i := range reqs {
		if len(local[i].Entries) != len(remote[i].Entries) {
			t.Errorf("req %d: local %d entries, remote %d", i, len(local[i].Entries), len(remote[i].Entries))
			continue
		}
		for j := range local[i].Entries {
			if local[i].Entries[j] != remote[i].Entries[j] {
				t.Errorf("req %d entry %d: %+v vs %+v", i, j, local[i].Entries[j], remote[i].Entries[j])
			}
		}
	}
	if got := len(srv.Probes()); got != 2*len(reqs) {
		t.Errorf("probes = %d, want %d (one per request per transport)", got, 2*len(reqs))
	}

	// Oversized batches are split into wire-sized frames transparently.
	big := make([]*wire.FullHashRequest, wire.MaxBatchRequests+37)
	for i := range big {
		big[i] = &wire.FullHashRequest{
			ClientID: "bulk",
			Prefixes: []hashx.Prefix{hashx.SumPrefix("evil.example/")},
		}
	}
	resps, err := HTTPTransport{BaseURL: ts.URL, Client: ts.Client()}.FullHashesBatch(ctx, big)
	if err != nil {
		t.Fatalf("oversized http batch: %v", err)
	}
	if len(resps) != len(big) {
		t.Fatalf("oversized batch responses = %d, want %d", len(resps), len(big))
	}
	for i, r := range resps {
		if len(r.Entries) != 1 {
			t.Fatalf("oversized batch resp[%d] entries = %d", i, len(r.Entries))
		}
	}
}
