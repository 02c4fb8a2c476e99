package wire_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/wire"
)

// FuzzDownloadResponse holds DecodeDownloadResponse to hostile bytes.
// The decoder reads both a server's list update and the client's state
// file (sbclient.SaveState writes a DownloadResponse), so the seeds are
// one of each. On any input it must not panic, and whatever it accepts
// must survive re-encoding: decode(encode(decode(b))) == decode(b).
func FuzzDownloadResponse(f *testing.F) {
	multi := wire.DownloadResponse{MinWaitSeconds: 1800, Chunks: []wire.Chunk{
		{List: "goog-malware-shavar", Num: 1, Type: wire.ChunkAdd, Prefixes: []hashx.Prefix{hashx.SumPrefix("evil.example/"), hashx.SumPrefix("bad.example/")}},
		{List: "goog-malware-shavar", Num: 2, Type: wire.ChunkSub, Prefixes: []hashx.Prefix{hashx.SumPrefix("bad.example/")}},
		{List: "googpub-phish-shavar", Num: 1, Type: wire.ChunkAdd, Prefixes: []hashx.Prefix{hashx.SumPrefix("phish.example/login")}},
	}}
	var seed bytes.Buffer
	if err := multi.Encode(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(saveStateSeed(f))

	f.Fuzz(func(t *testing.T, b []byte) {
		first, err := wire.DecodeDownloadResponse(bytes.NewReader(b))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := first.Encode(&enc); err != nil {
			t.Fatalf("Encode of a decoded response: %v", err)
		}
		second, err := wire.DecodeDownloadResponse(&enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("re-decoded response differs:\n%+v\n%+v", first, second)
		}
	})
}

// saveStateSeed returns the state file of a client synced with two
// lists from an in-process server.
func saveStateSeed(f *testing.F) []byte {
	lists := []string{"goog-malware-shavar", "googpub-phish-shavar"}
	srv := sbserver.New()
	for _, l := range lists {
		if err := srv.CreateList(l, l); err != nil {
			f.Fatal(err)
		}
	}
	if err := srv.AddExpressions(lists[0], []string{"evil.example/", "bad.example/page.html"}); err != nil {
		f.Fatal(err)
	}
	if err := srv.AddExpressions(lists[1], []string{"phish.example/login"}); err != nil {
		f.Fatal(err)
	}
	c := sbclient.New(sbclient.LocalTransport{Server: srv}, lists)
	if err := c.Update(context.Background(), true); err != nil {
		f.Fatal(err)
	}
	var state bytes.Buffer
	if err := c.SaveState(&state); err != nil {
		f.Fatal(err)
	}
	return state.Bytes()
}
