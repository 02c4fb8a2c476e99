package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbserver"
)

func TestHelpExitsZero(t *testing.T) {
	t.Parallel()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exit = %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "-state") {
		t.Errorf("-h did not print the flags:\n%s", stderr.String())
	}
}

// TestRunWithStateFile drives the command against a loopback server
// three times over one -state file: a first run downloads and saves the
// database, a second restores it, and a run over a corrupt file starts
// fresh. Each run reports the blacklisted URL and the prefix it leaked.
func TestRunWithStateFile(t *testing.T) {
	t.Parallel()
	const list = "goog-malware-shavar"
	srv := sbserver.New()
	if err := srv.CreateList(list, "malware"); err != nil {
		t.Fatalf("CreateList: %v", err)
	}
	if err := srv.AddExpressions(list, []string{"evil.example/"}); err != nil {
		t.Fatalf("AddExpressions: %v", err)
	}
	ts := httptest.NewServer(sbserver.Handler(srv))
	defer ts.Close()
	state := filepath.Join(t.TempDir(), "sb.state")
	args := []string{"-server", ts.URL, "-lists", list, "-cookie", "smoke", "-state", state, "http://evil.example/attack"}
	leaked := "leaked to provider: [" + hashx.SumPrefix("evil.example/").String() + "]"

	runOnce := func(when string) (stdout, stderr string) {
		t.Helper()
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%s: exit %d\nstdout:\n%s\nstderr:\n%s", when, code, out.String(), errb.String())
		}
		for _, want := range []string{"http://evil.example/attack -> MALICIOUS", leaked} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: stdout lacks %q:\n%s", when, want, out.String())
			}
		}
		return out.String(), errb.String()
	}

	if out, _ := runOnce("first run"); strings.Contains(out, "restored local database") {
		t.Errorf("first run restored a database that was never saved:\n%s", out)
	}
	if fi, err := os.Stat(state); err != nil || fi.Size() == 0 {
		t.Fatalf("first run wrote no state: %v", err)
	}
	if out, _ := runOnce("second run"); !strings.Contains(out, "restored local database from "+state) {
		t.Errorf("second run did not restore the state:\n%s", out)
	}
	if err := os.WriteFile(state, []byte("SBST\x01 not a state file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, errOut := runOnce("corrupt state"); !strings.Contains(errOut, "(starting fresh)") {
		t.Errorf("corrupt state not reported as a fresh start:\n%s", errOut)
	}
}
