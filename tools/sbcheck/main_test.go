package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWaiverBudgetIsAnEquality: the budget file must name the live
// count exactly. More waivers than the line is unreviewed growth; fewer
// is a stale line that would let the difference back in unnoticed.
func TestWaiverBudgetIsAnEquality(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "lint-waivers.txt")
	budget := "# comment\n\nctxflow 1\nflusherr 0\nlockscope 13\n"
	if err := os.WriteFile(path, []byte(budget), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		waivers map[string]int
		want    []string // one substring per expected problem, in order
	}{
		{"equal", map[string]int{"ctxflow": 1, "lockscope": 13}, nil},
		{"grown", map[string]int{"ctxflow": 1, "lockscope": 14},
			[]string{"14 sbcheck:ignore lockscope waiver(s), budget allows 13"}},
		{"stale", map[string]int{"ctxflow": 1, "lockscope": 11},
			[]string{"found 11 sbcheck:ignore lockscope waiver(s), budget says 13: lower the file"}},
		{"stale with no live waiver", map[string]int{"lockscope": 13},
			[]string{"found 0 sbcheck:ignore ctxflow waiver(s), budget says 1: lower the file"}},
		{"analyzer missing from the file", map[string]int{"ctxflow": 1, "hotalloc": 2, "lockscope": 13},
			[]string{"2 sbcheck:ignore hotalloc waiver(s), budget allows 0"}},
	} {
		got := checkWaiverBudget(path, tc.waivers)
		if len(got) != len(tc.want) {
			t.Errorf("%s: problems = %q, want %d", tc.name, got, len(tc.want))
			continue
		}
		for i, sub := range tc.want {
			if !strings.Contains(got[i], sub) {
				t.Errorf("%s: problem %d = %q, want it to contain %q", tc.name, i, got[i], sub)
			}
		}
	}
}
