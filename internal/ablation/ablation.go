//sbcheck:deterministic

// Package ablation is the mitigation ablation lab: it reruns one
// seeded campaign under a grid of client-side privacy policies — the
// paper's Section 8 countermeasures — and emits a comparable
// privacy-vs-utility report.
//
// Every grid cell replays the *same* deterministic campaign (same
// world, same users, same visits at the same virtual times) with a
// different sbclient.QueryPolicy installed on every client, into its
// own probe store. The provider-side analyses (re-identification and
// day-over-day linkage, the two stages of one unbounded
// stream.Pipeline) then score each cell against the campaign's ground
// truth, and the report places the privacy deltas next to the overhead
// each mitigation cost: extra prefixes, extra requests, wire bytes,
// withheld lookups and consent prompts. This is the instrument for the paper's central quantitative
// question about its own countermeasures: how much privacy does each
// one buy, and at what price?
//
// Dummy-padded cells are additionally scored against an informed
// provider that drops prefixes unknown to its web index before
// analyzing — the paper's Section 8 observation that deterministic
// dummies do not survive an index-equipped adversary, quantified.
package ablation

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"sbprivacy/internal/core"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/mitigation"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/stream"
	"sbprivacy/internal/workload"
)

// PolicyKind names a cell's client-side policy family.
type PolicyKind int

// The policy families of the grid.
const (
	// PolicyBaseline is the vanilla client: every real prefix in one
	// request, no padding, no withholding.
	PolicyBaseline PolicyKind = iota
	// PolicyDummy pads every request with DummyK deterministic dummies
	// per real prefix (Firefox's countermeasure).
	PolicyDummy
	// PolicyOnePrefix queries one prefix at a time: root first, the
	// rest only behind the Type I / consent gate (the paper's proposal).
	PolicyOnePrefix
)

// String names the policy kind.
func (k PolicyKind) String() string {
	switch k {
	case PolicyBaseline:
		return "baseline"
	case PolicyDummy:
		return "dummy"
	case PolicyOnePrefix:
		return "one-prefix"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// Cell is one grid point: a named client-side policy configuration.
type Cell struct {
	// Name labels the cell in the report.
	Name string
	// Kind selects the policy family.
	Kind PolicyKind
	// DummyK is the dummies-per-real-prefix knob (PolicyDummy; also
	// pads PolicyOnePrefix stages when nonzero).
	DummyK int
	// ConsentAllow scripts the consent oracle's answer for
	// PolicyOnePrefix cells: true consents to every exact-URL leak,
	// false declines every prompt.
	ConsentAllow bool
}

// DefaultGrid is the acceptance grid: the baseline and the paper's
// countermeasures at their interesting settings — light and heavy
// dummy padding, and one-prefix-at-a-time with a declining and a
// consenting user.
func DefaultGrid() []Cell {
	return []Cell{
		{Name: "baseline", Kind: PolicyBaseline},
		{Name: "dummy-k1", Kind: PolicyDummy, DummyK: 1},
		{Name: "dummy-k4", Kind: PolicyDummy, DummyK: 4},
		{Name: "one-prefix", Kind: PolicyOnePrefix},
		{Name: "one-prefix-consent", Kind: PolicyOnePrefix, ConsentAllow: true},
	}
}

// Config parametrizes an ablation run. The first cell is the delta
// reference; DefaultGrid puts the baseline there.
type Config struct {
	// Campaign is the seeded campaign every cell reruns. Zero fields
	// take the workload defaults.
	Campaign workload.Config
	// Linkage tunes the longitudinal correlator all cells share.
	Linkage core.LongitudinalConfig
	// Cells is the policy grid; nil means DefaultGrid().
	Cells []Cell
	// StoreRoot is the directory receiving one probe-store subdirectory
	// per cell; empty creates a temp directory (kept, for reruns).
	StoreRoot string
	// SegmentBytes is each cell store's segment rotation size (default
	// 256 KiB).
	SegmentBytes int64
	// Verify reruns every cell into a throwaway store and checks the
	// two reports deep-equal — the same-seed byte-determinism guarantee
	// the grid's comparability rests on.
	Verify bool
}

// Overhead is what a cell's policy cost on the wire and at the user.
type Overhead struct {
	// Requests is the number of full-hash round trips.
	Requests int
	// PrefixesSent is the total wire prefix count (real + dummy).
	PrefixesSent int
	// RealPrefixes and DummyPrefixes split PrefixesSent.
	RealPrefixes, DummyPrefixes int
	// WireBytes is the total encoded request bytes.
	WireBytes int
	// Withheld counts real prefixes the policy never sent — lookups
	// left unresolved, the utility cost of withholding.
	Withheld int
	// ConsentPrompts counts user interruptions (one-prefix cells).
	ConsentPrompts int
}

// LinkageScore scores a cell's day-over-day cookie linkage against the
// campaign's ground truth.
type LinkageScore struct {
	// Links is the number of linkage claims the correlator made.
	Links int
	// Correct is how many claims the ground truth confirms.
	Correct int
	// Transitions is the ground-truth denominator (linkable rotations).
	Transitions int
	// Precision is Correct/Links (0 when no links were claimed).
	Precision float64
	// Recall is Correct/Transitions (0 when there were none).
	Recall float64
}

// Scoring is one provider model's conclusions about one cell.
type Scoring struct {
	// Linkage is the longitudinal linkage score.
	Linkage LinkageScore
	// ReidentifiedCookies counts cookies with at least one exact-URL
	// re-identification.
	ReidentifiedCookies int
	// ExactProbes, DomainProbes, AmbiguousProbes and UnknownProbes
	// classify every observed probe's re-identification outcome.
	ExactProbes, DomainProbes, AmbiguousProbes, UnknownProbes int
}

// CellReport is one grid point's full outcome.
type CellReport struct {
	// Cell is the configuration that produced this report.
	Cell Cell
	// StoreDir is the cell's probe-store directory (kept for reruns).
	StoreDir string
	// Probes is the number of full-hash requests the provider recorded.
	Probes uint64
	// Overhead is the cell's traffic and interaction cost.
	Overhead Overhead
	// Naive scores the provider that analyzes probes as received.
	Naive Scoring
	// Informed scores the provider that drops prefixes unknown to its
	// web index first; nil when the cell sent no dummies (the two
	// providers coincide).
	Informed *Scoring
	// Verified is true when a determinism rerun reproduced this report
	// deep-equal (Config.Verify).
	Verified bool
}

// Report is the grid's full output. Cells appear in configuration
// order; the first cell is the delta reference.
type Report struct {
	// Days, Clients, Seed and Churn echo the campaign configuration.
	Days, Clients int
	Seed          int64
	Churn         workload.ChurnSchedule
	// Events is the campaign's visit count (identical across cells).
	Events int
	// Transitions is the ground-truth linkable-rotation count all
	// recalls share as denominator.
	Transitions int
	// StoreRoot is the directory holding every cell's probe store.
	StoreRoot string
	// IndexPath is the campaign web-index file written beside the cell
	// stores for offline sbanalyze reruns.
	IndexPath string
	// Cells holds one report per grid point.
	Cells []CellReport
}

// WriteIndexFile writes a campaign's indexed expressions one per line,
// the format sbanalyze -index reads. The file is written to a temp name
// and renamed into place, so a concurrent reader (sbanalyze -live
// polling for the index) sees either nothing or the whole file, never a
// torn prefix, and a failed write leaves no file behind.
func WriteIndexFile(path string, exprs []string) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".index-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()      //nolint:errcheck // already failing
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return err
	}
	for _, e := range exprs {
		if _, err := fmt.Fprintln(f, e); err != nil {
			return fail(err)
		}
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return err
	}
	return nil
}

// policyFor builds a cell's per-client policy factory and the consent
// oracle to read prompt counts from (nil for cells without one).
func policyFor(cell Cell) (workload.PolicyFactory, *mitigation.ScriptedConsent) {
	switch cell.Kind {
	case PolicyDummy:
		pol := mitigation.DummyPolicy{K: cell.DummyK}
		return func(string) sbclient.QueryPolicy { return pol }, nil
	case PolicyOnePrefix:
		oracle := &mitigation.ScriptedConsent{Allow: cell.ConsentAllow}
		pol := &mitigation.OnePrefixPolicy{Consent: oracle, Dummies: cell.DummyK}
		return func(string) sbclient.QueryPolicy { return pol }, oracle
	default:
		return nil, nil
	}
}

// indexFilterSink forwards probes with every prefix unknown to the web
// index removed — the informed provider that pre-filters dummy noise.
type indexFilterSink struct {
	x     *core.Index
	inner sbserver.ProbeSink
}

func (f indexFilterSink) Observe(p sbserver.Probe) {
	kept := make([]hashx.Prefix, 0, len(p.Prefixes))
	for _, pre := range p.Prefixes {
		if f.x.KAnonymity(pre) > 0 {
			kept = append(kept, pre)
		}
	}
	p.Prefixes = kept
	f.inner.Observe(p)
}

// ScoreLinkage scores a day-over-day linkage report against the
// campaign's ground truth: a link is correct when both cookies belong
// to the same user, and transitions (Campaign.ChurnTransitions) is the
// recall denominator.
func ScoreLinkage(camp *workload.Campaign, rep *core.LongitudinalReport, transitions int) LinkageScore {
	s := LinkageScore{Links: len(rep.Links), Transitions: transitions}
	for _, lk := range rep.Links {
		if camp.SameUser(lk.From, lk.To) {
			s.Correct++
		}
	}
	if s.Links > 0 {
		s.Precision = float64(s.Correct) / float64(s.Links)
	}
	if transitions > 0 {
		s.Recall = float64(s.Correct) / float64(transitions)
	}
	return s
}

// providerModel is one provider model's analyses of a cell: an
// unbounded pipeline of the re-identification and linkage stages, so
// each probe is scored against the index once.
func providerModel(index *core.Index, linkage core.LongitudinalConfig) *stream.Pipeline {
	return stream.NewPipeline(stream.NewReidentStage(index, 0), stream.NewLinkageStage(index, linkage, 0))
}

// scoreCell assembles one provider model's Scoring from its pipeline.
func scoreCell(camp *workload.Campaign, model *stream.Pipeline, transitions int) Scoring {
	snaps := model.Snapshot()
	s := Scoring{Linkage: ScoreLinkage(camp, snaps[1].Report.(*core.LongitudinalReport), transitions)}
	for _, c := range snaps[0].Report.(*core.Report).Clients {
		if len(c.ExactURLs) > 0 {
			s.ReidentifiedCookies++
		}
		for _, e := range c.ExactURLs {
			s.ExactProbes += e.Count
		}
		for _, d := range c.Domains {
			s.DomainProbes += d.Count
		}
		s.AmbiguousProbes += c.Ambiguous
		s.UnknownProbes += c.Unknown
	}
	return s
}

// runCell executes one grid point into dir and scores it. The index is
// the campaign's web index, built once by Run and shared read-only
// across cells.
func runCell(ctx context.Context, camp *workload.Campaign, index *core.Index, cell Cell, dir string, linkage core.LongitudinalConfig, segBytes int64, transitions int) (*CellReport, error) {
	store, err := probestore.Open(dir, probestore.WithMaxSegmentBytes(segBytes))
	if err != nil {
		return nil, fmt.Errorf("ablation: cell %s: %w", cell.Name, err)
	}
	naive := providerModel(index, linkage)
	sinks := []sbserver.ProbeSink{store, naive}

	var informed *stream.Pipeline
	if cell.DummyK > 0 {
		informed = providerModel(index, linkage)
		sinks = append(sinks, indexFilterSink{x: index, inner: informed})
	}

	factory, oracle := policyFor(cell)
	stats, err := camp.RunWith(ctx, workload.RunOptions{Policy: factory, Sinks: sinks})
	if err != nil {
		return nil, fmt.Errorf("ablation: cell %s: %w", cell.Name, errors.Join(err, store.Close()))
	}
	if err := store.Close(); err != nil {
		return nil, fmt.Errorf("ablation: cell %s: %w", cell.Name, err)
	}

	cr := &CellReport{
		Cell:     cell,
		StoreDir: dir,
		Probes:   stats.Probes,
		Overhead: Overhead{
			Requests:      stats.FullHashRequests,
			PrefixesSent:  stats.PrefixesSent,
			RealPrefixes:  stats.RealPrefixesSent,
			DummyPrefixes: stats.DummyPrefixesSent,
			WireBytes:     stats.WireBytes,
			Withheld:      stats.PrefixesWithheld,
		},
		Naive: scoreCell(camp, naive, transitions),
	}
	if oracle != nil {
		cr.Overhead.ConsentPrompts = oracle.Prompts()
	}
	if informed != nil {
		s := scoreCell(camp, informed, transitions)
		cr.Informed = &s
	}
	return cr, nil
}

// Run executes the full grid. Every cell reruns the same generated
// campaign; the returned report is deterministic for a given config
// (and, with Verify set, each cell's determinism has been re-proven by
// a second run).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cells := cfg.Cells
	if len(cells) == 0 {
		cells = DefaultGrid()
	}
	names := make(map[string]bool, len(cells))
	for _, c := range cells {
		if c.Name == "" {
			return nil, fmt.Errorf("ablation: every cell needs a name")
		}
		if names[c.Name] {
			return nil, fmt.Errorf("ablation: duplicate cell name %q", c.Name)
		}
		names[c.Name] = true
	}
	segBytes := cfg.SegmentBytes
	if segBytes == 0 {
		segBytes = 256 << 10
	}

	camp, err := workload.Generate(cfg.Campaign)
	if err != nil {
		return nil, err
	}
	root := cfg.StoreRoot
	if root == "" {
		root, err = os.MkdirTemp("", "sb-ablation-")
		if err != nil {
			return nil, err
		}
	} else if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	// Opening a cell store that already holds segments would append this
	// run's probes after the old ones and silently corrupt every score;
	// turn that into a clear early error (mirroring -campaign-store).
	for _, cell := range cells {
		if segs, _ := filepath.Glob(filepath.Join(root, cell.Name, "seg-*.plog")); len(segs) > 0 {
			return nil, fmt.Errorf("ablation: cell store %s already holds %d segment(s); pick a fresh root directory",
				filepath.Join(root, cell.Name), len(segs))
		}
	}

	// Drop the campaign's web index beside the cell stores so any cell
	// can be re-analyzed offline with "sbanalyze -probe-store
	// ROOT/cell -index ROOT/index.urls -longitudinal".
	indexPath := filepath.Join(root, "index.urls")
	exprs := camp.IndexExpressions()
	if err := WriteIndexFile(indexPath, exprs); err != nil {
		return nil, err
	}
	index := core.NewIndex(exprs)

	transitions := camp.ChurnTransitions()
	rep := &Report{
		IndexPath:   indexPath,
		Days:        camp.Config.Days,
		Clients:     camp.Config.Clients,
		Seed:        camp.Config.Seed,
		Churn:       camp.Config.Churn,
		Events:      len(camp.Events),
		Transitions: transitions,
		StoreRoot:   root,
	}
	for _, cell := range cells {
		cr, err := runCell(ctx, camp, index, cell, filepath.Join(root, cell.Name), cfg.Linkage, segBytes, transitions)
		if err != nil {
			return nil, err
		}
		if cfg.Verify {
			verifyDir, err := os.MkdirTemp("", "sb-ablation-verify-")
			if err != nil {
				return nil, err
			}
			again, err := runCell(ctx, camp, index, cell, verifyDir, cfg.Linkage, segBytes, transitions)
			if err != nil {
				os.RemoveAll(verifyDir) //nolint:errcheck // best-effort cleanup
				return nil, err
			}
			if err := os.RemoveAll(verifyDir); err != nil {
				return nil, err
			}
			// Same seed, same policy: everything but the store path must
			// reproduce exactly.
			again.StoreDir = cr.StoreDir
			if !reflect.DeepEqual(cr, again) {
				return nil, fmt.Errorf("ablation: cell %s is not same-seed deterministic:\n first %+v\nsecond %+v", cell.Name, cr, again)
			}
			cr.Verified = true
		}
		rep.Cells = append(rep.Cells, *cr)
	}
	return rep, nil
}
