package workload

import (
	"context"
	"errors"
	"fmt"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
)

// RunStats summarizes one campaign run.
type RunStats struct {
	// Events is the number of visits executed.
	Events int
	// Updates is the number of client database syncs (one per cookie,
	// at its first activity — the blacklist is static for the whole
	// campaign, so clients never need to re-sync).
	Updates int
	// Probes is the number of full-hash requests the provider recorded:
	// the information that actually leaked.
	Probes uint64
	// Lookups, LocalHits, FullHashRequests, PrefixesSent and CacheHits
	// aggregate the client-side counters across the population.
	Lookups, LocalHits, FullHashRequests, PrefixesSent, CacheHits int
	// RealPrefixesSent, DummyPrefixesSent, PrefixesWithheld and
	// WireBytes split the wire traffic by a query policy's doing; in a
	// policy-less run every sent prefix is real and nothing is withheld.
	RealPrefixesSent, DummyPrefixesSent, PrefixesWithheld, WireBytes int
}

// String renders the run summary.
func (st *RunStats) String() string {
	s := fmt.Sprintf(
		"run: %d visits by %d synced cookies; %d local hits, %d full-hash requests (%d prefixes, %d cache hits); provider recorded %d probes",
		st.Events, st.Updates, st.LocalHits, st.FullHashRequests, st.PrefixesSent, st.CacheHits, st.Probes)
	if st.DummyPrefixesSent > 0 || st.PrefixesWithheld > 0 {
		s += fmt.Sprintf("\npolicy: %d real + %d dummy prefixes on the wire (%d bytes), %d withheld",
			st.RealPrefixesSent, st.DummyPrefixesSent, st.WireBytes, st.PrefixesWithheld)
	}
	return s
}

// PolicyFactory builds the sbclient.QueryPolicy installed on each
// campaign client as its cookie first acts; returning nil gives that
// client the vanilla (policy-less) behaviour. Factories must be
// deterministic — same cookie, same policy behaviour — or same-seed
// runs stop being byte-identical.
type PolicyFactory func(cookie string) sbclient.QueryPolicy

// RunOptions configures a campaign run beyond its probe sinks.
type RunOptions struct {
	// Policy equips every client with a privacy policy; nil runs the
	// vanilla client (the mitigation-ablation baseline).
	Policy PolicyFactory
	// Sinks subscribe to the provider's probe stream (a probe store, a
	// live analyzer, a longitudinal correlator, ...). Nil entries are
	// skipped.
	Sinks []sbserver.ProbeSink
}

// Run executes the campaign against a freshly built provider: it
// creates the blacklist, subscribes the given sinks (a probe store, a
// live analyzer, a longitudinal correlator, ...), then plays every
// event in schedule order — setting the shared virtual clock to the
// event's timestamp, lazily syncing a client the first time its cookie
// acts, and checking the event's URL. The server is drained and closed
// before Run returns — on an error mid-schedule too — so sinks have
// observed every probe recorded; a subscribed probe store is NOT closed
// (callers own its Flush/Close ordering).
//
// Determinism contract: Run plays the schedule from one goroutine, and
// the server's probe pipeline delivers in record order, so sinks
// observe probes in exact schedule order, one at a time, with no
// barrier per visit. Combined with the generator's determinism this
// makes two runs of the same campaign byte-identical all the way down
// to a subscribed probe store's segment files.
func (c *Campaign) Run(ctx context.Context, sinks ...sbserver.ProbeSink) (*RunStats, error) {
	return c.RunWith(ctx, RunOptions{Sinks: sinks})
}

// RunWith is Run with a client-side query policy installed on every
// client — the mitigation-ablation entry point. The determinism
// contract is unchanged: with a deterministic policy factory, two
// same-seed RunWith runs are byte-identical per cell.
func (c *Campaign) RunWith(ctx context.Context, opts RunOptions) (*RunStats, error) {
	clock := NewClock(c.Config.Start)
	server := sbserver.New(
		sbserver.WithClock(clock.Now),
		// The in-memory probe log is not the campaign's retention layer
		// (the probe store is); keep only a token tail bounded.
		sbserver.WithProbeLogLimit(1024),
	)
	if err := server.CreateList(c.Config.List, "campaign blacklist"); err != nil {
		return nil, err
	}
	if err := server.AddExpressions(c.Config.List, c.BlacklistExpressions()); err != nil {
		return nil, err
	}
	if orphans := c.OrphanRootExpressions(); len(orphans) > 0 {
		prefixes := make([]hashx.Prefix, len(orphans))
		for i, e := range orphans {
			prefixes[i] = hashx.SumPrefix(e)
		}
		if err := server.AddOrphanPrefixes(c.Config.List, prefixes); err != nil {
			return nil, err
		}
	}
	for _, sink := range opts.Sinks {
		if sink != nil {
			server.Subscribe(sink)
		}
	}

	transport := sbclient.LocalTransport{Server: server}
	clients := make(map[string]*sbclient.Client)
	var clientOrder []*sbclient.Client
	stats := &RunStats{}
	for _, ev := range c.Events {
		if err := ctx.Err(); err != nil {
			return nil, errors.Join(err, server.Close())
		}
		clock.Set(ev.Time)
		cl := clients[ev.Cookie]
		if cl == nil {
			clOpts := []sbclient.Option{
				sbclient.WithCookie(ev.Cookie), sbclient.WithClock(clock.Now),
			}
			if opts.Policy != nil {
				if p := opts.Policy(ev.Cookie); p != nil {
					clOpts = append(clOpts, sbclient.WithQueryPolicy(p))
				}
			}
			cl = sbclient.New(transport, []string{c.Config.List}, clOpts...)
			clients[ev.Cookie] = cl
			clientOrder = append(clientOrder, cl)
			if err := cl.Update(ctx, true); err != nil {
				return nil, errors.Join(fmt.Errorf("workload: sync %s: %w", ev.Cookie, err), server.Close())
			}
			stats.Updates++
		}
		if _, err := cl.CheckURL(ctx, ev.URL); err != nil {
			return nil, errors.Join(fmt.Errorf("workload: %s checks %s: %w", ev.Cookie, ev.URL, err), server.Close())
		}
		stats.Events++
	}
	if err := server.Close(); err != nil {
		return nil, err
	}
	stats.Probes = server.ProbeStats().Received
	for _, cl := range clientOrder {
		cs := cl.Stats()
		stats.Lookups += cs.Lookups
		stats.LocalHits += cs.LocalHits
		stats.FullHashRequests += cs.FullHashRequests
		stats.PrefixesSent += cs.PrefixesSent
		stats.CacheHits += cs.CacheHits
		stats.RealPrefixesSent += cs.RealPrefixesSent
		stats.DummyPrefixesSent += cs.DummyPrefixesSent
		stats.PrefixesWithheld += cs.PrefixesWithheld
		stats.WireBytes += cs.WireBytes
	}
	return stats, nil
}
