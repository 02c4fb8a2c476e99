// Package sbprivacy is a from-scratch Go reproduction of "A Privacy
// Analysis of Google and Yandex Safe Browsing" (Gerbet, Kumar, Lauradoux
// — INRIA RR-8686, DSN 2016).
//
// It bundles a complete Safe Browsing v3-style client and server (local
// prefix database, incremental chunk updates, full-hash round trips,
// HTTP transport), the client data structures Google deployed (Bloom
// filter and delta-coded table), and the paper's privacy machinery: the
// k-anonymity analysis of hashing-and-truncation, URL re-identification
// from one or more 32-bit prefixes, the Algorithm 1 tracking system, the
// blacklist audit (orphan prefixes, database inversion, multi-prefix
// URLs) and the Section 8 mitigations.
//
// This package is the public facade: it re-exports the stable entry
// points from the internal packages so downstream users need a single
// import. The experiment harness behind every table and figure of the
// paper is reachable through RunExperiment.
//
// Quick start:
//
//	server := sbprivacy.NewServer()
//	_ = server.CreateList("goog-malware-shavar", "malware")
//	_ = server.AddURL("goog-malware-shavar", "http://evil.example/attack")
//
//	client := sbprivacy.NewClient(sbprivacy.LocalTransport{Server: server},
//		[]string{"goog-malware-shavar"})
//	_ = client.Update(ctx, true)
//	verdict, _ := client.CheckURL(ctx, "http://evil.example/attack")
//	// verdict.Safe == false; verdict.SentPrefixes is what leaked.
package sbprivacy

import (
	"sbprivacy/internal/ablation"
	"sbprivacy/internal/advisor"
	"sbprivacy/internal/ballsbins"
	"sbprivacy/internal/blacklist"
	"sbprivacy/internal/collision"
	"sbprivacy/internal/core"
	"sbprivacy/internal/corpus"
	"sbprivacy/internal/exp"
	"sbprivacy/internal/hashx"
	"sbprivacy/internal/lookupapi"
	"sbprivacy/internal/mitigation"
	"sbprivacy/internal/prefixdb"
	"sbprivacy/internal/probestore"
	"sbprivacy/internal/sbclient"
	"sbprivacy/internal/sbserver"
	"sbprivacy/internal/stream"
	"sbprivacy/internal/urlx"
	"sbprivacy/internal/workload"
)

// Digest and prefix primitives.
type (
	// Digest is a full SHA-256 digest of a canonicalized decomposition.
	Digest = hashx.Digest
	// Prefix is the 32-bit Safe Browsing prefix.
	Prefix = hashx.Prefix
	// Canonical is a canonicalized URL.
	Canonical = urlx.Canonical
)

// Protocol types.
type (
	// Server is the Safe Browsing provider.
	Server = sbserver.Server
	// Probe is one full-hash request as the provider sees it.
	Probe = sbserver.Probe
	// ProbeSink consumes probes (the provider's observation point).
	ProbeSink = sbserver.ProbeSink
	// ProbeStats reports the probe pipeline's counters.
	ProbeStats = sbserver.ProbeStats
	// ProbeOverflowPolicy selects backpressure vs load-shedding when the
	// probe pipeline's buffer fills.
	ProbeOverflowPolicy = sbserver.OverflowPolicy
	// Client is the Safe Browsing client of Figure 3.
	Client = sbclient.Client
	// Verdict is a lookup outcome, including what leaked.
	Verdict = sbclient.Verdict
	// Transport connects a client to a provider.
	Transport = sbclient.Transport
	// LocalTransport is the in-process transport.
	LocalTransport = sbclient.LocalTransport
	// HTTPTransport reaches a provider over HTTP.
	HTTPTransport = sbclient.HTTPTransport
)

// Privacy-analysis types (the paper's contribution).
type (
	// Index is the provider's web index used for re-identification.
	Index = core.Index
	// Reidentification is the provider's conclusion from observed
	// prefixes.
	Reidentification = core.Reidentification
	// TrackingPlan is Algorithm 1's output for one target URL.
	TrackingPlan = core.TrackingPlan
	// Tracker turns the probe log into tracking events.
	Tracker = core.Tracker
	// TrackingEvent is one tracking observation.
	TrackingEvent = core.Event
	// Correlator detects temporally correlated queries (Section 6.3).
	Correlator = core.Correlator
	// CorrelationRule describes one behaviour to detect.
	CorrelationRule = core.CorrelationRule
	// ProbeAnalyzer aggregates re-identification conclusions per client
	// from a probe stream, live or replayed.
	ProbeAnalyzer = core.Analyzer
	// ReidentReport is the analyzer's per-client output.
	ReidentReport = core.Report
	// CollisionType classifies Type I/II/III prefix collisions.
	CollisionType = collision.Type
	// PrivacyAdvisor assesses what a lookup would reveal before it
	// happens (the paper's future-work browser plugin).
	PrivacyAdvisor = advisor.Advisor
	// AdvisorReport is the advisor's pre-lookup assessment.
	AdvisorReport = advisor.Report
	// LookupAPIServer is the deprecated plaintext Lookup API — the
	// privacy-unfriendly baseline the v3 protocol replaced.
	LookupAPIServer = lookupapi.Server
	// LookupAPIClient is its plaintext client.
	LookupAPIClient = lookupapi.Client
)

// NewLookupAPIServer wraps a Safe Browsing database with the deprecated
// plaintext Lookup API.
var NewLookupAPIServer = lookupapi.NewServer

// Persistent probe store (the provider's durable retention layer).
type (
	// ProbeStore is a persistent, segmented probe log implementing
	// ProbeSink; see internal/probestore.
	ProbeStore = probestore.Store
	// ProbeStoreStats reports the store's counters.
	ProbeStoreStats = probestore.Stats
	// ProbeStoreFollowOption configures ProbeStore.Follow, the live
	// tail of a store directory.
	ProbeStoreFollowOption = probestore.FollowOption
)

// Probe store constructors and options.
var (
	// OpenProbeStore opens (or creates) a probe store directory.
	OpenProbeStore = probestore.Open
	// ProbeStoreReadOnly opens the store for offline replay.
	ProbeStoreReadOnly = probestore.ReadOnly
	// WithMaxSegmentBytes sets the store's segment rotation size.
	WithMaxSegmentBytes = probestore.WithMaxSegmentBytes
	// WithSpillThreshold sets the size of the store's write buffer: the
	// most a crash can lose, and what the store keeps resident.
	WithSpillThreshold = probestore.WithSpillThreshold
	// WithRetainSegments bounds the store to the newest n segments.
	WithRetainSegments = probestore.WithRetainSegments
	// WithRetainBytes bounds the store's total on-disk size.
	WithRetainBytes = probestore.WithRetainBytes
	// WithFollowPoll sets the idle poll interval of ProbeStore.Follow.
	WithFollowPoll = probestore.WithFollowPoll
)

// Multi-day synthetic workload campaigns (the longitudinal scenario).
type (
	// CampaignConfig parametrizes a multi-day synthetic campaign.
	CampaignConfig = workload.Config
	// Campaign is a generated multi-day workload: world, population
	// with ground truth, and the visit schedule in virtual time.
	Campaign = workload.Campaign
	// CampaignEvent is one scheduled page visit.
	CampaignEvent = workload.Event
	// CampaignSite is one synthetic website.
	CampaignSite = workload.Site
	// CampaignUser is one synthetic client with its ground truth.
	CampaignUser = workload.User
	// CampaignRunStats summarizes one campaign run.
	CampaignRunStats = workload.RunStats
	// CampaignProfile classifies a synthetic user's behaviour.
	CampaignProfile = workload.ProfileKind
	// CampaignChurnSchedule selects when churners rotate their cookies.
	CampaignChurnSchedule = workload.ChurnSchedule
	// CampaignRunOptions configures a policy-equipped campaign run.
	CampaignRunOptions = workload.RunOptions
	// CampaignPolicyFactory builds the per-client QueryPolicy of a
	// campaign run.
	CampaignPolicyFactory = workload.PolicyFactory
	// VirtualClock is the settable time source campaigns share between
	// server and clients.
	VirtualClock = workload.Clock
)

// Campaign population profiles.
const (
	// CampaignProfileHeavy browses broadly, many times a day.
	CampaignProfileHeavy = workload.ProfileHeavy
	// CampaignProfileLight browses narrowly and skips days.
	CampaignProfileLight = workload.ProfileLight
	// CampaignProfilePeriodic browses on a fixed cadence.
	CampaignProfilePeriodic = workload.ProfilePeriodic
	// CampaignProfileChurning resets its cookie every day.
	CampaignProfileChurning = workload.ProfileChurning
)

// Campaign cookie-churn schedules.
const (
	// ChurnDaily rotates churner cookies at every midnight.
	ChurnDaily = workload.ChurnDaily
	// ChurnWeekly rotates at every 7th midnight.
	ChurnWeekly = workload.ChurnWeekly
	// ChurnRandom rotates each churner independently per midnight.
	ChurnRandom = workload.ChurnRandom
	// ChurnCoordinated rotates every churner on the same fleet-wide days.
	ChurnCoordinated = workload.ChurnCoordinated
)

// Campaign constructors.
var (
	// GenerateCampaign builds a deterministic campaign from a config.
	GenerateCampaign = workload.Generate
	// NewVirtualClock returns a clock frozen at the given time.
	NewVirtualClock = workload.NewClock
	// ParseChurnSchedule maps a churn-schedule name to its value.
	ParseChurnSchedule = workload.ParseChurnSchedule
)

// Mitigation ablation lab (the Section 8 countermeasure grid over a
// seeded campaign).
type (
	// AblationConfig parametrizes an ablation grid run.
	AblationConfig = ablation.Config
	// AblationCell is one grid point: a named policy configuration.
	AblationCell = ablation.Cell
	// AblationPolicyKind names a cell's policy family.
	AblationPolicyKind = ablation.PolicyKind
	// AblationReport is the grid's full output.
	AblationReport = ablation.Report
	// AblationCellReport is one grid point's outcome.
	AblationCellReport = ablation.CellReport
	// AblationOverhead is a cell's traffic and interaction cost.
	AblationOverhead = ablation.Overhead
	// AblationScoring is one provider model's conclusions about a cell.
	AblationScoring = ablation.Scoring
	// AblationLinkageScore scores a cell's linkage against ground truth.
	AblationLinkageScore = ablation.LinkageScore
)

// Ablation policy families.
const (
	// AblationPolicyBaseline is the vanilla client.
	AblationPolicyBaseline = ablation.PolicyBaseline
	// AblationPolicyDummy pads requests with deterministic dummies.
	AblationPolicyDummy = ablation.PolicyDummy
	// AblationPolicyOnePrefix queries one prefix at a time.
	AblationPolicyOnePrefix = ablation.PolicyOnePrefix
)

// Ablation entry points.
var (
	// RunAblation executes a mitigation ablation grid.
	RunAblation = ablation.Run
	// DefaultAblationGrid is the acceptance grid: baseline, dummy-k1,
	// dummy-k4, and the one-prefix strategy declining and consenting.
	DefaultAblationGrid = ablation.DefaultGrid
)

// Longitudinal day-over-day correlation (the retention threat over a
// long horizon).
type (
	// Longitudinal is the day-over-day re-identification correlator.
	Longitudinal = core.Longitudinal
	// LongitudinalConfig tunes its linkage thresholds.
	LongitudinalConfig = core.LongitudinalConfig
	// LongitudinalReport is its full output.
	LongitudinalReport = core.LongitudinalReport
	// LongitudinalDay is the correlator's view of one calendar day.
	LongitudinalDay = core.DayReport
	// CookieLink is one day-over-day cookie linkage.
	CookieLink = core.CookieLink
	// CookieChain is a linked cookie sequence claimed to be one client.
	CookieChain = core.ChainReport
)

// NewLongitudinal builds a day-over-day correlator over a web index;
// feed it live (Subscribe) or from a replayed probe store.
var NewLongitudinal = core.NewLongitudinal

// Streaming analysis pipeline (bounded-memory analysis at ingest
// speed: the batch scoring cores behind windowed, evicting stages).
type (
	// StreamStage is one incremental analyzer in a pipeline.
	StreamStage = stream.Stage
	// StreamPipeline fans one probe feed into its stages; it is a
	// ProbeSink, so it plugs into a live server, a replay, or a tail.
	StreamPipeline = stream.Pipeline
	// StreamStats is a stage's bounded-memory accounting.
	StreamStats = stream.Stats
	// StreamStageSnapshot pairs a stage's report with its accounting.
	StreamStageSnapshot = stream.StageSnapshot
	// ReidentStage is the windowed streaming form of the ProbeAnalyzer.
	ReidentStage = stream.ReidentStage
	// LinkageStage is the windowed streaming form of the Longitudinal
	// correlator.
	LinkageStage = stream.LinkageStage
)

// Streaming pipeline constructors and drivers.
var (
	// NewStreamPipeline builds a pipeline over the given stages.
	NewStreamPipeline = stream.NewPipeline
	// NewReidentStage builds a windowed re-identification stage.
	NewReidentStage = stream.NewReidentStage
	// NewLinkageStage builds a windowed day-over-day linkage stage.
	NewLinkageStage = stream.NewLinkageStage
	// StreamReplay drives a pipeline from a sealed probe store.
	StreamReplay = stream.Replay
	// StreamFollow tails a live store directory into a pipeline.
	StreamFollow = stream.Follow
)

// Experiment harness types.
type (
	// ExperimentConfig scales the reproduced experiments.
	ExperimentConfig = exp.Config
	// ExperimentResult is one regenerated table or figure.
	ExperimentResult = exp.Result
)

// Corpus types.
type (
	// CorpusConfig parametrizes synthetic web-corpus generation.
	CorpusConfig = corpus.Config
	// Corpus is a generated dataset.
	Corpus = corpus.Corpus
	// CorpusProfile selects the Alexa-like or Random-like population.
	CorpusProfile = corpus.Profile
)

// Corpus profiles.
const (
	// ProfileAlexa models the most popular hosts.
	ProfileAlexa = corpus.ProfileAlexa
	// ProfileRandom models random hosts (61% single-page).
	ProfileRandom = corpus.ProfileRandom
)

// Server constructors and options.
var (
	// NewServer creates an empty Safe Browsing provider.
	NewServer = sbserver.New
	// WithMinWait sets the minimum client poll interval.
	WithMinWait = sbserver.WithMinWait
	// WithCacheLifetime sets the full-hash cache lifetime.
	WithCacheLifetime = sbserver.WithCacheLifetime
	// WithProbeBuffer sets the async probe pipeline's capacity.
	WithProbeBuffer = sbserver.WithProbeBuffer
	// WithProbeLogLimit bounds the probe log to the most recent n probes.
	WithProbeLogLimit = sbserver.WithProbeLogLimit
	// WithProbeOverflow selects the full-buffer policy for probes.
	WithProbeOverflow = sbserver.WithProbeOverflow
)

// Probe overflow policies.
const (
	// ProbeOverflowBlock applies backpressure: no probe is lost.
	ProbeOverflowBlock = sbserver.OverflowBlock
	// ProbeOverflowDrop sheds probes when the pipeline is saturated.
	ProbeOverflowDrop = sbserver.OverflowDrop
)

// Client constructors and options.
var (
	// NewClient creates a Safe Browsing client.
	NewClient = sbclient.New
	// WithCookie pins the client's Safe Browsing cookie.
	WithCookie = sbclient.WithCookie
	// WithStoreFactory selects the local data structure.
	WithStoreFactory = sbclient.WithStoreFactory
	// WithQueryPolicy installs a privacy policy on the client's
	// full-hash traffic (the Section 8 mitigation seam).
	WithQueryPolicy = sbclient.WithQueryPolicy
)

// Client-side query-policy seam (the mitigation middleware between
// local-hit detection and the full-hash round trip).
type (
	// QueryPolicy decides what a lookup's full-hash traffic looks like
	// on the wire: padded, reordered, staged or withheld.
	QueryPolicy = sbclient.QueryPolicy
	// PolicyQuery is one lookup's full-hash need as a policy sees it.
	PolicyQuery = sbclient.Query
	// PolicyQueryPrefix is one real prefix of a PolicyQuery.
	PolicyQueryPrefix = sbclient.QueryPrefix
	// PolicyStage is one wire request a query plan wants sent.
	PolicyStage = sbclient.Stage
	// PolicyQueryPlan is the per-lookup conversation between client and
	// policy.
	PolicyQueryPlan = sbclient.QueryPlan
	// DummyQueryPolicy pads every request with deterministic dummies
	// (Firefox's Section 8 countermeasure as a QueryPolicy).
	DummyQueryPolicy = mitigation.DummyPolicy
	// OnePrefixQueryPolicy is the paper's one-prefix-at-a-time strategy
	// as a QueryPolicy.
	OnePrefixQueryPolicy = mitigation.OnePrefixPolicy
	// ConsentOracle answers the one-prefix strategy's stage-2 prompts.
	ConsentOracle = mitigation.ConsentOracle
	// ScriptedConsent is a deterministic, prompt-counting ConsentOracle.
	ScriptedConsent = mitigation.ScriptedConsent
)

// StoreFactoryKind names a client-side prefix store implementation
// (paper Section 2.2.2).
type StoreFactoryKind int

// Store kinds.
const (
	// StoreSorted is the raw sorted array (4 bytes/prefix).
	StoreSorted StoreFactoryKind = iota + 1
	// StoreDelta is the delta-coded table, Google's production choice.
	StoreDelta
)

// StoreFactoryFor returns the factory for a store kind; unknown kinds
// fall back to the delta-coded default.
func StoreFactoryFor(kind StoreFactoryKind) sbclient.StoreFactory {
	switch kind {
	case StoreSorted:
		return func() prefixdb.Updatable { return prefixdb.NewSortedSet(nil) }
	default:
		return func() prefixdb.Updatable { return prefixdb.NewDeltaStore(nil) }
	}
}

// URL canonicalization and decomposition.
var (
	// Canonicalize canonicalizes a raw URL per the protocol.
	Canonicalize = urlx.Canonicalize
	// Decompose returns the host-suffix/path-prefix expressions.
	Decompose = urlx.Decompose
	// RegisteredDomain extracts the registrable domain of a host.
	RegisteredDomain = urlx.RegisteredDomain
	// RegisteredDomainOf canonicalizes a URL and extracts its
	// registrable domain.
	RegisteredDomainOf = urlx.DomainOf
)

// Digests.
var (
	// Sum hashes a canonical decomposition expression.
	Sum = hashx.Sum
	// SumPrefix returns the expression's 32-bit prefix.
	SumPrefix = hashx.SumPrefix
)

// Privacy analysis.
var (
	// NewIndex builds the provider-side URL index.
	NewIndex = core.NewIndex
	// BuildTrackingPlan runs Algorithm 1 for a target URL.
	BuildTrackingPlan = core.BuildTrackingPlan
	// NewTracker builds a probe-log tracker over plans.
	NewTracker = core.NewTracker
	// NewProbeAnalyzer builds a per-client re-identification analyzer
	// over a web index; feed it live (Subscribe) or from a replayed log.
	NewProbeAnalyzer = core.NewAnalyzer
	// NewCorrelator builds a temporal-correlation engine.
	NewCorrelator = core.NewCorrelator
	// NewCorrelationRule builds a rule from URL expressions.
	NewCorrelationRule = core.NewCorrelationRule
	// ClassifyCollision determines the Type I/II/III class.
	ClassifyCollision = collision.Classify
	// AggregateProbes groups a probe log into per-client windows (the
	// Section 4 aggregation threat).
	AggregateProbes = core.AggregateProbes
)

// Analytics.
var (
	// MaxLoadEstimate evaluates Raab-Steger Theorem 1.
	MaxLoadEstimate = ballsbins.MaxLoad
	// PoissonMaxLoad is the exact expected-maximum estimator.
	PoissonMaxLoad = ballsbins.PoissonMaxLoad
	// GenerateCorpus builds a synthetic web corpus.
	GenerateCorpus = corpus.Generate
	// ComputeCorpusStats measures a corpus.
	ComputeCorpusStats = corpus.ComputeStats
)

// Blacklist audit.
var (
	// BuildUniverse constructs the synthetic provider databases.
	BuildUniverse = blacklist.BuildUniverse
	// AuditOrphans measures full hashes per prefix (Table 11).
	AuditOrphans = blacklist.AuditOrphans
	// InvertBlacklist attempts cleartext reconstruction (Table 10).
	InvertBlacklist = blacklist.Invert
	// FindMultiPrefixURLs scans for Table 12-style URLs.
	FindMultiPrefixURLs = blacklist.FindMultiPrefixURLs
)

// Experiments.
var (
	// RunExperiment regenerates one table or figure by id.
	RunExperiment = exp.Run
	// RunAllExperiments regenerates everything.
	RunAllExperiments = exp.RunAll
	// ExperimentIDs lists the known experiment ids.
	ExperimentIDs = exp.IDs
)
