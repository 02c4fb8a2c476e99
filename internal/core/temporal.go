package core

import (
	"time"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/urlx"
)

// CorrelationRule detects a behaviour from temporally close queries: the
// paper's example is a client querying the PETS CFP page and then the
// submission site within a short period — "a user making two queries for
// the prefixes 0xe70ee6d1 and 0x716703db in a short period of time is
// planning to submit a paper."
type CorrelationRule struct {
	// Name labels the inferred behaviour.
	Name string
	// Prefixes must all be observed from the same client...
	Prefixes []hashx.Prefix
	// ...within Window.
	Window time.Duration
}

// NewCorrelationRule builds a rule from URL expressions.
func NewCorrelationRule(name string, window time.Duration, urls ...string) CorrelationRule {
	rule := CorrelationRule{Name: name, Window: window}
	for _, u := range urls {
		rule.Prefixes = append(rule.Prefixes, hashx.SumPrefix(urlx.FromExpression(u).String()))
	}
	return rule
}

// CorrelationEvent reports a fired rule.
type CorrelationEvent struct {
	Rule     string
	ClientID string
	// First and Last bound the observation span.
	First, Last time.Time
}
