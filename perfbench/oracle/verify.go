package oracle

import (
	"fmt"
	"strings"
)

// Facts are graph-level quantities a termination measurement reports
// against: whole-graph bipartiteness and a lower bound on the diameter
// (the exact diameter costs one search per node, so the oracle settles for
// a bound and checks the reported window against it).
type Facts struct {
	Bipartite  bool
	DiameterLB int
}

// GraphFacts computes Facts with a few double sweeps from start.
func GraphFacts(g *Graph, start int) Facts {
	return Facts{Bipartite: Bipartite(g), DiameterLB: DiameterLowerBound(g, start, 4)}
}

// Run is what the program reported for one single-source run.
type Run struct {
	// Protocol is "amnesiac" or "classic".
	Protocol string
	// Model is the execution-model spec; "" and "sync" mean synchronous.
	Model string
	// Analyses lists the attached analysis families ("coverage",
	// "termination", "bipartite"); their metrics must all be present.
	Analyses   []string
	Rounds     int
	Messages   int64
	Terminated bool
	Stopped    bool
	// Outcome is the reported verdict ("terminated",
	// "non-termination-certified", ...).
	Outcome string
	Metrics map[string]float64
	// N and M are the reported graph size; negative values skip the check.
	N, M int
}

// Predict returns the synchronous prediction for protocol from src.
func Predict(g *Graph, protocol string, src int) (*Flood, error) {
	switch protocol {
	case "amnesiac":
		return Amnesiac(g, src), nil
	case "classic":
		return Classic(g, src), nil
	default:
		return nil, fmt.Errorf("oracle: no law for protocol %q", protocol)
	}
}

// checker accumulates mismatches between a run and its prediction.
type checker struct{ errs []string }

func (c *checker) eq(what string, got, want float64) {
	if got != want {
		c.errs = append(c.errs, fmt.Sprintf("%s = %v, want %v", what, got, want))
	}
}

func (c *checker) that(ok bool, format string, args ...any) {
	if !ok {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

func (c *checker) metric(m map[string]float64, key string, want float64) {
	got, ok := m[key]
	if !ok {
		c.errs = append(c.errs, "missing metric "+key)
		return
	}
	c.eq(key, got, want)
}

func (c *checker) err() error {
	if len(c.errs) == 0 {
		return nil
	}
	return fmt.Errorf("oracle: %s", strings.Join(c.errs, "; "))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func has(list []string, name string) bool {
	for _, s := range list {
		if s == name {
			return true
		}
	}
	return false
}

// Verify checks a run against the prediction f (made by Predict for the
// same protocol and source on g) and the graph facts. Synchronous runs must
// match the law exactly; runs under another execution model are checked by
// verifyModel.
func (f *Flood) Verify(g *Graph, facts Facts, src int, r Run) error {
	if r.Model != "" && r.Model != "sync" {
		return f.verifyModel(g, src, r)
	}
	c := &checker{}
	if r.N >= 0 {
		c.eq("n", float64(r.N), float64(g.N()))
	}
	if r.M >= 0 {
		c.eq("m", float64(r.M), float64(g.M()))
	}
	rounds, messages := f.Rounds, f.Messages
	// A streaming odd-cycle detector alone stops the run at the first
	// witness; with any whole-run analysis attached it runs to the end.
	stops := r.Protocol == "amnesiac" && f.WitnessRound > 0 &&
		has(r.Analyses, "bipartite") && !has(r.Analyses, "coverage") && !has(r.Analyses, "termination")
	if stops {
		rounds, messages = f.WitnessRound, f.MessagesThrough(f.WitnessRound)
	}
	c.eq("rounds", float64(r.Rounds), float64(rounds))
	c.eq("messages", float64(r.Messages), float64(messages))
	c.that(r.Stopped == stops, "stopped = %t, want %t", r.Stopped, stops)
	c.that(r.Terminated == !stops, "terminated = %t, want %t", r.Terminated, !stops)
	m := r.Metrics
	if has(r.Analyses, "coverage") {
		cov := f.Coverage(src)
		c.metric(m, "coverage.covered", b2f(cov.Uncovered == 0))
		c.metric(m, "coverage.uncovered", float64(cov.Uncovered))
		c.metric(m, "coverage.maxReceives", float64(cov.MaxReceives))
		c.metric(m, "coverage.receipts", float64(cov.Receipts))
	}
	if has(r.Analyses, "termination") {
		c.metric(m, "termination.rounds", float64(rounds))
		c.metric(m, "termination.messages", float64(messages))
		c.metric(m, "termination.eccentricity", float64(f.Eccentricity))
		c.metric(m, "termination.boundLower", float64(f.Eccentricity))
		c.metric(m, "termination.boundExact", b2f(facts.Bipartite))
		upper, ok := m["termination.boundUpper"]
		c.that(ok, "missing metric termination.boundUpper")
		if facts.Bipartite {
			c.eq("termination.boundUpper", upper, float64(f.Eccentricity))
		} else {
			// 2D+1 with D at least the swept bound and, on the source's
			// component, at most twice the source's eccentricity.
			lo, hi := float64(2*facts.DiameterLB+1), float64(4*f.Eccentricity+1)
			if f.Component < g.N() {
				hi = float64(2*g.N() + 1) // another component may be wider
			}
			c.that(upper >= lo && upper <= hi && int(upper)%2 == 1,
				"termination.boundUpper = %v outside the odd range [%v, %v]", upper, lo, hi)
		}
		// The paper's theorem: rounds lie in [e(src), 2D+1].
		c.metric(m, "termination.withinBounds", b2f(rounds >= f.Eccentricity && float64(rounds) <= upper))
		if cf, ok := m["termination.closedForm"]; ok {
			if r.Protocol == "amnesiac" {
				c.eq("termination.closedForm", cf, float64(rounds))
			}
			c.metric(m, "termination.closedFormOK", b2f(cf == float64(rounds)))
		}
	}
	if has(r.Analyses, "bipartite") {
		// Run to its end, every node of a non-bipartite component hears M in
		// both parities and so witnesses an odd cycle.
		witnesses := 0
		switch {
		case stops:
			witnesses = f.Witnesses
		case !f.ComponentBipartite:
			witnesses = f.Component
		}
		c.metric(m, "bipartite.witnesses", float64(witnesses))
		c.metric(m, "bipartite.eccentricity", float64(f.Eccentricity))
		c.metric(m, "bipartite.bipartite", b2f(f.ComponentBipartite))
		if !stops {
			c.metric(m, "bipartite.lateRounds", b2f(rounds > f.Eccentricity))
		}
	}
	return c.err()
}

// verifyModel checks an amnesiac run under a non-synchronous execution
// model by what follows from the model's definition, since no closed law
// exists for it:
//
//   - the run ends with a verdict: termination, or a certified cycle;
//   - M never leaves the source's component;
//   - a uniform delay adversary only dilates time, so receipts and
//     messages equal the synchronous prediction exactly;
//   - under an edge schedule a node receives at most once per round, and
//     at most one message crosses each directed edge per round.
func (f *Flood) verifyModel(g *Graph, src int, r Run) error {
	c := &checker{}
	c.that(r.Outcome == "terminated" || r.Outcome == "non-termination-certified",
		"outcome %q is neither termination nor a certified cycle", r.Outcome)
	m := r.Metrics
	uniform := strings.HasPrefix(r.Model, "adversary:uniform")
	if has(r.Analyses, "coverage") {
		uncovered, ok := m["coverage.uncovered"]
		c.that(ok, "missing metric coverage.uncovered")
		outside := g.N() - f.Component
		c.that(uncovered >= float64(outside), "coverage.uncovered = %v, but %d nodes lie outside the source's component", uncovered, outside)
		maxRecv, ok := m["coverage.maxReceives"]
		c.that(ok, "missing metric coverage.maxReceives")
		c.that(maxRecv <= float64(max(r.Rounds, 0)), "coverage.maxReceives = %v exceeds the %d rounds", maxRecv, r.Rounds)
		if uniform {
			cov := f.Coverage(src)
			c.metric(m, "coverage.uncovered", float64(cov.Uncovered))
			c.metric(m, "coverage.maxReceives", float64(cov.MaxReceives))
			c.metric(m, "coverage.receipts", float64(cov.Receipts))
		}
	}
	c.that(r.Messages <= int64(r.Rounds)*int64(2*g.M()), "messages = %d exceed 2m per round over %d rounds", r.Messages, r.Rounds)
	if uniform {
		c.eq("messages", float64(r.Messages), float64(f.Messages))
		c.that(r.Outcome == "terminated", "a uniform delay cannot keep the flood alive (outcome %q)", r.Outcome)
	}
	if has(r.Analyses, "termination") {
		c.metric(m, "termination.rounds", float64(r.Rounds))
		c.metric(m, "termination.messages", float64(r.Messages))
	}
	return c.err()
}
