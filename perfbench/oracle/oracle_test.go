package oracle

import (
	"strings"
	"testing"
)

// Graph builders written from the definitions, so the closed forms below
// are checked against graphs the simulator never produced.

func fromEdges(n int, edges [][2]int) *Graph {
	rows := make([][]int32, n)
	for _, e := range edges {
		rows[e[0]] = append(rows[e[0]], int32(e[1]))
		rows[e[1]] = append(rows[e[1]], int32(e[0]))
	}
	return FromRows(rows)
}

func path(n int) *Graph {
	var e [][2]int
	for i := 0; i+1 < n; i++ {
		e = append(e, [2]int{i, i + 1})
	}
	return fromEdges(n, e)
}

func cycle(n int) *Graph {
	var e [][2]int
	for i := 0; i < n; i++ {
		e = append(e, [2]int{i, (i + 1) % n})
	}
	return fromEdges(n, e)
}

func complete(n int) *Graph {
	var e [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			e = append(e, [2]int{i, j})
		}
	}
	return fromEdges(n, e)
}

func star(n int) *Graph {
	var e [][2]int
	for i := 1; i < n; i++ {
		e = append(e, [2]int{0, i})
	}
	return fromEdges(n, e)
}

func hypercube(d int) *Graph {
	var e [][2]int
	for v := 0; v < 1<<d; v++ {
		for b := 0; b < d; b++ {
			if u := v ^ 1<<b; v < u {
				e = append(e, [2]int{v, u})
			}
		}
	}
	return fromEdges(1<<d, e)
}

func petersen() *Graph {
	var e [][2]int
	for i := 0; i < 5; i++ {
		e = append(e, [2]int{i, (i + 1) % 5}, [2]int{5 + i, 5 + (i+2)%5}, [2]int{i, 5 + i})
	}
	return fromEdges(10, e)
}

// TestClosedForms pins the double-cover search to the paper's closed forms:
// bipartite graphs end at e(src) with one message per edge, non-bipartite
// ones carry every edge in both directions.
func TestClosedForms(t *testing.T) {
	cases := []struct {
		name      string
		g         *Graph
		src       int
		rounds    int
		messages  int64
		maxRecv   int
		bipartite bool
	}{
		{"path(9) from an end", path(9), 0, 8, 8, 1, true},
		{"path(9) from 3", path(9), 3, 5, 8, 1, true},
		{"even cycle(10)", cycle(10), 0, 5, 10, 1, true},
		{"odd cycle(9)", cycle(9), 4, 9, 18, 2, false},
		{"triangle", cycle(3), 0, 3, 6, 2, false},
		{"complete(7)", complete(7), 2, 3, 42, 2, false},
		{"complete(2)", complete(2), 0, 1, 1, 1, true},
		{"star(6) from the hub", star(6), 0, 1, 5, 1, true},
		{"star(6) from a leaf", star(6), 3, 2, 5, 1, true},
		{"hypercube(5)", hypercube(5), 7, 5, 80, 1, true},
		{"petersen", petersen(), 6, 5, 30, 2, false},
	}
	for _, tc := range cases {
		f := Amnesiac(tc.g, tc.src)
		if f.Rounds != tc.rounds || f.Messages != tc.messages {
			t.Errorf("%s: rounds=%d messages=%d, want %d and %d", tc.name, f.Rounds, f.Messages, tc.rounds, tc.messages)
		}
		cov := f.Coverage(tc.src)
		if cov.Uncovered != 0 || cov.MaxReceives != tc.maxRecv {
			t.Errorf("%s: uncovered=%d maxReceives=%d, want 0 and %d", tc.name, cov.Uncovered, cov.MaxReceives, tc.maxRecv)
		}
		if f.ComponentBipartite != tc.bipartite || Bipartite(tc.g) != tc.bipartite {
			t.Errorf("%s: bipartite=%t/%t, want %t", tc.name, f.ComponentBipartite, Bipartite(tc.g), tc.bipartite)
		}
		if tc.bipartite && f.Rounds != Eccentricity(tc.g, tc.src) {
			t.Errorf("%s: bipartite flood ends at %d, not at e(src)=%d", tc.name, f.Rounds, Eccentricity(tc.g, tc.src))
		}
		if d := Diameter(tc.g); f.Rounds > 2*d+1 {
			t.Errorf("%s: %d rounds exceed 2D+1 = %d", tc.name, f.Rounds, 2*d+1)
		}
	}
}

// TestClassicLaw checks the level-count law of classic flooding: one
// receipt per node, a second one across each same-level edge, and m plus
// the same-level edges in messages.
func TestClassicLaw(t *testing.T) {
	cases := []struct {
		name     string
		g        *Graph
		src      int
		rounds   int
		messages int64
	}{
		{"path(9)", path(9), 0, 8, 8},
		{"odd cycle(9)", cycle(9), 0, 5, 10},
		{"even cycle(10)", cycle(10), 0, 5, 10},
		{"complete(5)", complete(5), 0, 2, 16},
		{"petersen", petersen(), 0, 3, 21},
	}
	for _, tc := range cases {
		f := Classic(tc.g, tc.src)
		if f.Rounds != tc.rounds || f.Messages != tc.messages {
			t.Errorf("%s: rounds=%d messages=%d, want %d and %d", tc.name, f.Rounds, f.Messages, tc.rounds, tc.messages)
		}
	}
}

// TestDisconnected checks that M stays in the source's component.
func TestDisconnected(t *testing.T) {
	g := fromEdges(7, [][2]int{{0, 1}, {1, 2}, {2, 0}, {4, 5}})
	f := Amnesiac(g, 1)
	if f.Component != 3 || f.Coverage(1).Uncovered != 4 || f.Rounds != 3 {
		t.Fatalf("component=%d uncovered=%d rounds=%d, want 3, 4, 3", f.Component, f.Coverage(1).Uncovered, f.Rounds)
	}
}

// TestWitnessRound checks where a lone odd-cycle detector stops: on the
// 9-cycle from 0 the two waves meet between nodes 4 and 5 in round 5.
func TestWitnessRound(t *testing.T) {
	f := Amnesiac(cycle(9), 0)
	if f.WitnessRound != 5 || f.Witnesses != 2 || f.MessagesThrough(5) != 10 {
		t.Fatalf("witness round %d with %d witnesses after %d messages, want 5, 2, 10", f.WitnessRound, f.Witnesses, f.MessagesThrough(5))
	}
}

// honest builds the run a correct simulator reports for prediction f.
func honest(g *Graph, f *Flood, src int, facts Facts) Run {
	cov := f.Coverage(src)
	upper := f.Eccentricity
	if !facts.Bipartite {
		upper = 2*Diameter(g) + 1
	}
	return Run{
		Protocol: "amnesiac", Analyses: []string{"coverage", "termination"},
		Rounds: f.Rounds, Messages: f.Messages, Terminated: true, Outcome: "terminated",
		N: g.N(), M: g.M(),
		Metrics: map[string]float64{
			"coverage.covered": b2f(cov.Uncovered == 0), "coverage.uncovered": float64(cov.Uncovered),
			"coverage.maxReceives": float64(cov.MaxReceives), "coverage.receipts": float64(cov.Receipts),
			"termination.rounds": float64(f.Rounds), "termination.messages": float64(f.Messages),
			"termination.eccentricity": float64(f.Eccentricity), "termination.boundLower": float64(f.Eccentricity),
			"termination.boundUpper": float64(upper), "termination.boundExact": b2f(facts.Bipartite),
			"termination.withinBounds": 1,
		},
	}
}

// TestVerifyRejectsCorruption shows the check accepts an honest run and
// rejects one corrupted by a single round, message or receipt.
func TestVerifyRejectsCorruption(t *testing.T) {
	for _, g := range []*Graph{petersen(), hypercube(4), cycle(11)} {
		facts := GraphFacts(g, 0)
		f := Amnesiac(g, 0)
		if err := f.Verify(g, facts, 0, honest(g, f, 0, facts)); err != nil {
			t.Fatalf("honest run rejected: %v", err)
		}
		corruptions := map[string]func(*Run){
			"one round more":     func(r *Run) { r.Rounds++ },
			"one round less":     func(r *Run) { r.Rounds-- },
			"one message more":   func(r *Run) { r.Messages++ },
			"one message less":   func(r *Run) { r.Messages-- },
			"metric round":       func(r *Run) { r.Metrics["termination.rounds"]++ },
			"metric message":     func(r *Run) { r.Metrics["termination.messages"]-- },
			"one receipt less":   func(r *Run) { r.Metrics["coverage.maxReceives"]-- },
			"receipt total":      func(r *Run) { r.Metrics["coverage.receipts"]++ },
			"missing metric":     func(r *Run) { delete(r.Metrics, "coverage.maxReceives") },
			"not terminated":     func(r *Run) { r.Terminated = false },
			"wrong eccentricity": func(r *Run) { r.Metrics["termination.eccentricity"]++ },
		}
		for name, corrupt := range corruptions {
			r := honest(g, f, 0, facts)
			corrupt(&r)
			if err := f.Verify(g, facts, 0, r); err == nil {
				t.Errorf("%s: corruption %q accepted", "graph", name)
			} else if !strings.HasPrefix(err.Error(), "oracle: ") {
				t.Errorf("unexpected error shape %v", err)
			}
		}
	}
}

// TestVerifyModel checks the model-run rules: a uniform delay must match
// the synchronous counts, and no run may reach past its component.
func TestVerifyModel(t *testing.T) {
	g := fromEdges(7, [][2]int{{0, 1}, {1, 2}, {2, 0}, {4, 5}})
	f := Amnesiac(g, 0)
	cov := f.Coverage(0)
	run := Run{
		Protocol: "amnesiac", Model: "adversary:uniform:extra=1", Analyses: []string{"coverage"},
		Rounds: 2 * f.Rounds, Messages: f.Messages, Terminated: true, Outcome: "terminated",
		Metrics: map[string]float64{
			"coverage.uncovered": float64(cov.Uncovered), "coverage.maxReceives": float64(cov.MaxReceives),
			"coverage.receipts": float64(cov.Receipts),
		},
	}
	if err := f.Verify(g, GraphFacts(g, 0), 0, run); err != nil {
		t.Fatalf("honest uniform run rejected: %v", err)
	}
	run.Messages++
	if f.Verify(g, GraphFacts(g, 0), 0, run) == nil {
		t.Error("uniform run with an extra message accepted")
	}
	run.Messages--
	run.Model = "schedule:alternating"
	run.Metrics["coverage.uncovered"] = 3 // claims to reach a node of another component
	if f.Verify(g, GraphFacts(g, 0), 0, run) == nil {
		t.Error("coverage outside the source's component accepted")
	}
}
