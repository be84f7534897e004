package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"amnesiacflood/internal/engine"
	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
	"amnesiacflood/perfbench/oracle"
)

// The flood workload: warm single-origin amnesiac floods on two 2^18-node
// graphs. The gnp graph (average degree ~16) floods in 7 rounds with a
// dense frontier, where the bitset engine pulls; the grid floods for
// hundreds of rounds with a thin frontier, where it pushes and loses to
// the fast engine. Graph generation and engine preparation happen in
// set-up, so the timed floods exercise the round kernels and the observer
// seam almost alone.
var floodGraphs = [...]string{
	"gnp:n=262144,p=0.000061",
	"grid:rows=512,cols=512",
}

// floodKind is one operation kind: a session configuration and its weight
// in the mix.
type floodKind struct {
	name     string
	graph    int
	engine   sim.EngineKind
	coverage bool
	weight   int
}

// floodMix weights the kinds so that p50 falls inside the band of warm
// bitset floods on gnp and p90 inside the band of the slowest kind, the
// observed fast flood on gnp, which holds a quarter of the operations. The
// weights are per round of 20 operations: each round runs every kind its
// weight's number of times, in an order shuffled from the seed, so every
// prefix of the operation list has the same make-up up to one round.
//
// Two gnp kinds are left out of the timed mix and measured by the traced
// run instead (fastengine.run_ms.gnp, analysis.coverage_bitset_ms): the
// unobserved fast flood, whose band would split the slowest quarter in two,
// and the observed bitset flood, which takes about a second (the observer
// forces the engine to materialise every send) and would cut a run to a
// few dozen floods at any weight that keeps p90 inside one band.
var floodMix = []floodKind{
	{"gnp/fast/coverage", 0, sim.Fast, true, 5},
	{"gnp/bitset", 0, sim.Bitset, false, 7},
	{"grid/bitset/coverage", 1, sim.Bitset, true, 1},
	{"grid/bitset", 1, sim.Bitset, false, 2},
	{"grid/fast/coverage", 1, sim.Fast, true, 2},
	{"grid/fast", 1, sim.Fast, false, 3},
}

const (
	// floodOrigins is the size of each graph's origin pool; a small pool
	// keeps the oracle to a few dozen searches per run.
	floodOrigins = 16
	// floodOps is the length of the generated operation list, far more
	// than a run completes.
	floodOps = 1 << 14
)

// floodOp is one generated flood.
type floodOp struct {
	kind   int
	origin graph.NodeID
}

// floodRecord is what one completed flood reported.
type floodRecord struct {
	done       bool
	rounds     int
	messages   int
	terminated bool
	stopped    bool
	metrics    map[string]float64
	digest     uint64 // receive-count digest, coverage runs only
}

type floodInstance struct {
	graphs   [2]*graph.Graph
	sessions []*sim.Session // one per floodMix entry
	ops      []floodOp
	records  []floodRecord
}

// floodPlan draws the origin pools and the operation list from the seed.
func floodPlan(seed int64, graphs [2]*graph.Graph) ([2][]graph.NodeID, []floodOp) {
	rng := rand.New(rand.NewSource(seed ^ 0x666c6f6f64))
	var pools [2][]graph.NodeID
	for gi, g := range graphs {
		for len(pools[gi]) < floodOrigins {
			// A node with a neighbour: on a gnp graph of average degree
			// 16 that is, with overwhelming probability, the giant
			// component (verify checks it).
			if v := graph.NodeID(rng.Intn(g.N())); g.Degree(v) > 0 {
				pools[gi] = append(pools[gi], v)
			}
		}
	}
	ops := make([]floodOp, 0, floodOps)
	for _, k := range weightedRounds(rng, floodOps, floodWeights()) {
		pool := pools[floodMix[k].graph]
		ops = append(ops, floodOp{kind: k, origin: pool[rng.Intn(len(pool))]})
	}
	return pools, ops
}

// floodRound is the number of floods in one round of the mix.
var floodRound = sumInts(floodWeights())

func floodWeights() []int {
	w := make([]int, len(floodMix))
	for i, k := range floodMix {
		w[i] = k.weight
	}
	return w
}

// setupFlood builds both graphs, opens one session per operation kind and
// runs each session's first flood, which prepares its engine.
func setupFlood(ctx context.Context, seed int64, tr *tracer) (instance, error) {
	fi := &floodInstance{}
	for i, spec := range floodGraphs {
		sp := tr.begin(-1, 0, "gen.build")
		g, err := gen.Build(spec, seed)
		if err != nil {
			return nil, err
		}
		tr.end(sp, int64(g.M()))
		fi.graphs[i] = g
	}
	pools, ops := floodPlan(seed, fi.graphs)
	fi.ops = ops
	fi.records = make([]floodRecord, len(ops))
	for _, k := range floodMix {
		opts := []sim.Option{sim.WithEngine(k.engine)}
		if k.coverage {
			opts = append(opts, sim.WithAnalysis("coverage"))
		}
		sp := tr.begin(-1, 0, "sim.new")
		sess, err := sim.New(fi.graphs[k.graph], opts...)
		tr.end(sp, 0)
		if err != nil {
			return nil, err
		}
		sp = tr.begin(-1, 0, "sim.first_run/"+k.name)
		_, err = sess.RunFrom(ctx, pools[k.graph][:1])
		tr.end(sp, 0)
		if err != nil {
			return nil, err
		}
		fi.sessions = append(fi.sessions, sess)
	}
	return fi, nil
}

func (fi *floodInstance) op(ctx context.Context, i int, tr *tracer) (string, time.Duration, error) {
	if i >= len(fi.ops) {
		return "", 0, errors.New("operation list exhausted")
	}
	o := fi.ops[i]
	k := floodMix[o.kind]
	sess := fi.sessions[o.kind]
	sp := tr.begin(int64(i), 0, "flood/"+k.name)
	start := time.Now()
	res, err := sess.RunFrom(ctx, []graph.NodeID{o.origin})
	lat := time.Since(start)
	tr.end(sp, int64(res.TotalMessages))
	if err != nil {
		return k.name, lat, err
	}
	rec := &fi.records[i]
	*rec = floodRecord{done: true, rounds: res.Rounds, messages: res.TotalMessages,
		terminated: res.Terminated, stopped: res.Stopped, metrics: res.Metrics}
	if k.coverage {
		cov, ok := sess.Coverage()
		if !ok {
			return k.name, lat, errors.New("coverage analysis missing")
		}
		rec.digest = recvDigest(cov.ReceiveCounts())
	}
	return k.name, lat, nil
}

// verify checks every completed flood against the double-cover law:
// rounds, messages, the coverage metrics and the per-node receive counts.
func (fi *floodInstance) verify() error {
	checked := [2]*checkedGraph{}
	for gi, g := range fi.graphs {
		checked[gi] = newCheckedGraph(g)
	}
	if n, m := fi.graphs[1].N(), fi.graphs[1].M(); n != 512*512 || m != 2*512*511 {
		return fmt.Errorf("grid has n=%d m=%d, want %d and %d", n, m, 512*512, 2*512*511)
	}
	digests := map[[2]int]uint64{}
	var errs []error
	for i, rec := range fi.records {
		if !rec.done {
			continue
		}
		o := fi.ops[i]
		k := floodMix[o.kind]
		cg := checked[k.graph]
		run := oracle.Run{Protocol: "amnesiac", Rounds: rec.rounds, Messages: int64(rec.messages),
			Terminated: rec.terminated, Stopped: rec.stopped, Outcome: outcomeOf(rec.terminated),
			Metrics: rec.metrics, N: -1, M: -1}
		if k.coverage {
			run.Analyses = []string{"coverage"}
		}
		err := cg.verify(int(o.origin), run)
		if err == nil && k.coverage {
			key := [2]int{k.graph, int(o.origin)}
			want, ok := digests[key]
			if !ok {
				f, _ := cg.predict("amnesiac", int(o.origin))
				want = recvDigest(f.Recv)
				digests[key] = want
			}
			if rec.digest != want {
				err = errors.New("per-node receive counts differ from the double-cover law")
			}
		}
		if err == nil && k.graph == 0 {
			if f, _ := cg.predict("amnesiac", int(o.origin)); f.Component < cg.g.N()/2 {
				err = fmt.Errorf("origin %d lies in a %d-node component, not the giant one", o.origin, f.Component)
			}
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("flood %d (%s from %d): %w", i, k.name, o.origin, err))
			if len(errs) == 5 {
				break
			}
		}
	}
	return errors.Join(errs...)
}

func (fi *floodInstance) close() {}

// describe reports the share of completed floods that repeat an earlier
// flood exactly (same kind, same origin): the origin pools keep the oracle
// to a few dozen searches, so a result cache inside the session layer
// would see these repeats.
func (fi *floodInstance) describe(context.Context) (map[string]float64, error) {
	seen := map[floodOp]bool{}
	done, repeats := 0, 0
	for i, rec := range fi.records {
		if !rec.done {
			continue
		}
		done++
		if seen[fi.ops[i]] {
			repeats++
		}
		seen[fi.ops[i]] = true
	}
	return map[string]float64{"floods": float64(done), "exact_repeat_share": float64(repeats) / float64(max(done, 1))}, nil
}

// outcomeOf spells a synchronous run's verdict.
func outcomeOf(terminated bool) string {
	if terminated {
		return engine.OutcomeTerminated.String()
	}
	return ""
}
