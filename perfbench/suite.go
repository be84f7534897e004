package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/scenario"
	"amnesiacflood/perfbench/oracle"
)

// The suite workload: back-to-back scenario.Runner jobs, each one small
// matrix like `make suite` with fresh seeds, so no row ever repeats. Graph
// generation, per-group session and engine preparation, per-session
// analysis set-up (termination's exact diameter on every non-bipartite
// group) and sink encoding do most of the work; the flood kernels do
// little.
//
// The two bipartite families have 1024 nodes and the four non-bipartite
// ones about 256: termination computes the exact diameter, one search per
// node, for every non-bipartite group, so those stay small enough for a
// run to complete over a hundred jobs, while the larger bipartite graphs
// give each job enough work that one scheduling hiccup on a shared host
// does not make it an outlier.
var suiteGraphs = []string{
	"grid:rows=32,cols=32",
	"torus:rows=15,cols=17",
	"hypercube:d=10",
	"gnp:n=256,p=0.03,connect=true",
	"prefattach:n=256,m=3",
	"rmat:n=256,e=1024",
}

// suiteModels are the cheap non-synchronous models: a uniform delay, one
// blinking edge and alternating edge halves. Each run ends in termination
// or a certified cycle well inside suiteMaxRounds.
var suiteModels = []string{
	"adversary:uniform:extra=1",
	"schedule:blink:u=0,v=1,period=3,phase=1",
	"schedule:alternating",
}

const (
	// suiteOrigins single origins run per group, drawn below the smallest
	// graph's node count.
	suiteOrigins = 4
	suiteMinN    = 255
	// suiteMaxRounds bounds the model rows.
	suiteMaxRounds = 4096
	// suiteWorkers matches the two cores the load is sized for.
	suiteWorkers = 2
	// suiteRound is the number of jobs in one round; every job has the
	// same make-up.
	suiteRound = 4
)

// suiteMetrics fixes the order in which a row's metrics are kept.
var suiteMetrics = []string{
	"coverage.covered", "coverage.uncovered", "coverage.maxReceives", "coverage.receipts",
	"termination.rounds", "termination.messages", "termination.eccentricity",
	"termination.boundLower", "termination.boundUpper", "termination.boundExact",
	"termination.withinBounds", "termination.closedForm", "termination.closedFormOK",
}

var suiteAnalyses = []string{"coverage", "termination"}

// suiteJob expands job j of the seed's job list: the synchronous matrix
// (six families × amnesiac/classic × sequential/fast/bitset) and the model
// matrix (six families × amnesiac × three models; the engine axis does not
// apply), both with four origins and one fresh seed.
func suiteJob(seed int64, j int) ([]scenario.Spec, error) {
	jobSeed := seed*1_000_003 + int64(j)
	rng := rand.New(rand.NewSource(jobSeed))
	origins := make([][]graph.NodeID, suiteOrigins)
	for i := range origins {
		origins[i] = []graph.NodeID{graph.NodeID(rng.Intn(suiteMinN))}
	}
	syncSpecs, err := scenario.Matrix{
		Graphs: suiteGraphs, Protocols: []string{"amnesiac", "classic"},
		Engines: []string{"sequential", "fast", "bitset"}, OriginSets: origins,
		Analyses: suiteAnalyses, Seeds: []int64{jobSeed},
	}.Expand()
	if err != nil {
		return nil, err
	}
	modelSpecs, err := scenario.Matrix{
		Graphs: suiteGraphs, Engines: []string{"fast"}, Models: suiteModels,
		OriginSets: origins, Analyses: suiteAnalyses, Seeds: []int64{jobSeed},
		MaxRounds: suiteMaxRounds,
	}.Expand()
	if err != nil {
		return nil, err
	}
	return append(syncSpecs, modelSpecs...), nil
}

// suiteRow is the compact record of one returned row: the run's outcome
// and its metrics in suiteMetrics order (NaN where absent). Every value is
// a small integer, exact in a float32, so a run's stored rows stay small
// next to the program's own memory.
type suiteRow struct {
	id         uint64 // hash of the row's spec ID
	rounds     int32
	messages   int32
	n, m       int32
	terminated bool
	stopped    bool
	outcome    string
	metrics    [13]float32
}

type suiteInstance struct {
	seed    int64
	sinkDir string
	mu      sync.Mutex
	rows    map[int][]suiteRow
}

// setupSuite expands the warm-up job's matrices and runs the job untimed.
// The timed jobs are expanded one by one as the run reaches them, outside
// each job's latency, so the job list has no end and holds no memory.
func setupSuite(ctx context.Context, seed int64, tr *tracer) (instance, error) {
	si := &suiteInstance{seed: seed, sinkDir: filepath.Join(".bench_build", "suite"), rows: map[int][]suiteRow{}}
	if err := os.MkdirAll(si.sinkDir, 0o755); err != nil {
		return nil, err
	}
	sp := tr.begin(-1, 0, "scenario.expand")
	specs, err := suiteJob(seed, -1)
	tr.end(sp, int64(len(specs)))
	if err != nil {
		return nil, err
	}
	if _, _, err := si.run(ctx, -1, specs, nil); err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return si, nil
}

// countingWriter counts the bytes the sink writes.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// tracedSink times every Sink.Write of a job.
type tracedSink struct {
	sink   scenario.Sink
	tr     *tracer
	op     int64
	parent int32
	count  *countingWriter
}

func (t tracedSink) Write(res scenario.Result) error {
	before := t.count.n
	sp := t.tr.begin(t.op, t.parent, "scenario.sink_write")
	err := t.sink.Write(res)
	t.tr.end(sp, t.count.n-before)
	return err
}

// run executes job j through a JSONL file sink, the way afbench -suite -out
// writes rows, and returns the rows and the latency of the Runner call.
func (si *suiteInstance) run(ctx context.Context, j int, specs []scenario.Spec, tr *tracer) ([]scenario.Result, time.Duration, error) {
	f, err := os.Create(filepath.Join(si.sinkDir, "rows.jsonl"))
	if err != nil {
		return nil, 0, err
	}
	sp := tr.begin(int64(j), 0, "scenario.run")
	var sink scenario.Sink = scenario.NewJSONLSink(f)
	if tr != nil {
		cw := &countingWriter{w: f}
		sink = tracedSink{sink: scenario.NewJSONLSink(cw), tr: tr, op: int64(j), parent: sp, count: cw}
	}
	runner := &scenario.Runner{Workers: suiteWorkers, Sink: sink}
	start := time.Now()
	rows, err := runner.Run(ctx, specs)
	lat := time.Since(start)
	tr.end(sp, int64(len(rows)))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return rows, lat, err
}

func (si *suiteInstance) op(ctx context.Context, i int, tr *tracer) (string, time.Duration, error) {
	specs, err := suiteJob(si.seed, i)
	if err != nil {
		return "job", 0, err
	}
	rows, lat, err := si.run(ctx, i, specs, tr)
	if err != nil {
		return "job", lat, err
	}
	kept := make([]suiteRow, len(rows))
	for k, r := range rows {
		if r.Err != "" {
			return "job", lat, fmt.Errorf("row %s: %s", r.Spec.ID(), r.Err)
		}
		kept[k] = suiteRow{id: hashString(r.Spec.ID()), rounds: int32(r.Rounds), n: int32(r.N), m: int32(r.M),
			messages: int32(r.TotalMessages), terminated: r.Terminated, stopped: r.Stopped, outcome: r.Outcome}
		for mi, name := range suiteMetrics {
			v, ok := r.Metrics[name]
			if !ok {
				v = math.NaN()
			}
			kept[k].metrics[mi] = float32(v)
		}
	}
	si.mu.Lock()
	si.rows[i] = kept
	si.mu.Unlock()
	return "job", lat, nil
}

// verify re-expands every completed job, rebuilds its graphs, checks the
// deterministic families' sizes against their definitions, and checks
// every row against the flood law (synchronous rows) or the model rules
// (model rows). The runner returns rows in spec-ID order.
func (si *suiteInstance) verify() error {
	var errs []error
	for j, rows := range si.rows {
		if err := si.verifyJob(j, rows); err != nil {
			errs = append(errs, fmt.Errorf("job %d: %w", j, err))
			if len(errs) == 5 {
				break
			}
		}
	}
	return errors.Join(errs...)
}

func (si *suiteInstance) verifyJob(j int, rows []suiteRow) error {
	specs, err := suiteJob(si.seed, j)
	if err != nil {
		return err
	}
	if len(rows) != len(specs) {
		return fmt.Errorf("%d rows for %d specs", len(rows), len(specs))
	}
	ids := make([]string, len(specs))
	order := make([]int, len(specs))
	for k, s := range specs {
		ids[k], order[k] = s.ID(), k
	}
	sort.Slice(order, func(a, b int) bool { return ids[order[a]] < ids[order[b]] })
	graphs := map[string]*checkedGraph{}
	for k, row := range rows {
		s := specs[order[k]]
		if row.id != hashString(ids[order[k]]) {
			return fmt.Errorf("row %d does not belong to spec %s", k, ids[order[k]])
		}
		cg, ok := graphs[s.Graph]
		if !ok {
			g, err := gen.Build(s.Graph, s.Seed)
			if err != nil {
				return err
			}
			if err := checkClosedSize(s.Graph, g.N(), g.M()); err != nil {
				return err
			}
			cg = newCheckedGraph(g)
			graphs[s.Graph] = cg
		}
		metrics := map[string]float64{}
		for mi, name := range suiteMetrics {
			if v := float64(row.metrics[mi]); !math.IsNaN(v) {
				metrics[name] = v
			}
		}
		run := oracle.Run{Protocol: s.Protocol, Model: s.Model, Analyses: s.Analyses,
			Rounds: int(row.rounds), Messages: int64(row.messages), Terminated: row.terminated,
			Stopped: row.stopped, Outcome: row.outcome, Metrics: metrics, N: int(row.n), M: int(row.m)}
		if err := cg.verify(int(s.Origins[0]), run); err != nil {
			return fmt.Errorf("row %s: %w", ids[order[k]], err)
		}
	}
	return nil
}

func (si *suiteInstance) close() {}

// hashString returns the 64-bit FNV-1a hash of s.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// checkClosedSize checks a deterministic family's node and edge counts
// against its definition.
func checkClosedSize(spec string, n, m int) error {
	family, rest, _ := strings.Cut(spec, ":")
	params := map[string]int{}
	for _, kv := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if x, err := strconv.Atoi(v); ok && err == nil {
			params[k] = x
		}
	}
	if wn, wm, ok := closedSize(family, params); ok && (wn != n || wm != m) {
		return fmt.Errorf("%s built n=%d m=%d, want %d and %d", spec, n, m, wn, wm)
	}
	return nil
}
