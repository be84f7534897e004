// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload from a seed for a fixed time, checks every operation it
// timed against the flood law (package oracle, written apart from the
// simulator), and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload flood --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare a.jsonl b.jsonl
//
// With --trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
// latency_p50_ms, latency_p90_ms, peak_rss_mb); with --trace 1 the run
// records spans around its calls into each layer and prints the per-layer
// metrics instead. See README.md for the workloads and what each metric
// should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	// The service package registers every protocol, model and analysis
	// family, exactly as the daemon serves them.
	_ "amnesiacflood/internal/service"
)

// setupRepeats is how many times a run performs its set-up; setup_s is the
// median, so one slow set-up (a first touch of fresh memory, a neighbour's
// burst on a shared host) does not move it.
const setupRepeats = 5

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// instance is one set-up workload, ready for its timed phase.
type instance interface {
	// op runs operation i on behalf of one closed-loop client and returns
	// the operation's kind and its latency, timed around the calls into
	// the program alone. It records whatever verify needs.
	op(ctx context.Context, i int, tr *tracer) (kind string, lat time.Duration, err error)
	// verify checks every completed operation against the oracle.
	verify() error
	// close releases the instance; it waits for anything it started.
	close()
}

// describer is an instance that can report the measured make-up of the
// operations a run completed.
type describer interface {
	describe(ctx context.Context) (map[string]float64, error)
}

// workload names a traffic mix and how to set it up.
type workload struct {
	clients int
	// round is the length of the operation list's rounds: each holds the
	// mix's exact make-up.
	round int
	// setup builds an instance from the seed; tr records set-up spans in
	// traced runs (nil otherwise).
	setup func(ctx context.Context, seed int64, tr *tracer) (instance, error)
}

var workloads = map[string]workload{
	"serve": {clients: 2, round: serveRound, setup: setupServe},
	"suite": {clients: 1, round: suiteRound, setup: setupSuite},
	"flood": {clients: 1, round: floodRound, setup: setupFlood},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload: serve, suite or flood")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs derive from")
		seconds = flag.Int("seconds", 20, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload serve|suite|flood, --seconds >= 1, --trace 0|1 (got %q, %d, %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	dur := time.Duration(*seconds) * time.Second
	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = tracedRun(*name, wl, *seed, dur)
	} else {
		res, err = plainRun(wl, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// collectHeap returns the heap to a collected state, so every set-up starts
// from the same place.
func collectHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// setUp performs the workload's set-up setupRepeats times, each from a
// collected heap, keeps the last instance and returns the median set-up
// time.
func setUp(ctx context.Context, wl workload, seed int64, tr *tracer) (instance, float64, error) {
	var (
		inst  instance
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		collectHeap()
		start := time.Now()
		var err error
		inst, err = wl.setup(ctx, seed, tr)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		tr = nil // only the first set-up is traced
	}
	return inst, median(times), nil
}

// sample is one timed operation.
type sample struct {
	kind string
	lat  time.Duration
}

// phase is the outcome of one timed phase.
type phase struct {
	samples   []sample
	attempted int
	failed    int
	rounds    int // rounds started, each after one forced collection
	wall      time.Duration
	errs      []error
}

// merge adds another phase's operations to ph.
func (ph *phase) merge(o phase) {
	ph.samples = append(ph.samples, o.samples...)
	ph.attempted += o.attempted
	ph.failed += o.failed
	ph.rounds += o.rounds
	ph.wall += o.wall
	ph.errs = append(ph.errs, o.errs...)
}

// timed drives the closed loop: each client issues the next operation as
// soon as its last one returns. Operations are taken in order from one
// shared counter starting at first (a multiple of round), and the phase
// ends at the first round boundary after dur has passed, so every phase
// attempts whole rounds of the same generated list and has the mix's exact
// make-up.
//
// The client that starts a round first collects the heap (inside the
// phase's wall time, outside any operation's latency). The peak resident
// set then measures the live state plus at most a round's garbage, rather
// than wherever the collector's pacing happened to stand when the phase
// ended.
func timed(ctx context.Context, inst instance, clients, round, first int, dur time.Duration, tr *tracer) phase {
	var (
		mu       sync.Mutex
		ph       phase
		wg       sync.WaitGroup
		next     = first
		limit    = -1
		start    = time.Now()
		deadline = start.Add(dur)
	)
	// take hands out the next operation index; ok is false once the phase
	// has reached its last round boundary.
	take := func() (i int, boundary, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if limit < 0 && !time.Now().Before(deadline) && (next-first)%round == 0 {
			limit = next
		}
		if limit >= 0 && next >= limit {
			return 0, false, false
		}
		i = next
		next++
		return i, (i-first)%round == 0, true
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, boundary, ok := take()
				if !ok {
					return
				}
				if boundary {
					runtime.GC()
					mu.Lock()
					ph.rounds++
					mu.Unlock()
				}
				kind, lat, err := inst.op(ctx, i, tr)
				mu.Lock()
				ph.attempted++
				if err != nil {
					ph.failed++
					if len(ph.errs) < 5 {
						ph.errs = append(ph.errs, fmt.Errorf("operation %d (%s): %w", i, kind, err))
					}
				} else {
					ph.samples = append(ph.samples, sample{kind, lat})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

// plainRun is the untraced run that yields the end-to-end metrics.
func plainRun(wl workload, seed int64, dur time.Duration) (result, error) {
	ctx := context.Background()
	inst, setupS, err := setUp(ctx, wl, seed, nil)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	ph := timed(ctx, inst, wl.clients, wl.round, 0, dur, nil)
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{}}
	for _, e := range ph.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed", e)
	}
	if len(ph.samples) == 0 {
		return result{}, errors.New("no operation completed")
	}
	lats := latenciesMS(ph.samples)
	res.Metrics["setup_s"] = metric{setupS, "s"}
	res.Metrics["ops_per_s"] = metric{float64(len(ph.samples)) / ph.wall.Seconds(), "1/s"}
	res.Metrics["latency_p50_ms"] = metric{percentile(lats, 0.50), "ms"}
	res.Metrics["latency_p90_ms"] = metric{percentile(lats, 0.90), "ms"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	reportBands(ph.samples)
	if d, ok := inst.(describer); ok {
		m, err := d.describe(ctx)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: make-up %v\n", m)
	}
	res.Correct = true
	if err := inst.verify(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: oracle:", err)
		res.Correct = false
	}
	return res, nil
}

// weightedRounds returns a list of n kind indices made of whole rounds:
// each round holds kind k weights[k] times, in an order shuffled by rng.
// Any prefix of the list therefore has the mix's make-up up to one round,
// whatever the seed.
func weightedRounds(rng *rand.Rand, n int, weights []int) []int {
	var round []int
	for k, w := range weights {
		for j := 0; j < w; j++ {
			round = append(round, k)
		}
	}
	out := make([]int, 0, n+len(round))
	for len(out) < n {
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		out = append(out, round...)
	}
	return out[:n]
}

func sumInts(v []int) int {
	t := 0
	for _, x := range v {
		t += x
	}
	return t
}

// latenciesMS returns the sorted latencies in milliseconds.
func latenciesMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.lat) / 1e6
	}
	sort.Float64s(out)
	return out
}

// reportBands prints every kind's latency band and, for p50 and p90, the
// kind whose band holds the percentile deepest: the percentile's margin is
// the smaller of the shares of that kind's own operations on either side
// of it. A percentile that sits where two kinds of different cost meet
// moves between runs; one with a margin of a tenth or more does not.
func reportBands(samples []sample) {
	byKind := map[string][]float64{}
	for _, s := range samples {
		byKind[s.kind] = append(byKind[s.kind], float64(s.lat)/1e6)
	}
	all := latenciesMS(samples)
	kinds := make([]string, 0, len(byKind))
	for k, v := range byKind {
		sort.Float64s(v)
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		v := byKind[k]
		fmt.Fprintf(os.Stderr, "perfbench: kind %-44s share %5.1f%%  p10 %9.3f  p50 %9.3f  p90 %9.3f ms\n",
			k, 100*float64(len(v))/float64(len(all)), percentile(v, 0.1), percentile(v, 0.5), percentile(v, 0.9))
	}
	for _, q := range []float64{0.50, 0.90} {
		p := percentile(all, q)
		best, bestMargin := "", -1.0
		for _, k := range kinds {
			v := byKind[k]
			n := float64(len(v))
			if m := min(float64(countIn(v, v[0], p))/n, float64(countIn(v, p, v[len(v)-1]))/n); m > bestMargin {
				best, bestMargin = k, m
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: p%.0f = %.3f ms (n=%d) inside %q with %.0f%% of its operations on the nearer side\n",
			100*q, p, len(all), best, 100*bestMargin)
	}
}

// countIn counts sorted values in [lo, hi].
func countIn(sorted []float64, lo, hi float64) int {
	a, _ := slices.BinarySearch(sorted, lo)
	b := sort.SearchFloat64s(sorted, hi)
	for b < len(sorted) && sorted[b] <= hi {
		b++
	}
	return b - a
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
