package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"amnesiacflood/internal/graph"
	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/scenario"
	"amnesiacflood/internal/sim"
	"amnesiacflood/perfbench/oracle"
)

// The traced run yields the per-layer metrics. It records spans around the
// benchmark's own calls into each layer (gen, sim, the two engines, the
// analyses, the models, scenario and service) and folds them into the
// figures below. Each figure is named after the layer it times; README.md
// maps each to the end-to-end metric it should move.
//
// The run has four parts:
//
//  1. the workload's set-up, traced (gen.build, sim.new);
//  2. after one warm-up round, a third of the run untraced, for ops/s, allocations and GCs, and
//  3. a third traced, for the tracing overhead and the workload's own
//     layer figures (service.* on serve, scenario.* on suite), the two in
//     alternating sixths;
//  4. probes for the layers the workload does not reach: the engine probe
//     on the flood graphs, the termination and model probes on the suite
//     graphs, and short traced segments of serve and suite.
//
// End-to-end figures never come from this run.

// traceDir is where the spans are written, under the checkout.
var traceDir = filepath.Join(".bench_build", "spans")

func tracedRun(name string, wl workload, seed int64, dur time.Duration) (result, error) {
	ctx := context.Background()
	tr := newTracer()
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }

	inst, _, err := setUp(ctx, wl, seed, tr)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	setupStats := tr.stats()
	collectHeap()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	put("runtime.heap_after_setup_mb", "MB", float64(ms.HeapAlloc)/(1<<20))

	// 2-3. Two thirds of the run in four alternating segments, untraced
	// and traced, continuing one operation list: alternation keeps a
	// warm-up drift from posing as tracing overhead. Allocations and
	// collections are counted over the untraced segments.
	var svcBefore map[string]float64
	if si, ok := inst.(*serveInstance); ok {
		if svcBefore, err = si.scrapeMetrics(ctx); err != nil {
			return result{}, err
		}
	}
	seg := dur / 6
	var plain, traced phase
	var allocBytes uint64
	var gcs int
	// One untimed round first absorbs the start-up transient (on serve,
	// the pool's first duplicate sessions).
	next := timed(ctx, inst, wl.clients, wl.round, 0, 0, nil).attempted
	for k := 0; k < 4; k++ {
		if k%2 == 1 {
			ph := timed(ctx, inst, wl.clients, wl.round, next, seg, tr)
			traced.merge(ph)
			next += ph.attempted
			continue
		}
		runtime.ReadMemStats(&ms)
		before := ms
		ph := timed(ctx, inst, wl.clients, wl.round, next, seg, nil)
		runtime.ReadMemStats(&ms)
		allocBytes += ms.TotalAlloc - before.TotalAlloc
		// The collections the loop forces at round starts are not the
		// program's.
		gcs += int(ms.NumGC-before.NumGC) - ph.rounds
		plain.merge(ph)
		next += ph.attempted
	}
	ops := float64(max(len(plain.samples), 1))
	put("runtime.alloc_mb_per_op", "MB", float64(allocBytes)/(1<<20)/ops)
	put("runtime.gc_per_op", "count", float64(gcs)/ops)
	untracedRate := float64(len(plain.samples)) / plain.wall.Seconds()
	tracedRate := float64(len(traced.samples)) / traced.wall.Seconds()
	put("trace.overhead_pct", "%", 100*(untracedRate/tracedRate-1))

	// Layer figures of the workload's own set-up.
	switch name {
	case "flood":
		genFigures(put, []float64{setupStats["gen.build"].totalMS}, setupStats["gen.build"].totalCount)
		put("sim.new_ms", "ms", setupStats["sim.new"].totalMS)
	case "suite":
		if err := suiteSetFigures(put, seed); err != nil {
			return result{}, err
		}
	case "serve":
		if err := serveSetFigures(put, seed); err != nil {
			return result{}, err
		}
	}

	// Service and scenario figures: from the traced third when the
	// workload reaches that layer, else from a short traced segment.
	switch si := inst.(type) {
	case *serveInstance:
		if err := serveFigures(ctx, put, si, svcBefore, 0, next, tr); err != nil {
			return result{}, err
		}
	default:
		if err := withSegment(ctx, "serve", seed, seg/2, tr, func(inst instance, n int, before map[string]float64) error {
			return serveFigures(ctx, put, inst.(*serveInstance), before, 0, n, tr)
		}); err != nil {
			return result{}, err
		}
	}
	if name != "suite" {
		if err := withSegment(ctx, "suite", seed, seg/2, tr, nil); err != nil {
			return result{}, err
		}
	}
	suiteFigures(put, tr)

	// 4. Probes.
	var floodGraphsBuilt [2]*graph.Graph
	if fi, ok := inst.(*floodInstance); ok {
		floodGraphsBuilt = fi.graphs
	} else {
		for i, spec := range floodGraphs {
			if floodGraphsBuilt[i], err = gen.Build(spec, seed); err != nil {
				return result{}, err
			}
		}
	}
	if err := engineProbe(ctx, put, seed, floodGraphsBuilt, tr); err != nil {
		return result{}, err
	}
	floodGraphsBuilt = [2]*graph.Graph{}
	if err := suiteProbes(ctx, put, seed, tr); err != nil {
		return result{}, err
	}

	printSpans(tr)
	if err := tr.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)); err != nil {
		return result{}, err
	}
	res := result{Attempted: plain.attempted + traced.attempted, Failed: plain.failed + traced.failed, Metrics: out, Correct: true}
	for _, e := range append(plain.errs, traced.errs...) {
		fmt.Fprintln(os.Stderr, "perfbench: failed", e)
	}
	if err := inst.verify(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: oracle:", err)
		res.Correct = false
	}
	fmt.Fprintf(os.Stderr, "perfbench: traced run: %.1f ops/s untraced, %.1f ops/s traced, spans in %s\n",
		untracedRate, tracedRate, traceDir)
	return res, nil
}

// withSegment sets up another workload untraced, runs it traced for d and
// hands the instance to figures (nil: the spans alone suffice).
func withSegment(ctx context.Context, name string, seed int64, d time.Duration, tr *tracer,
	figures func(inst instance, n int, before map[string]float64) error) error {
	wl := workloads[name]
	inst, err := wl.setup(ctx, seed, nil)
	if err != nil {
		return fmt.Errorf("%s segment: %w", name, err)
	}
	defer inst.close()
	var before map[string]float64
	if si, ok := inst.(*serveInstance); ok {
		if before, err = si.scrapeMetrics(ctx); err != nil {
			return err
		}
	}
	ph := timed(ctx, inst, wl.clients, wl.round, 0, d, tr)
	if ph.failed > 0 {
		return fmt.Errorf("%s segment: %d operations failed: %v", name, ph.failed, errors.Join(ph.errs...))
	}
	if figures == nil {
		return nil
	}
	return figures(inst, ph.attempted, before)
}

// genFigures records gen.build_ms (the median time to build one set of the
// workload's graphs) and gen.edges_per_s.
func genFigures(put func(string, string, float64), setMS []float64, edges int64) {
	total := 0.0
	for _, v := range setMS {
		total += v
	}
	put("gen.build_ms", "ms", median(setMS))
	put("gen.edges_per_s", "1/s", float64(edges)/(total/1e3))
}

// timeSets builds each set of (spec, seed) graphs and opens one session per
// option list on them, timing gen.Build and sim.New per set.
func timeSets(put func(string, string, float64), sets [][]graphJob) error {
	var genMS, newMS []float64
	var edges int64
	for _, set := range sets {
		gms, nms := 0.0, 0.0
		for _, job := range set {
			start := time.Now()
			g, err := gen.Build(job.spec, job.seed)
			if err != nil {
				return err
			}
			gms += float64(time.Since(start)) / 1e6
			edges += int64(g.M())
			for _, opts := range job.sessions {
				start = time.Now()
				if _, err := sim.New(g, opts...); err != nil {
					return err
				}
				nms += float64(time.Since(start)) / 1e6
			}
		}
		genMS, newMS = append(genMS, gms), append(newMS, nms)
	}
	genFigures(put, genMS, edges)
	put("sim.new_ms", "ms", median(newMS))
	return nil
}

// graphJob is one graph of a set and the sessions a workload opens on it.
type graphJob struct {
	spec     string
	seed     int64
	sessions [][]sim.Option
}

// suiteSetFigures times building one job's six graphs and opening the
// job's sessions on them (sim.New per group), over the first eight jobs.
func suiteSetFigures(put func(string, string, float64), seed int64) error {
	var sets [][]graphJob
	for j := 0; j < 8; j++ {
		specs, err := suiteJob(seed, j)
		if err != nil {
			return err
		}
		byGraph := map[string]*graphJob{}
		var order []string
		seen := map[string]bool{}
		for _, s := range specs {
			gj, ok := byGraph[s.Graph]
			if !ok {
				gj = &graphJob{spec: s.Graph, seed: s.Seed}
				byGraph[s.Graph] = gj
				order = append(order, s.Graph)
			}
			if key := scenario.GroupKey(s); !seen[key] {
				seen[key] = true
				gj.sessions = append(gj.sessions, suiteSessionOptions(s))
			}
		}
		var set []graphJob
		for _, g := range order {
			set = append(set, *byGraph[g])
		}
		sets = append(sets, set)
	}
	return timeSets(put, sets)
}

// suiteSessionOptions mirrors the options a scenario group's session is
// opened with.
func suiteSessionOptions(s scenario.Spec) []sim.Option {
	kind, _ := sim.ParseEngine(s.Engine)
	opts := []sim.Option{sim.WithProtocol(s.Protocol), sim.WithEngine(kind), sim.WithSeed(s.Seed),
		sim.WithMaxRounds(s.MaxRounds), sim.WithAnalysis(s.Analyses...)}
	if s.Model != "" {
		opts = append(opts, sim.WithModel(s.Model))
	}
	return opts
}

// serveSetFigures times building the serve catalog's graphs (the twelve hot
// configurations and the one-shot templates) and opening their sessions,
// three times.
func serveSetFigures(put func(string, string, float64), seed int64) error {
	var set []graphJob
	for _, c := range append(append([]serveConfig(nil), serveHot...), serveFresh...) {
		kind, err := sim.ParseEngine(c.engine)
		if err != nil {
			return err
		}
		set = append(set, graphJob{spec: c.graph, seed: seed,
			sessions: [][]sim.Option{{sim.WithEngine(kind), sim.WithAnalysis(c.analyses...)}}})
	}
	return timeSets(put, [][]graphJob{set, set, set})
}

// serveFigures folds the serve requests [from, to) and the /metrics deltas
// since before into the service.* figures.
func serveFigures(ctx context.Context, put func(string, string, float64), si *serveInstance,
	before map[string]float64, from, to int, tr *tracer) error {
	after, err := si.scrapeMetrics(ctx)
	if err != nil {
		return err
	}
	var overhead, bytes, hot []float64
	fresh := map[int][]float64{} // one-shot latencies per template
	for i := from; i < to && i < len(si.records); i++ {
		rec := si.records[i]
		if !rec.done {
			continue
		}
		lat := float64(rec.latency) / 1e6
		overhead = append(overhead, lat-float64(rec.result.WallMicros)/1e3)
		bytes = append(bytes, float64(rec.bytes))
		if o := si.ops[i]; o.fresh {
			fresh[o.config] = append(fresh[o.config], lat)
		} else {
			hot = append(hot, lat)
		}
	}
	if len(hot) == 0 || len(fresh) == 0 {
		return fmt.Errorf("serve segment completed %d hot requests and one-shots of %d templates; need both", len(hot), len(fresh))
	}
	// The templates alternate by round and differ tenfold in cost, so the
	// miss latency is the mean of their medians, not a median over a
	// count of each that depends on how many rounds the segment ran.
	missMS := 0.0
	for _, lats := range fresh {
		missMS += median(lats) / float64(len(fresh))
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	hits, builds := delta("afsimd_session_pool_hits_total"), delta("afsimd_session_pool_builds_total")
	put("service.overhead_ms", "ms", median(overhead))
	put("service.response_bytes", "B", median(bytes))
	put("service.hit_latency_ms", "ms", median(hot))
	put("service.miss_latency_ms", "ms", missMS)
	put("service.pool_hits", "count", hits)
	put("service.pool_builds", "count", builds)
	put("service.pool_hit_ratio", "ratio", hits/max(hits+builds, 1))
	put("service.queue_wait_ms", "ms", 1e3*delta("afsimd_queue_wait_seconds_sum")/max(delta("afsimd_queue_wait_seconds_count"), 1))
	return nil
}

// suiteFigures folds the scenario.run and scenario.sink_write spans.
func suiteFigures(put func(string, string, float64), tr *tracer) {
	st := tr.stats()
	run, sink := st["scenario.run"], st["scenario.sink_write"]
	put("scenario.rows_per_s", "1/s", float64(run.totalCount)/(run.totalMS/1e3))
	put("scenario.rows_per_job", "count", float64(run.totalCount)/float64(max(run.count, 1)))
	put("scenario.sink_write_us", "us", 1e3*sink.medianMS)
	put("scenario.sink_bytes_per_row", "B", float64(sink.totalCount)/float64(max(sink.count, 1)))
	specs, _ := suiteJob(0, 0)
	groups := map[string]bool{}
	for _, s := range specs {
		groups[scenario.GroupKey(s)] = true
	}
	put("scenario.groups_per_job", "count", float64(len(groups)))
}

// engineProbe measures both engines on both flood graphs from three
// origins: engine preparation (a fresh session's first flood minus the
// warm median from the same origin), warm unobserved floods, and the cost
// of the coverage observer (warm observed minus warm unobserved).
func engineProbe(ctx context.Context, put func(string, string, float64), seed int64, graphs [2]*graph.Graph, tr *tracer) error {
	pools, _ := floodPlan(seed, graphs)
	graphName := [2]string{"gnp", "grid"}
	for _, eng := range []struct {
		kind  sim.EngineKind
		layer string
	}{{sim.Fast, "fastengine"}, {sim.Bitset, "bitengine"}} {
		var prepare []float64
		var msgs int64
		var plainMS float64
		var covDelta []float64
		for gi, g := range graphs {
			origins := pools[gi][:3]
			warm := map[bool][]float64{}
			for _, cov := range []bool{false, true} {
				opts := []sim.Option{sim.WithEngine(eng.kind)}
				if cov {
					opts = append(opts, sim.WithAnalysis("coverage"))
				}
				sess, err := sim.New(g, opts...)
				if err != nil {
					return err
				}
				name := eng.layer + "." + graphName[gi]
				if cov {
					name += ".coverage"
				}
				sp := tr.begin(-1, 0, name+".first")
				start := time.Now()
				if _, err := sess.RunFrom(ctx, origins[:1]); err != nil {
					return err
				}
				firstMS := float64(time.Since(start)) / 1e6
				tr.end(sp, 0)
				reps := 3
				if cov && eng.kind == sim.Bitset && gi == 0 {
					reps = 1 // about a second per flood
				}
				for r := 0; r < reps; r++ {
					for _, o := range origins {
						sp := tr.begin(-1, 0, name+".warm")
						start := time.Now()
						res, err := sess.RunFrom(ctx, []graph.NodeID{o})
						if err != nil {
							return err
						}
						d := float64(time.Since(start)) / 1e6
						tr.end(sp, int64(res.TotalMessages))
						warm[cov] = append(warm[cov], d)
						if !cov {
							msgs += int64(res.TotalMessages)
							plainMS += d
						}
					}
				}
				if !cov {
					// The warm median from the first origin alone.
					var same []float64
					for k := 0; k < len(warm[cov]); k += len(origins) {
						same = append(same, warm[cov][k])
					}
					prepare = append(prepare, firstMS-median(same))
				}
			}
			put(eng.layer+".run_ms."+graphName[gi], "ms", median(warm[false]))
			covDelta = append(covDelta, median(warm[true])-median(warm[false]))
		}
		put(eng.layer+".prepare_ms", "ms", prepare[0]+prepare[1])
		put(eng.layer+".msgs_per_s", "1/s", float64(msgs)/(plainMS/1e3))
		short := map[sim.EngineKind]string{sim.Fast: "fast", sim.Bitset: "bitset"}[eng.kind]
		// Summed over both graphs: what one observed flood on each costs
		// beyond an unobserved one.
		put("analysis.coverage_"+short+"_ms", "ms", covDelta[0]+covDelta[1])
	}
	return nil
}

// suiteProbes measures, on the non-bipartite suite graphs of the first
// four jobs, the first termination run of a fresh session minus a warm one
// (the exact diameter the analysis computes once per session), and warm
// floods under each of the suite's non-synchronous models.
func suiteProbes(ctx context.Context, put func(string, string, float64), seed int64, tr *tracer) error {
	var termFirst, modelMS []float64
	for j := 0; j < 4; j++ {
		jobSeed := seed*1_000_003 + int64(j)
		for _, spec := range suiteGraphs {
			g, err := gen.Build(spec, jobSeed)
			if err != nil {
				return err
			}
			origin := []graph.NodeID{graph.NodeID(j % g.N())}
			if !oracle.Bipartite(oracleGraph(g)) {
				sess, err := sim.New(g, sim.WithEngine(sim.Fast), sim.WithAnalysis("termination"))
				if err != nil {
					return err
				}
				sp := tr.begin(-1, 0, "analysis.termination.first")
				start := time.Now()
				if _, err := sess.RunFrom(ctx, origin); err != nil {
					return err
				}
				first := time.Since(start)
				tr.end(sp, 0)
				sp = tr.begin(-1, 0, "analysis.termination.warm")
				start = time.Now()
				if _, err := sess.RunFrom(ctx, origin); err != nil {
					return err
				}
				warm := time.Since(start)
				tr.end(sp, 0)
				termFirst = append(termFirst, float64(first-warm)/1e6)
			}
			for _, m := range suiteModels {
				sess, err := sim.New(g, sim.WithModel(m), sim.WithMaxRounds(suiteMaxRounds), sim.WithAnalysis(suiteAnalyses...))
				if err != nil {
					return err
				}
				if _, err := sess.RunFrom(ctx, origin); err != nil {
					return err
				}
				sp := tr.begin(-1, 0, "model.run")
				start := time.Now()
				if _, err := sess.RunFrom(ctx, origin); err != nil {
					return err
				}
				modelMS = append(modelMS, float64(time.Since(start))/1e6)
				tr.end(sp, 0)
			}
		}
	}
	put("analysis.termination_first_ms", "ms", median(termFirst))
	put("model.run_ms", "ms", median(modelMS))
	return nil
}

// printSpans prints each span name's count, median duration and summed
// self time (duration minus what its children cover).
func printSpans(tr *tracer) {
	st := tr.stats()
	names := make([]string, 0, len(st))
	for k := range st {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		s := st[k]
		fmt.Fprintf(os.Stderr, "perfbench: span %-36s n %6d  median %10.3f ms  total %10.1f ms  self %10.1f ms\n",
			k, s.count, s.medianMS, s.totalMS, s.selfMS)
	}
}
