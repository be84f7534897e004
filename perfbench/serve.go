package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/service"
	"amnesiacflood/perfbench/oracle"
)

// The serve workload: the afsimd handler on loopback HTTP, driven by two
// closed-loop clients (one tenant each) with spec-addressed /v1/run
// requests. Most requests draw from a Zipf-weighted hot catalog, so a known
// share repeat an earlier request exactly and could be answered from a
// result cache; a share use fresh seeds, so they always miss the session
// pool, and some of these carry termination on a non-bipartite graph, which
// makes the server compute the exact diameter of a graph nobody will ask
// for again.

// serveConfig is one catalog entry: a run configuration and the response
// shape it asks for.
type serveConfig struct {
	graph    string
	engine   string
	analyses []string
	// roundEvery > 0 streams NDJSON round events every roundEvery rounds;
	// 0 asks for a unary JSON document.
	roundEvery int
}

func (c serveConfig) kind(prefix string) string {
	family, _, _ := strings.Cut(c.graph, ":")
	shape := "unary"
	if c.roundEvery > 0 {
		shape = "ndjson"
	}
	a := strings.Join(c.analyses, "+")
	if a == "" {
		a = "none"
	}
	return prefix + "/" + family + "/" + c.engine + "/" + a + "/" + shape
}

// serveHot is the hot catalog in Zipf rank order. Every graph has 2^12 to
// 2^14 nodes; termination rides only on bipartite graphs here, where it
// needs no diameter. Popularity is assigned so that p50 falls inside the
// band of the most popular configuration and p90 inside the band of the
// streamed gnp flood at rank 3 (see README.md for the bands).
var serveHot = []serveConfig{
	{"hypercube:d=12", "bitset", []string{"coverage"}, 0},
	{"torus:rows=63,cols=65", "fast", []string{"bipartite"}, 1},
	{"gnp:n=16384,p=0.0005", "bitset", nil, 2},
	{"prefattach:n=4096,m=3", "fast", []string{"bipartite"}, 1},
	{"grid:rows=64,cols=64", "fast", nil, 1},
	{"rmat:n=4096,e=16384", "fast", nil, 0},
	{"grid:rows=128,cols=128", "fast", []string{"coverage", "termination"}, 0},
	{"gnp:n=4096,p=0.002,connect=true", "fast", []string{"coverage"}, 4},
	{"torus:rows=127,cols=129", "fast", []string{"coverage"}, 0},
	{"hypercube:d=14", "fast", []string{"bipartite"}, 0},
	{"prefattach:n=8192,m=2", "bitset", nil, 0},
	{"rmat:n=16384,e=65536", "bitset", []string{"coverage"}, 8},
}

// serveFresh are the one-shot templates, alternating round by round: each
// request gets a seed no other request uses, so it always misses the
// session pool. The first carries termination on a non-bipartite graph.
var serveFresh = []serveConfig{
	{"torus:rows=63,cols=65", "fast", []string{"coverage", "termination"}, 0},
	{"gnp:n=16384,p=0.0005,connect=true", "fast", []string{"coverage"}, 0},
}

const (
	// serveFreshEvery makes every serveFreshEvery-th request a one-shot.
	// One-shot sessions stay in the pool, which never evicts: at this
	// share a run leaves it short of its 64 sessions, so hits do not
	// collapse halfway through a run (README.md, "Faults kept visible").
	serveFreshEvery = 256
	// serveZipfS is the Zipf exponent of the hot catalog's weights.
	serveZipfS = 1.1
	// serveOriginsPerConfig bounds the origins a hot configuration is asked
	// for, so exact repeats are common.
	serveOriginsPerConfig = 4
	// serveRound is the length of one round of requests; its make-up is
	// fixed and only its order depends on the seed.
	serveRound = 256
	serveOps   = 1 << 16
	// serveMaxOrigin keeps origins inside the smallest graph.
	serveMaxOrigin = 4095
)

// serveOp is one generated request.
type serveOp struct {
	fresh  bool
	config int // index into serveHot or serveFresh
	seed   int64
	origin int
}

func (o serveOp) cfg() serveConfig {
	if o.fresh {
		return serveFresh[o.config]
	}
	return serveHot[o.config]
}

// serveWeights returns how many of a round's hot slots each hot config
// takes: Zipf weights 1/rank^s, rounded down, with the slots left over
// going to the most popular configurations first.
func serveWeights(slots int) []int {
	w := make([]float64, len(serveHot))
	total := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), serveZipfS)
		total += w[i]
	}
	counts := make([]int, len(w))
	left := slots
	for i := range w {
		counts[i] = int(float64(slots) * w[i] / total)
		left -= counts[i]
	}
	for i := 0; left > 0; i = (i + 1) % len(counts) {
		counts[i]++
		left--
	}
	return counts
}

// servePlan is the request list and the hot catalog's graphs as the
// benchmark builds them for itself: origins are drawn inside each hot
// graph's largest component, and verify reuses the graphs.
type servePlan struct {
	ops    []serveOp
	graphs []*checkedGraph // per hot config
}

// plans caches each seed's plan, so repeated set-ups share it and its cost
// stays out of setup_s.
var (
	plansMu sync.Mutex
	plans   = map[int64]*servePlan{}
)

// planServe draws the request list from the seed. Each round of serveRound
// requests holds every hot config its Zipf share of slots and one fresh
// request per serveFreshEvery slots, alternating the fresh templates.
func planServe(seed int64) (*servePlan, error) {
	plansMu.Lock()
	defer plansMu.Unlock()
	if p, ok := plans[seed]; ok {
		return p, nil
	}
	rng := rand.New(rand.NewSource(seed ^ 0x7365727665))
	p := &servePlan{}
	origins := make([][]int, len(serveHot))
	for i, c := range serveHot {
		g, err := gen.Build(c.graph, seed)
		if err != nil {
			return nil, err
		}
		if err := checkClosedSize(c.graph, g.N(), g.M()); err != nil {
			return nil, err
		}
		cg := newCheckedGraph(g)
		p.graphs = append(p.graphs, cg)
		giant := cg.largestComponent()
		for j := 0; j < serveOriginsPerConfig; j++ {
			origins[i] = append(origins[i], giant[rng.Intn(len(giant))])
		}
	}
	freshSlots := serveRound / serveFreshEvery
	weights := append(serveWeights(serveRound-freshSlots), freshSlots)
	p.ops = make([]serveOp, 0, serveOps)
	nextFresh := 0
	for _, k := range weightedRounds(rng, serveOps, weights) {
		if k == len(serveHot) {
			// Fresh templates are connected graphs: any origin will do.
			p.ops = append(p.ops, serveOp{fresh: true, config: nextFresh % len(serveFresh),
				seed: seed*1_000_003 + int64(len(p.ops)) + 2, origin: rng.Intn(serveMaxOrigin)})
			nextFresh++
			continue
		}
		p.ops = append(p.ops, serveOp{config: k, seed: seed, origin: origins[k][rng.Intn(serveOriginsPerConfig)]})
	}
	plans[seed] = p
	return p, nil
}

// serveRecord is what one completed request answered.
type serveRecord struct {
	done    bool
	result  service.RunResult
	rounds  uint64 // digest of the streamed (round, messages) events
	events  int
	bytes   int
	latency time.Duration
}

type serveInstance struct {
	srv     *service.Server
	httpSrv *http.Server
	ln      net.Listener
	served  chan error
	base    string
	client  *http.Client
	ops     []serveOp
	plan    *servePlan
	records []serveRecord
	// before holds the /metrics counters scraped when set-up ended.
	before map[string]float64
}

// setupServe starts the server on a loopback listener and warms one pooled
// session per hot configuration with one request each.
func setupServe(ctx context.Context, seed int64, tr *tracer) (instance, error) {
	plan, err := planServe(seed)
	if err != nil {
		return nil, err
	}
	srv := service.New(service.Config{
		Workers: 2,
		// A trusted load generator: no rate limit and no in-flight cap, so
		// admission refuses nothing.
		Tenant:         service.TenantLimits{Rate: 0, Burst: 1, MaxInFlight: 0},
		DefaultTimeout: 2 * time.Minute,
		Logger:         slog.New(slog.DiscardHandler),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	si := &serveInstance{
		srv:     srv,
		httpSrv: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: time.Minute},
		ln:      ln,
		served:  make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}},
		ops:     plan.ops,
		plan:    plan,
	}
	go func() { si.served <- si.httpSrv.Serve(ln) }()
	si.records = make([]serveRecord, len(si.ops))
	for i, c := range serveHot {
		sp := tr.begin(-1, 0, "service.warm")
		_, err := si.request(ctx, "t0", serveOp{config: i, seed: seed, origin: 0}, c, nil)
		tr.end(sp, 0)
		if err != nil {
			si.close()
			return nil, fmt.Errorf("warming %s: %w", c.graph, err)
		}
	}
	before, err := si.scrapeMetrics(ctx)
	if err != nil {
		si.close()
		return nil, err
	}
	si.before = before
	return si, nil
}

// describe reports the measured make-up of the requests the run completed:
// the share that repeat an earlier request exactly, and the session-pool
// hits and builds the server counted.
func (si *serveInstance) describe(ctx context.Context) (map[string]float64, error) {
	after, err := si.scrapeMetrics(ctx)
	if err != nil {
		return nil, err
	}
	seen := map[serveOp]bool{}
	done, repeats := 0, 0
	for i, rec := range si.records {
		if !rec.done {
			continue
		}
		done++
		if seen[si.ops[i]] {
			repeats++
		}
		seen[si.ops[i]] = true
	}
	delta := func(name string) float64 { return after[name] - si.before[name] }
	hits, builds := delta("afsimd_session_pool_hits_total"), delta("afsimd_session_pool_builds_total")
	return map[string]float64{
		"requests":           float64(done),
		"exact_repeat_share": float64(repeats) / float64(max(done, 1)),
		"pool_hits":          hits,
		"pool_builds":        builds,
		"pool_miss_share":    builds / max(hits+builds, 1),
		"queue_wait_ms":      1000 * delta("afsimd_queue_wait_seconds_sum") / max(delta("afsimd_queue_wait_seconds_count"), 1),
	}, nil
}

// request sends one /v1/run and reads the whole answer.
func (si *serveInstance) request(ctx context.Context, tenant string, o serveOp, c serveConfig, rec *serveRecord) (time.Duration, error) {
	body := map[string]any{"graph": c.graph, "engine": c.engine, "seed": o.seed, "origins": []int{o.origin}}
	if len(c.analyses) > 0 {
		body["analyses"] = c.analyses
	}
	if c.roundEvery > 0 {
		body["roundEvery"] = c.roundEvery
	} else {
		body["stream"] = false
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, si.base+"/v1/run", bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-Tenant", tenant)
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := si.client.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var out serveRecord
	out.bytes = len(data)
	out.latency = lat
	if c.roundEvery == 0 {
		if err := json.Unmarshal(data, &out.result); err != nil {
			return lat, fmt.Errorf("decoding result: %w", err)
		}
	} else {
		h := fnv.New64a()
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		gotResult := false
		for sc.Scan() {
			var ev service.RunEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				return lat, fmt.Errorf("decoding event: %w", err)
			}
			switch ev.Event {
			case "round":
				fmt.Fprintf(h, "%d:%d;", ev.Round, ev.Messages)
				out.events++
			case "result":
				out.result = *ev.Result
				gotResult = true
			default:
				return lat, fmt.Errorf("stream ended with %s event: %s", ev.Event, ev.Error)
			}
		}
		if !gotResult {
			return lat, errors.New("stream ended without a result event")
		}
		out.rounds = h.Sum64()
	}
	out.done = true
	if rec != nil {
		*rec = out
	}
	return lat, nil
}

func (si *serveInstance) op(ctx context.Context, i int, tr *tracer) (string, time.Duration, error) {
	if i >= len(si.ops) {
		return "", 0, errors.New("request list exhausted")
	}
	o := si.ops[i]
	c := o.cfg()
	kind := c.kind(map[bool]string{true: "fresh", false: "hot"}[o.fresh])
	tenant := "t" + strconv.Itoa(i%2)
	sp := tr.begin(int64(i), 0, "service.request")
	lat, err := si.request(ctx, tenant, o, c, &si.records[i])
	// The server's own run time, as it reports it, is the request's child:
	// the request's self time is the wire and the service around the run.
	tr.record(int64(i), sp, "service.run", time.Duration(si.records[i].result.WallMicros)*time.Microsecond, 0)
	tr.end(sp, int64(si.records[i].bytes))
	return kind, lat, err
}

// verify checks every answered request: the graph's identity and size, the
// flood law for rounds, messages and analysis metrics, and every streamed
// round event's message count.
func (si *serveInstance) verify() error {
	type gkey struct {
		graph string
		seed  int64
	}
	graphs := map[gkey]*checkedGraph{}
	var errs []error
	for i, rec := range si.records {
		if !rec.done {
			continue
		}
		o := si.ops[i]
		c := o.cfg()
		key := gkey{c.graph, o.seed}
		cg, ok := graphs[key]
		if !o.fresh {
			cg, ok = si.plan.graphs[o.config], true
		}
		if !ok {
			g, err := gen.Build(c.graph, o.seed)
			if err != nil {
				return err
			}
			if err := checkClosedSize(c.graph, g.N(), g.M()); err != nil {
				return err
			}
			cg = newCheckedGraph(g)
			if !o.fresh {
				graphs[key] = cg // one-shot graphs are never asked for again
			}
		}
		err := si.verifyOne(cg, o, c, rec)
		if err != nil {
			errs = append(errs, fmt.Errorf("request %d (%s seed %d from %d): %w", i, c.graph, o.seed, o.origin, err))
			if len(errs) == 5 {
				break
			}
		}
	}
	return errors.Join(errs...)
}

func (si *serveInstance) verifyOne(cg *checkedGraph, o serveOp, c serveConfig, rec serveRecord) error {
	r := rec.result
	run := oracle.Run{Protocol: "amnesiac", Analyses: c.analyses, Rounds: r.Rounds,
		Messages: int64(r.TotalMessages), Terminated: r.Terminated, Stopped: r.Stopped,
		Outcome: r.Outcome, Metrics: r.Metrics, N: r.N, M: r.M}
	if err := cg.verify(o.origin, run); err != nil {
		return err
	}
	if r.Engine != c.engine || r.Protocol != "amnesiac" || r.Model != "sync" {
		return fmt.Errorf("answered by %s/%s/%s", r.Protocol, r.Engine, r.Model)
	}
	if family, _, _ := strings.Cut(c.graph, ":"); !strings.HasPrefix(r.Graph, family+":") {
		return fmt.Errorf("answered for graph %q", r.Graph)
	}
	if c.roundEvery == 0 {
		return nil
	}
	f, _ := cg.predict("amnesiac", o.origin)
	h := fnv.New64a()
	events := 0
	for t := c.roundEvery; t <= r.Rounds; t += c.roundEvery {
		fmt.Fprintf(h, "%d:%d;", t, f.MessagesByRound[t-1])
		events++
	}
	if events != rec.events || h.Sum64() != rec.rounds {
		return fmt.Errorf("streamed %d round events that differ from the law's %d", rec.events, events)
	}
	return nil
}

// close drains the server, shuts the listener and waits for the serving
// goroutine to end.
func (si *serveInstance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	si.srv.Drain(ctx)
	si.httpSrv.Shutdown(ctx)
	<-si.served
	si.client.CloseIdleConnections()
}

// scrapeMetrics reads GET /metrics into name → value for the unlabelled
// series (histograms as their _sum and _count).
func (si *serveInstance) scrapeMetrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, si.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := si.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
