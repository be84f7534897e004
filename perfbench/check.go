package main

import (
	"fmt"
	"hash/fnv"
	"sync"

	"amnesiacflood/internal/graph"
	"amnesiacflood/perfbench/oracle"
)

// oracleGraph copies a built graph into the oracle's own representation,
// so the law is computed over plain arrays and never through simulator
// code.
func oracleGraph(g *graph.Graph) *oracle.Graph {
	n := g.N()
	og := &oracle.Graph{Off: make([]int32, n+1), Adj: make([]int32, 0, 2*g.M())}
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(graph.NodeID(v)) {
			og.Adj = append(og.Adj, int32(w))
		}
		og.Off[v+1] = int32(len(og.Adj))
	}
	return og
}

// closedSize returns the node and edge counts a deterministic family must
// have, from its definition; ok is false for random families.
func closedSize(family string, p map[string]int) (n, m int, ok bool) {
	switch family {
	case "grid":
		r, c := p["rows"], p["cols"]
		return r * c, r*(c-1) + c*(r-1), true
	case "torus":
		r, c := p["rows"], p["cols"]
		return r * c, 2 * r * c, true
	case "hypercube":
		d := p["d"]
		return 1 << d, d << (d - 1), true
	case "cycle":
		return p["n"], p["n"], true
	case "path":
		return p["n"], p["n"] - 1, true
	}
	return 0, 0, false
}

// checkedGraph is one graph the oracle knows, with its predictions cached
// per protocol and source.
type checkedGraph struct {
	g     *oracle.Graph
	facts oracle.Facts
	mu    sync.Mutex
	preds map[string]*oracle.Flood
}

func newCheckedGraph(g *graph.Graph) *checkedGraph {
	og := oracleGraph(g)
	return &checkedGraph{g: og, facts: oracle.GraphFacts(og, 0), preds: map[string]*oracle.Flood{}}
}

// predict returns the cached synchronous prediction.
func (c *checkedGraph) predict(protocol string, src int) (*oracle.Flood, error) {
	key := fmt.Sprintf("%s/%d", protocol, src)
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.preds[key]; ok {
		return f, nil
	}
	f, err := oracle.Predict(c.g, protocol, src)
	if err != nil {
		return nil, err
	}
	c.preds[key] = f
	return f, nil
}

// verify checks one reported run from src.
func (c *checkedGraph) verify(src int, r oracle.Run) error {
	if src < 0 || src >= c.g.N() {
		return fmt.Errorf("origin %d outside a %d-node graph", src, c.g.N())
	}
	f, err := c.predict(r.Protocol, src)
	if err != nil {
		return err
	}
	return f.Verify(c.g, c.facts, src, r)
}

// largestComponent returns the nodes of the graph's largest connected
// component.
func (c *checkedGraph) largestComponent() []int {
	n := c.g.N()
	label := make([]int32, n)
	for i := range label {
		label[i] = -1
	}
	best, bestSize := int32(-1), 0
	for s := 0; s < n; s++ {
		if label[s] >= 0 {
			continue
		}
		id := int32(s)
		label[s] = id
		size := 0
		queue := []int32{int32(s)}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			size++
			for _, w := range c.g.Adj[c.g.Off[u]:c.g.Off[u+1]] {
				if label[w] < 0 {
					label[w] = id
					queue = append(queue, w)
				}
			}
		}
		if size > bestSize {
			best, bestSize = id, size
		}
	}
	out := make([]int, 0, bestSize)
	for v, l := range label {
		if l == best {
			out = append(out, v)
		}
	}
	return out
}

// recvDigest hashes per-node receive counts, so a run's counts can be kept
// in eight bytes and compared with the oracle's Recv after the timed phase.
func recvDigest[T int | uint8](counts []T) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 4096)
	for _, c := range counts {
		buf = append(buf, byte(c))
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return h.Sum64()
}
