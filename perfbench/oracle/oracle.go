// Package oracle predicts the outcome of a flood from the graph alone,
// without running any simulator code: it is the benchmark's check on every
// operation it times.
//
// The law it computes is the double-cover characterisation of amnesiac
// flooding (Hussak & Trehan, PODC 2019). On the bipartite double cover
// G×K2, whose nodes are (v, p) for p ∈ {0, 1} and whose edges join (u, p)
// to (w, 1-p) for every edge uw of G, a single-source amnesiac flood from s
// is exactly a breadth-first search from (s, 0): node v receives M in round
// t if and only if the cover distance D[v][t mod 2] equals t. The flood
// therefore ends at the largest finite cover distance, every node receives
// at most twice, and the messages of round t are the cover edges joining
// layer t-1 to layer t.
//
// Classic flooding (forward once, to every neighbour but the senders) is a
// plain breadth-first search: a node at level d sends in round d+1 to its
// neighbours at levels d and d+1.
package oracle

// Unreached marks a cover node (or BFS level) the flood never reaches.
const Unreached = -1

// Graph is an undirected simple graph in compressed sparse rows: the
// neighbours of v are Adj[Off[v]:Off[v+1]].
type Graph struct {
	Off []int32
	Adj []int32
}

// N returns the node count.
func (g *Graph) N() int { return len(g.Off) - 1 }

// M returns the undirected edge count.
func (g *Graph) M() int { return len(g.Adj) / 2 }

func (g *Graph) row(v int32) []int32 { return g.Adj[g.Off[v]:g.Off[v+1]] }

// FromRows builds a Graph from neighbour lists, for tests and small graphs.
func FromRows(rows [][]int32) *Graph {
	g := &Graph{Off: make([]int32, len(rows)+1)}
	for v, r := range rows {
		g.Off[v+1] = g.Off[v] + int32(len(r))
		g.Adj = append(g.Adj, r...)
	}
	return g
}

// Flood is the predicted outcome of one single-source flood.
type Flood struct {
	// Rounds is the number of rounds with a message in flight.
	Rounds int
	// Messages counts every (sender, receiver) delivery.
	Messages int64
	// Recv[v] is the number of distinct rounds in which v received M.
	Recv []uint8
	// Eccentricity is the BFS eccentricity of the source in its component.
	Eccentricity int
	// Component is the size of the source's connected component.
	Component int
	// ComponentBipartite reports whether the source's component is
	// bipartite.
	ComponentBipartite bool
	// WitnessRound is the first round in which some node receives M for the
	// second time (or the source receives it at all) — the round a
	// streaming odd-cycle detector stops at; 0 on a bipartite component.
	WitnessRound int
	// Witnesses counts the nodes witnessing an odd cycle in WitnessRound.
	Witnesses int
	// MessagesByRound[t-1] counts the deliveries of round t.
	MessagesByRound []int64
}

// Coverage summarises per-node receipts the way a coverage measurement
// reports them.
type Coverage struct {
	Uncovered   int
	MaxReceives int
	Receipts    int64
}

// Coverage folds Recv into the coverage summary. The source never counts as
// uncovered.
func (f *Flood) Coverage(src int) Coverage {
	var c Coverage
	for v, r := range f.Recv {
		if r == 0 && v != src {
			c.Uncovered++
		}
		c.MaxReceives = max(c.MaxReceives, int(r))
		c.Receipts += int64(r)
	}
	return c
}

// MessagesThrough returns the deliveries of rounds 1..r.
func (f *Flood) MessagesThrough(r int) int64 {
	var n int64
	for t := 0; t < r && t < len(f.MessagesByRound); t++ {
		n += f.MessagesByRound[t]
	}
	return n
}

// Amnesiac predicts a single-source amnesiac flood from src by
// breadth-first search over the double cover.
func Amnesiac(g *Graph, src int) *Flood {
	n := g.N()
	dist := make([]int32, 2*n) // dist[2v+p] is the cover distance to (v, p)
	for i := range dist {
		dist[i] = Unreached
	}
	queue := make([]int32, 0, 2*n)
	dist[2*src] = 0
	queue = append(queue, int32(2*src))
	f := &Flood{}
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		u, p := x/2, x%2
		d := dist[x]
		for _, w := range g.row(u) {
			y := 2*w + (1 - p)
			switch dist[y] {
			case Unreached:
				dist[y] = d + 1
				queue = append(queue, y)
				fallthrough
			case d + 1:
				for len(f.MessagesByRound) <= int(d) {
					f.MessagesByRound = append(f.MessagesByRound, 0)
				}
				f.MessagesByRound[d]++
				f.Messages++
			}
		}
	}
	f.Rounds = len(f.MessagesByRound)
	f.Recv = make([]uint8, n)
	f.ComponentBipartite = true
	for v := 0; v < n; v++ {
		d0, d1 := dist[2*v], dist[2*v+1]
		if d0 == Unreached && d1 == Unreached {
			continue
		}
		f.Component++
		near := d0
		if near == Unreached || (d1 != Unreached && d1 < near) {
			near = d1
		}
		f.Eccentricity = max(f.Eccentricity, int(near))
		if d0 != Unreached && d1 != Unreached {
			f.ComponentBipartite = false
		}
		second := int32(0) // the round v witnesses an odd cycle, if any
		for _, d := range [2]int32{d0, d1} {
			if d > 0 { // not unreached, nor the source's own round 0
				f.Recv[v]++
			}
		}
		switch {
		case v == src:
			second = d1
		case d0 != Unreached && d1 != Unreached:
			second = max(d0, d1)
		}
		if second > 0 {
			switch {
			case f.WitnessRound == 0 || int(second) < f.WitnessRound:
				f.WitnessRound, f.Witnesses = int(second), 1
			case int(second) == f.WitnessRound:
				f.Witnesses++
			}
		}
	}
	return f
}

// Classic predicts a single-source classic flood from src: every node
// forwards once, on its first receipt, to all neighbours but its senders.
func Classic(g *Graph, src int) *Flood {
	n := g.N()
	level := bfs(g, src)
	f := &Flood{Recv: make([]uint8, n), ComponentBipartite: true}
	for v := 0; v < n; v++ {
		d := level[v]
		if d == Unreached {
			continue
		}
		f.Component++
		f.Eccentricity = max(f.Eccentricity, int(d))
		// v sends in round d+1 to every neighbour not at level d-1; those at
		// level d receive a second copy of M in round d+1.
		var sends int64
		sameLevel := false
		for _, w := range g.row(int32(v)) {
			switch level[w] {
			case d - 1:
			case d:
				sameLevel = true
				f.ComponentBipartite = false
				sends++
			default:
				sends++
			}
		}
		if sends > 0 {
			for len(f.MessagesByRound) <= int(d) {
				f.MessagesByRound = append(f.MessagesByRound, 0)
			}
			f.MessagesByRound[d] += sends
			f.Messages += sends
		}
		if d > 0 {
			f.Recv[v] = 1
		}
		if sameLevel { // d > 0: the source is alone on level 0
			f.Recv[v]++
		}
	}
	f.Rounds = len(f.MessagesByRound)
	return f
}

// bfs returns the BFS level of every node from src (Unreached outside its
// component).
func bfs(g *Graph, src int) []int32 {
	level := make([]int32, g.N())
	for i := range level {
		level[i] = Unreached
	}
	level[src] = 0
	queue := []int32{int32(src)}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range g.row(u) {
			if level[w] == Unreached {
				level[w] = level[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return level
}

// Eccentricity returns the BFS eccentricity of v in its component.
func Eccentricity(g *Graph, v int) int {
	e := 0
	for _, d := range bfs(g, v) {
		e = max(e, int(d))
	}
	return e
}

// Bipartite reports whether the whole graph is two-colourable.
func Bipartite(g *Graph) bool {
	color := make([]int8, g.N())
	for s := range color {
		if color[s] != 0 {
			continue
		}
		color[s] = 1
		queue := []int32{int32(s)}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, w := range g.row(u) {
				switch color[w] {
				case 0:
					color[w] = -color[u]
					queue = append(queue, w)
				case color[u]:
					return false
				}
			}
		}
	}
	return true
}

// DiameterLowerBound returns a lower bound on the diameter by repeated
// double sweeps: each sweep restarts from the farthest node of the last.
// It is exact on trees and usually on sparse random graphs, and costs
// sweeps breadth-first searches instead of one per node.
func DiameterLowerBound(g *Graph, start, sweeps int) int {
	best, v := 0, start
	for i := 0; i < sweeps; i++ {
		level := bfs(g, v)
		far := v
		for w, d := range level {
			if int(d) > best {
				best, far = int(d), w
			}
		}
		if far == v {
			break
		}
		v = far
	}
	return best
}

// Diameter returns the exact diameter (the largest eccentricity over every
// component) with one breadth-first search per node. It is for tests and
// small graphs only.
func Diameter(g *Graph) int {
	d := 0
	for v := 0; v < g.N(); v++ {
		d = max(d, Eccentricity(g, v))
	}
	return d
}
