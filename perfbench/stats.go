package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// percentile returns the q-quantile of sorted values by linear
// interpolation between the closest ranks.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// median returns the median of values (not necessarily sorted).
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method), so spreads printed here match the ones a reader recomputes.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0] // Python refuses fewer than two points
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// mannWhitney returns the U statistic of a against b and the two-sided
// p-value under the normal approximation with tie correction.
func mannWhitney(a, b []float64) (u, p float64) {
	type obs struct {
		v   float64
		inA bool
	}
	all := make([]obs, 0, len(a)+len(b))
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	n1, n2 := float64(len(a)), float64(len(b))
	n := n1 + n2
	var rankA, tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		rank := float64(i+j+1) / 2 // average 1-based rank of the tie group
		for k := i; k < j; k++ {
			if all[k].inA {
				rankA += rank
			}
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	u = rankA - n1*(n1+1)/2
	mean := n1 * n2 / 2
	sigma := math.Sqrt(n1 * n2 / 12 * ((n + 1) - tieTerm/(n*(n-1))))
	if sigma == 0 {
		return u, 1
	}
	z := (math.Abs(u-mean) - 0.5) / sigma
	return u, math.Erfc(math.Max(z, 0) / math.Sqrt2)
}

// runSet maps workload → metric → values, read from a file of lines
// "<workload>\t<seed>\t<result JSON>" as sets.sh writes them.
type runSet map[string]map[string][]float64

func readSet(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		parts := strings.SplitN(sc.Text(), "\t", 3)
		if len(parts) != 3 {
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(parts[2]), &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if set[parts[0]] == nil {
			set[parts[0]] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			set[parts[0]][name] = append(set[parts[0]][name], m.Value)
		}
		failShare := 0.0
		if res.Attempted > 0 {
			failShare = float64(res.Failed) / float64(res.Attempted)
		}
		set[parts[0]]["failed_share"] = append(set[parts[0]]["failed_share"], failShare)
	}
	return set, sc.Err()
}

// compareMain prints, per workload and metric, each set's median,
// quartiles and IQR/median, the change of the median, and the Mann–Whitney
// U test between the two sets.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare <set A> <set B>")
	}
	a, err := readSet(args[0])
	if err != nil {
		return err
	}
	b, err := readSet(args[1])
	if err != nil {
		return err
	}
	var workloads []string
	for w := range a {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	fmt.Printf("%-6s %-34s %3s %12s %12s %12s %7s | %3s %12s %12s %12s %7s | %8s %6s %7s\n",
		"wl", "metric", "nA", "median", "q1", "q3", "iqr/med", "nB", "median", "q1", "q3", "iqr/med", "Δmedian", "U", "p")
	for _, w := range workloads {
		var metrics []string
		for m := range a[w] {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			va, vb := a[w][m], b[w][m]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			u, p := mannWhitney(va, vb)
			fmt.Printf("%-6s %-34s %3d %12.4f %12.4f %12.4f %6.1f%% | %3d %12.4f %12.4f %12.4f %6.1f%% | %+7.1f%% %6.1f %7.3f\n",
				w, m, len(va), ma, a1, a3, 100*rel(a3-a1, ma), len(vb), mb, b1, b3, 100*rel(b3-b1, mb), 100*rel(mb-ma, ma), u, p)
		}
	}
	return nil
}

// rel returns x/base, or 0 when base is 0.
func rel(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return x / base
}
