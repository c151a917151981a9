package main

// The benchmark's own correctness oracle. It reads the generated input files
// with its own parser and answers every question the checks ask — core
// numbers, connected k-cores, brute-force ACQ, CPJ and CMF — without calling
// into the program under test.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Oracle is an attributed graph held in plain slices: sorted adjacency,
// sorted keyword IDs per vertex (in the oracle's own vocabulary), names and
// core numbers.
type Oracle struct {
	Adj    [][]int32
	KW     [][]int32
	Names  []string
	Words  []string
	Vocab  map[string]int32
	ByName map[string]int32
	Core   []int32

	mark    []int32 // epoch stamps: mark[v]==epoch means v is in the working set
	deg     []int32
	epoch   int32
	seen    []int32
	comps   map[int]*components // connected k-cores of the whole graph, per k
	holders [][]int32           // sorted vertices carrying each keyword
}

// components labels the connected components of one k-core.
type components struct {
	of      []int32 // component index per vertex, -1 outside the k-core
	members [][]int32
}

// LoadOracle parses an edge-list file and an attribute file.
func LoadOracle(edgesPath, attrsPath string) (*Oracle, error) {
	ef, err := os.Open(edgesPath)
	if err != nil {
		return nil, err
	}
	defer ef.Close()
	af, err := os.Open(attrsPath)
	if err != nil {
		return nil, err
	}
	defer af.Close()
	return ParseOracle(ef, af)
}

// ParseOracle reads "u v" edge lines and "id<TAB>name<TAB>kw kw ..."
// attribute lines. Self loops and duplicate edges are dropped.
func ParseOracle(edges, attrs io.Reader) (*Oracle, error) {
	o := &Oracle{Vocab: map[string]int32{}, ByName: map[string]int32{}}
	grow := func(v int32) {
		for int(v) >= len(o.Adj) {
			o.Adj = append(o.Adj, nil)
			o.KW = append(o.KW, nil)
			o.Names = append(o.Names, "")
		}
	}
	sc := bufio.NewScanner(edges)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) < 2 {
			return nil, fmt.Errorf("oracle: bad edge line %q", sc.Text())
		}
		u, err1 := strconv.Atoi(f[0])
		v, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil || u < 0 || v < 0 {
			return nil, fmt.Errorf("oracle: bad edge line %q", sc.Text())
		}
		grow(int32(max(u, v)))
		if u != v {
			o.Adj[u] = append(o.Adj[u], int32(v))
			o.Adj[v] = append(o.Adj[v], int32(u))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sc = bufio.NewScanner(attrs)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, "\t", 3)
		id, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil || id < 0 {
			return nil, fmt.Errorf("oracle: bad attribute line %q", line)
		}
		grow(int32(id))
		if len(parts) >= 2 && parts[1] != "" {
			o.Names[id] = parts[1]
			if _, dup := o.ByName[parts[1]]; !dup {
				o.ByName[parts[1]] = int32(id)
			}
		}
		if len(parts) == 3 {
			for _, w := range strings.Fields(parts[2]) {
				o.KW[id] = append(o.KW[id], o.word(w))
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for v := range o.Adj {
		slices.Sort(o.Adj[v])
		o.Adj[v] = slices.Compact(o.Adj[v])
		slices.Sort(o.KW[v])
		o.KW[v] = slices.Compact(o.KW[v])
	}
	o.mark = make([]int32, len(o.Adj))
	o.seen = make([]int32, len(o.Adj))
	o.deg = make([]int32, len(o.Adj))
	o.holders = make([][]int32, len(o.Words))
	for v, kws := range o.KW {
		for _, w := range kws {
			o.holders[w] = append(o.holders[w], int32(v))
		}
	}
	o.Core = o.coreNumbers()
	return o, nil
}

func (o *Oracle) word(w string) int32 {
	id, ok := o.Vocab[w]
	if !ok {
		id = int32(len(o.Words))
		o.Vocab[w] = id
		o.Words = append(o.Words, w)
	}
	return id
}

// N is the vertex count.
func (o *Oracle) N() int { return len(o.Adj) }

// Degree is the vertex degree in the input graph.
func (o *Oracle) Degree(v int32) int { return len(o.Adj[v]) }

// HasEdge reports whether u–v is an input edge.
func (o *Oracle) HasEdge(u, v int32) bool {
	_, ok := slices.BinarySearch(o.Adj[u], v)
	return ok
}

// WordIDs maps keyword strings to sorted oracle IDs; ok is false when a word
// is not in the input vocabulary.
func (o *Oracle) WordIDs(words []string) (ids []int32, ok bool) {
	for _, w := range words {
		id, found := o.Vocab[w]
		if !found {
			return nil, false
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return slices.Compact(ids), true
}

// coreNumbers peels level by level: at level k every vertex whose remaining
// degree is at most k is removed with core number k.
func (o *Oracle) coreNumbers() []int32 {
	n := o.N()
	core := make([]int32, n)
	deg := make([]int, n)
	for v := range o.Adj {
		deg[v] = len(o.Adj[v])
	}
	done := make([]bool, n)
	for k, remaining := 0, n; remaining > 0; k++ {
		var queue []int32
		for v := range deg {
			if !done[v] && deg[v] <= k {
				queue = append(queue, int32(v))
			}
		}
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if done[v] {
				continue
			}
			done[v] = true
			core[v] = int32(k)
			remaining--
			for _, u := range o.Adj[v] {
				if !done[u] {
					deg[u]--
					if deg[u] <= k {
						queue = append(queue, u)
					}
				}
			}
		}
	}
	return core
}

// kcore peels cand (any order, no duplicates) down to its k-core and leaves
// the survivors stamped with the current epoch; it returns the survivors.
func (o *Oracle) kcore(cand []int32, k int) []int32 {
	o.epoch++
	e := o.epoch
	for _, v := range cand {
		o.mark[v] = e
	}
	var queue []int32
	for _, v := range cand {
		d := int32(0)
		for _, u := range o.Adj[v] {
			if o.mark[u] == e {
				d++
			}
		}
		o.deg[v] = d
	}
	for _, v := range cand {
		if int(o.deg[v]) < k {
			queue = append(queue, v)
			o.mark[v] = -e
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, u := range o.Adj[v] {
			if o.mark[u] == e {
				o.deg[u]--
				if int(o.deg[u]) < k {
					o.mark[u] = -e
					queue = append(queue, u)
				}
			}
		}
	}
	out := make([]int32, 0, len(cand))
	for _, v := range cand {
		if o.mark[v] == e {
			out = append(out, v)
		}
	}
	return out
}

// ConnectedKCore returns the connected component containing q of the k-core
// of the subgraph induced by cand, sorted, or nil when q is not in it.
func (o *Oracle) ConnectedKCore(cand []int32, k int, q int32) []int32 {
	o.kcore(cand, k)
	e := o.epoch
	if o.mark[q] != e {
		return nil
	}
	comp := []int32{q}
	o.mark[q] = -e
	for i := 0; i < len(comp); i++ {
		for _, u := range o.Adj[comp[i]] {
			if o.mark[u] == e {
				o.mark[u] = -e
				comp = append(comp, u)
			}
		}
	}
	slices.Sort(comp)
	return comp
}

// CoreComponent returns the connected k-core containing q in the whole
// graph (sorted), or nil when core(q) < k. Components are computed once per
// k.
func (o *Oracle) CoreComponent(q int32, k int) []int32 {
	if o.comps == nil {
		o.comps = map[int]*components{}
	}
	c := o.comps[k]
	if c == nil {
		c = &components{of: make([]int32, o.N())}
		for v := range c.of {
			c.of[v] = -1
		}
		for v := range o.Adj {
			if c.of[v] < 0 && int(o.Core[v]) >= k {
				comp := o.ConnectedKCore(o.All(), k, int32(v))
				for _, u := range comp {
					c.of[u] = int32(len(c.members))
				}
				c.members = append(c.members, comp)
			}
		}
		o.comps[k] = c
	}
	if c.of[q] < 0 {
		return nil
	}
	return c.members[c.of[q]]
}

// All returns every vertex ID.
func (o *Oracle) All() []int32 {
	out := make([]int32, o.N())
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// withAll returns the vertices of q's connected k-core that carry every
// keyword of T, walking the shortest keyword's holder list.
func (o *Oracle) withAll(q int32, k int, T []int32) []int32 {
	U := o.CoreComponent(q, k)
	if len(T) == 0 || U == nil {
		return U
	}
	c := o.comps[k]
	short := o.holders[T[0]]
	for _, w := range T[1:] {
		if len(o.holders[w]) < len(short) {
			short = o.holders[w]
		}
	}
	var out []int32
	for _, v := range short {
		if c.of[v] == c.of[q] && containsAll(o.KW[v], T) {
			out = append(out, v)
		}
	}
	return out
}

// Answer is one ACQ community: its shared keyword IDs and sorted members.
type Answer struct {
	L []int32
	V []int32
}

// ACQ answers an attributed community query by brute force: every subset of
// S∩W(q), largest first; the first size with any admissible subset gives
// the answers. With no admissible keyword the answer is the keywordless
// connected k-core. S==nil means W(q). Exponential in |S|: use it for small
// explicit keyword sets only.
func (o *Oracle) ACQ(q int32, k int, S []int32) []Answer {
	U := o.CoreComponent(q, k)
	if U == nil {
		return nil
	}
	if S == nil {
		S = o.KW[q]
	} else {
		S = intersect(S, o.KW[q])
	}
	for r := len(S); r >= 1; r-- {
		var answers []Answer
		forSubsets(S, r, func(T []int32) {
			if C := o.ConnectedKCore(o.withAll(q, k, T), k, q); C != nil {
				answers = append(answers, Answer{L: slices.Clone(T), V: C})
			}
		})
		if len(answers) > 0 {
			return answers
		}
	}
	return []Answer{{V: U}}
}

// forSubsets calls fn with every size-r subset of S (sorted input gives
// sorted subsets); fn must not keep the slice.
func forSubsets(S []int32, r int, fn func([]int32)) {
	buf := make([]int32, 0, r)
	var rec func(start int)
	rec = func(start int) {
		if len(buf) == r {
			fn(buf)
			return
		}
		for i := start; i <= len(S)-(r-len(buf)); i++ {
			buf = append(buf, S[i])
			rec(i + 1)
			buf = buf[:len(buf)-1]
		}
	}
	rec(0)
}

// CheckCommunity verifies one ACQ answer against the method's definition:
// it contains q, it is exactly the connected k-core containing q of the
// vertices carrying every shared keyword, the shared keywords lie in base
// (S∩W(q), or W(q)), and no further keyword of base extends them to a set
// that still admits a community. Keywordless answers must equal q's
// connected k-core.
func (o *Oracle) CheckCommunity(q int32, k int, base []int32, shared []string, vertices []int32) error {
	L, ok := o.WordIDs(shared)
	if !ok {
		return fmt.Errorf("shared keywords %v not in the input vocabulary", shared)
	}
	if !containsAll(base, L) {
		return fmt.Errorf("shared keywords %v not within the query keywords", shared)
	}
	V := slices.Clone(vertices)
	slices.Sort(V)
	if _, found := slices.BinarySearch(V, q); !found {
		return fmt.Errorf("community of %d vertices does not contain q=%d", len(V), q)
	}
	if err := o.CheckCohesive(V, k, nil); err != nil {
		return err
	}
	want := o.ConnectedKCore(o.withAll(q, k, L), k, q)
	if !slices.Equal(V, want) {
		return fmt.Errorf("community (%d vertices) is not the connected %d-core of q=%d over keywords %v (%d vertices)", len(V), k, q, shared, len(want))
	}
	if len(L) == 0 {
		for _, w := range base {
			if o.ConnectedKCore(o.withAll(q, k, []int32{w}), k, q) != nil {
				return fmt.Errorf("keywordless answer although keyword %q admits a community", o.Words[w])
			}
		}
		return nil
	}
	ext := make([]int32, 0, len(L)+1)
	for _, w := range base {
		if _, in := slices.BinarySearch(L, w); in {
			continue
		}
		ext = append(append(ext[:0], L...), w)
		slices.Sort(ext)
		if o.ConnectedKCore(o.withAll(q, k, ext), k, q) != nil {
			return fmt.Errorf("shared keywords %v are not maximal: adding %q still admits a community", shared, o.Words[w])
		}
	}
	return nil
}

// CheckCohesive verifies that sorted V is connected with minimum internal
// degree ≥ k, counting edges of the input graph plus extra edges (an
// adjacency map of edges added since; may be nil).
func (o *Oracle) CheckCohesive(V []int32, k int, extra map[int32][]int32) error {
	if len(V) == 0 {
		return fmt.Errorf("empty community")
	}
	o.epoch++
	e := o.epoch
	for _, v := range V {
		o.mark[v] = e
	}
	in := func(v int32) bool { return o.mark[v] == e }
	var ns []int32
	nbrs := func(v int32) []int32 {
		ns = ns[:0]
		for _, u := range o.Adj[v] {
			if in(u) {
				ns = append(ns, u)
			}
		}
		for _, u := range extra[v] {
			if in(u) && !o.HasEdge(v, u) && !slices.Contains(ns, u) {
				ns = append(ns, u)
			}
		}
		return ns
	}
	reached := 1
	o.seen[V[0]] = e
	stack := []int32{V[0]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d := len(nbrs(v)); d < k {
			return fmt.Errorf("vertex %d has internal degree %d < k=%d", v, d, k)
		}
		for _, u := range ns {
			if o.seen[u] != e {
				o.seen[u] = e
				reached++
				stack = append(stack, u)
			}
		}
	}
	if reached != len(V) {
		return fmt.Errorf("community is disconnected: %d of %d vertices reachable", reached, len(V))
	}
	return nil
}

// CPJ is the mean keyword-set Jaccard similarity over all vertex pairs, in
// the community's given order; 0 below two vertices.
func (o *Oracle) CPJ(V []int32) float64 {
	n := len(V)
	if n < 2 {
		return 0
	}
	total := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := o.KW[V[i]], o.KW[V[j]]
			if len(a) == 0 && len(b) == 0 {
				continue
			}
			in := interCount(a, b)
			total += float64(in) / float64(len(a)+len(b)-in)
		}
	}
	return total / float64(n*(n-1)/2)
}

// CMF is the mean share of W(q) carried by each member other than q.
func (o *Oracle) CMF(V []int32, q int32) float64 {
	wq := o.KW[q]
	if len(wq) == 0 {
		return 0
	}
	total, cnt := 0.0, 0
	for _, v := range V {
		if v == q {
			continue
		}
		total += float64(interCount(o.KW[v], wq)) / float64(len(wq))
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return total / float64(cnt)
}

// SingletonAdmissible returns, for each vertex, how many of its keywords w
// on their own admit a community at k: q lies in the k-core of the
// subgraph induced by the vertices carrying w. This count predicts the
// size of the keyword lattice ACQ walks for W(q), so the query panels are
// stratified on it.
func (o *Oracle) SingletonAdmissible(k int) []int32 {
	count := make([]int32, o.N())
	for _, H := range o.holders {
		if len(H) <= k {
			continue
		}
		for _, v := range o.kcore(H, k) {
			count[v]++
		}
	}
	return count
}

func intersect(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// interCount is |a∩b| for sorted a and b.
func interCount(a, b []int32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// containsAll reports whether sorted super holds every element of sorted sub.
func containsAll(super, sub []int32) bool {
	i := 0
	for _, x := range sub {
		for i < len(super) && super[i] < x {
			i++
		}
		if i == len(super) || super[i] != x {
			return false
		}
	}
	return true
}
