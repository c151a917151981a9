package main

// write-ryw: two editor clients behind a router, each owning half of the
// vertices with core ≥ 6, post single-edge mutations and read their own
// writes back from the replica at the acknowledged version.

import (
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"cexplorer/internal/repl"
)

const (
	writeK       = 5
	writeOwnCore = 6  // editors own the vertices of at least this core
	writeEdges   = 60 // new edges per client per round: 2×60 mutations
)

// edit is one mutation of an editor's stream.
type edit struct {
	Add  bool
	U, V int32
}

// editStreams draws each client's round of edits: new edges e0..e(M-1)
// between the client's own vertices, posted as add e0, then add e(j) and
// remove e(j-1) for each j, then remove e(M-1). A round leaves the graph as
// it found it, so every round repeats the same operations. An edit's U is
// the vertex read back: a removal names the edge the other way round, so
// both endpoints of every edge are read.
func editStreams(o *Oracle, seed int64) (owned [2][]int32, streams [2][]edit) {
	n := 0
	for v := range o.Adj {
		if int(o.Core[v]) >= writeOwnCore {
			owned[n%2] = append(owned[n%2], int32(v))
			n++
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < 2; c++ {
		own := owned[c]
		used := map[[2]int32]bool{}
		var edges [][2]int32
		for len(edges) < writeEdges {
			u, v := own[rng.Intn(len(own))], own[rng.Intn(len(own))]
			if u == v || o.HasEdge(u, v) {
				continue
			}
			key := [2]int32{min(u, v), max(u, v)}
			if used[key] {
				continue
			}
			used[key] = true
			edges = append(edges, [2]int32{u, v})
		}
		s := []edit{{Add: true, U: edges[0][0], V: edges[0][1]}}
		for j := 1; j < len(edges); j++ {
			s = append(s, edit{Add: true, U: edges[j][0], V: edges[j][1]}, edit{U: edges[j-1][1], V: edges[j-1][0]})
		}
		last := edges[len(edges)-1]
		streams[c] = append(s, edit{U: last[1], V: last[0]})
	}
	return owned, streams
}

// rywLoop is what one loop of an editor recorded.
type rywLoop struct {
	client  int
	e       edit
	version uint64
	degree  int
	want    int
	answer  searchAnswer
	ok      bool
}

func runWriteRYW(r *Run) error {
	in, err := dblpInputs(r)
	if err != nil {
		return err
	}
	r.phase("inputs written")
	st, err := setUp(r, in, true, writeSetupPerRound)
	if err != nil {
		return err
	}
	defer st.Close()
	r.phase("stack built")
	if err := in.loadOracle(); err != nil {
		return err
	}
	_, streams := editStreams(in.O, r.Seed)
	last := &[2]uint64{} // each editor's last acknowledged version
	replay := func(fixed int) ([]*latencies, error) {
		clients := [2]*http.Client{newClient(), newClient()}
		one := func(_ int, lat *latencies) (time.Duration, error) {
			start := time.Now()
			var wg sync.WaitGroup
			var loops [2][]rywLoop
			for c := 0; c < 2; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					// Each editor's vertex degrees change only by its own edits.
					extra := map[int32]int{}
					for _, e := range streams[c] {
						loops[c] = append(loops[c], rywEdit(r, clients[c], st, lat, in.O, c, e, extra))
					}
				}(c)
			}
			wg.Wait()
			wall := time.Since(start)
			checkWrites(r, in.O, streams, loops, last)
			return wall, nil
		}
		return rounds(r, fixed, one)
	}
	if r.Traced {
		var qs []acqQuery
		for _, e := range streams[0][:min(40, len(streams[0]))] {
			qs = append(qs, acqQuery{Q: e.U, K: writeK, Stratum: "write"})
		}
		return traceRun(r, st, in, qs, func() error { _, err := replay(1); return err })
	}
	sinks, err := replay(0)
	if err != nil {
		return err
	}
	r.phase("panel done")
	r.endToEnd(sinks, "mutation", 0.9, "ryw-search")
	checkConverged(r, st, in.O)
	r.phase("converged")
	return nil
}

// rywEdit posts one mutation through the router, reads the edited vertex
// back at the acknowledged version, and searches it at k=5 at that version.
func rywEdit(r *Run, c *http.Client, st *Stack, lat *latencies, o *Oracle, client int, e edit, extra map[int32]int) rywLoop {
	l := rywLoop{client: client, e: e}
	base := st.Front + "/api/v1/datasets/" + st.Name
	op := "removeEdge"
	if e.Add {
		op = "addEdge"
	}
	var ack struct {
		Version uint64 `json:"version"`
	}
	d, ok := r.timed(c, "mutation", "POST", base+"/mutations", map[string]any{"op": op, "u": e.U, "v": e.V}, &ack)
	if !ok {
		return l
	}
	lat.add("mutation", d)
	l.version = ack.Version
	delta := -1
	if e.Add {
		delta = 1
	}
	extra[e.U] += delta
	extra[e.V] += delta
	l.want = o.Degree(e.U) + extra[e.U]
	minV := strconv.FormatUint(ack.Version, 10)
	var vx struct {
		Degree int `json:"degree"`
	}
	if _, ok = r.timed(c, "vertex", "GET", base+"/vertices/"+strconv.Itoa(int(e.U)), nil, &vx, repl.HeaderMinVersion, minV); !ok {
		return l
	}
	l.degree = vx.Degree
	if d, ok = r.timed(c, "ryw-search", "POST", base+"/search", searchBody{Algorithm: "ACQ", Vertices: []int32{e.U}, K: writeK}, &l.answer, repl.HeaderMinVersion, minV); ok {
		lat.add("ryw-search", d)
	}
	l.ok = ok
	return l
}

// checkWrites checks the editors' history: acknowledged versions strictly
// increase per client, every read-back degree is the edit model's, and
// every read-your-writes answer contains q, is connected and has minimum
// degree ≥ k in the union of the input edges and every added edge.
func checkWrites(r *Run, o *Oracle, streams [2][]edit, loops [2][]rywLoop, last *[2]uint64) {
	added := map[int32][]int32{}
	for _, s := range streams {
		for _, e := range s {
			if e.Add {
				added[e.U] = append(added[e.U], e.V)
				added[e.V] = append(added[e.V], e.U)
			}
		}
	}
	for i, l := range append(loops[0], loops[1]...) {
		if !l.ok {
			continue
		}
		what := fmt.Sprintf("edit %d (client %d, %v %d-%d)", i, l.client, l.e.Add, l.e.U, l.e.V)
		if l.version <= last[l.client] {
			r.wrongf("%s: acknowledged version %d after %d", what, l.version, last[l.client])
		}
		last[l.client] = l.version
		if l.degree != l.want {
			r.wrongf("%s: read degree %d at version ≥ %d, the edit model predicts %d", what, l.degree, l.version, l.want)
		}
		if len(l.answer.Communities) == 0 {
			r.wrongf("%s: read-your-writes search found no community", what)
		}
		for _, c := range l.answer.Communities {
			V := sorted(c.Vertices)
			if _, in := slices.BinarySearch(V, l.e.U); !in {
				r.wrongf("%s: community lacks q", what)
			} else if err := o.CheckCohesive(V, writeK, added); err != nil {
				r.wrongf("%s: %v", what, err)
			}
			L, ok := o.WordIDs(c.SharedKeywords)
			if !ok {
				r.wrongf("%s: shared keywords outside the vocabulary", what)
				continue
			}
			for _, v := range V {
				if !containsAll(o.KW[v], L) {
					r.wrongf("%s: member %d lacks a shared keyword", what, v)
					break
				}
			}
		}
	}
}

// checkConverged waits for the replica to apply the primary's version and
// compares both nodes' answers on a fixed query panel.
func checkConverged(r *Run, st *Stack, o *Oracle) {
	ds, _ := st.Primary.Exp.Dataset(st.Name)
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, _ := st.rep.Status(st.Name)
		if s.AppliedSeq >= ds.Version {
			if s.AppliedSeq != ds.Version {
				r.wrongf("replica applied version %d beyond the primary's %d", s.AppliedSeq, ds.Version)
			}
			break
		}
		if time.Now().After(deadline) {
			r.wrongf("replica stuck at version %d, primary at %d", s.AppliedSeq, ds.Version)
			return
		}
		time.Sleep(time.Millisecond)
	}
	c := newClient()
	for v := int32(0); v < int32(o.N()); v += int32(o.N() / 20) {
		if int(o.Core[v]) < writeK {
			continue
		}
		var a, b searchAnswer
		body := searchBody{Algorithm: "ACQ", Vertices: []int32{v}, K: writeK}
		_, ok1 := r.timed(c, "converge", "POST", st.Primary.URL+"/api/v1/datasets/"+st.Name+"/search", body, &a)
		_, ok2 := r.timed(c, "converge", "POST", st.Replica.URL+"/api/v1/datasets/"+st.Name+"/search", body, &b)
		if ok1 && ok2 && fingerprint(a) != fingerprint(b) {
			r.wrongf("primary and replica answer q=%d differently at version %d", v, ds.Version)
		}
	}
}
