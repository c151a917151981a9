package main

// browse: the paper's browse loop. Each session searches an author, opens
// an explore session, contracts and expands it, analyzes and displays the
// top ACQ community, and closes the session. Authors come Zipf-wise from a
// fixed popular set, so repeat visits hit the result cache.

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"time"
)

const (
	browseK        = 5
	browsePopular  = 16  // most-connected authors with core ≥ k+1
	browseZipf     = 1.1 // Zipf exponent over the popular set's ranks
	browseSessions = 48  // sessions per round, before rounding per author
	layoutW        = 800 // the display's default bounding box
	layoutH        = 600
)

// browsePanel lays out one round of sessions: the popular set ranked by
// degree, each author visited its Zipf share of browseSessions times
// (rounded, at least once), in seeded order. Every round has the same
// make-up, so rounds and seeds differ only in order and interleaving.
func browsePanel(o *Oracle, seed int64) []int32 {
	var pop []int32
	for v := range o.Adj {
		if int(o.Core[v]) >= browseK+1 && o.Names[v] != "" {
			pop = append(pop, int32(v))
		}
	}
	slices.SortStableFunc(pop, func(a, b int32) int { return o.Degree(b) - o.Degree(a) })
	pop = pop[:min(browsePopular, len(pop))]
	h := 0.0
	for i := range pop {
		h += math.Pow(float64(i+1), -browseZipf)
	}
	var out []int32
	for i, v := range pop {
		n := max(1, int(math.Round(browseSessions*math.Pow(float64(i+1), -browseZipf)/h)))
		for j := 0; j < n; j++ {
			out = append(out, v)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

type exploreState struct {
	ID          string      `json:"id"`
	K           int         `json:"k"`
	Ring        []int32     `json:"ring"`
	Communities []community `json:"communities"`
}

type analysis struct {
	CPJ float64 `json:"cpj"`
	CMF float64 `json:"cmf"`
}

type placement struct {
	Vertices []int32 `json:"vertices"`
	Points   []struct {
		X float64 `json:"x"`
		Y float64 `json:"y"`
	} `json:"points"`
}

// sessionRecord keeps what the checks need from one session.
type sessionRecord struct {
	q        int32
	ok       bool
	search   searchAnswer
	rings    [3]exploreState // created, contracted, expanded
	top      []int32
	analysis analysis
	display  placement
}

func runBrowse(r *Run) error {
	in, err := dblpInputs(r)
	if err != nil {
		return err
	}
	r.phase("inputs written")
	st, err := setUp(r, in, false, setupPerRound)
	if err != nil {
		return err
	}
	defer st.Close()
	r.phase("stack built")
	if err := in.loadOracle(); err != nil {
		return err
	}
	sessions := browsePanel(in.O, r.Seed)
	bc := &browseChecker{first: map[int32]string{}, cpj: map[uint64]float64{}}
	replay := func(fixed int) ([]*latencies, error) {
		c := newClient()
		one := func(round int, lat *latencies) (time.Duration, error) {
			st.Primary.Exp.Cache().Purge(st.Name)
			rec := make([]sessionRecord, len(sessions))
			wall := closedLoop(2, len(sessions), func(_, i int) {
				start := time.Now()
				rec[i] = browseSession(r, c, st, lat, in.O, sessions[i])
				if rec[i].ok {
					lat.add("session", time.Since(start).Seconds())
				}
			})
			bc.check(r, in.O, round, rec)
			return wall, nil
		}
		return rounds(r, fixed, one)
	}
	if r.Traced {
		var qs []acqQuery
		for _, q := range sessions {
			qs = append(qs, acqQuery{Q: q, K: browseK, Stratum: "browse"})
		}
		return traceRun(r, st, in, qs, func() error { _, err := replay(1); return err })
	}
	sinks, err := replay(0)
	if err != nil {
		return err
	}
	r.phase("panel done and checked")
	r.endToEnd(sinks, "session", 0.9, "step")
	return nil
}

// browseSession runs one session of the browse loop.
func browseSession(r *Run, hc *http.Client, st *Stack, lat *latencies, o *Oracle, q int32) sessionRecord {
	rec := sessionRecord{q: q}
	base := st.Front + "/api/v1/datasets/" + st.Name
	name := o.Names[q]
	d, ok := r.timed(hc, "search", "POST", base+"/search", searchBody{Algorithm: "ACQ", Names: []string{name}, K: browseK}, &rec.search)
	if !ok {
		return rec
	}
	lat.add("search", d)
	if d, ok = r.timed(hc, "explore", "POST", base+"/explore", map[string]any{"name": name, "k": browseK}, &rec.rings[0]); !ok {
		return rec
	}
	lat.add("explore", d)
	id := rec.rings[0].ID
	for i, action := range []string{"contract", "expand"} {
		if d, ok = r.timed(hc, "step", "POST", base+"/explore/"+id+"/step", map[string]string{"action": action}, &rec.rings[i+1]); !ok {
			return rec
		}
		lat.add("step", d)
	}
	if len(rec.search.Communities) > 0 {
		rec.top = rec.search.Communities[0].Vertices
		if _, ok = r.timed(hc, "analyze", "POST", base+"/analyze", map[string]any{"vertices": rec.top, "query": q, "method": "ACQ"}, &rec.analysis); !ok {
			return rec
		}
		if _, ok = r.timed(hc, "display", "POST", base+"/display", map[string]any{"vertices": rec.top}, &rec.display); !ok {
			return rec
		}
	}
	if _, ok = r.timed(hc, "close", "DELETE", base+"/explore/"+id, nil, nil); !ok {
		return rec
	}
	rec.ok = true
	return rec
}

// browseChecker checks sessions round by round, remembering each author's
// first search answer and the oracle's CPJ per community.
type browseChecker struct {
	first map[int32]string
	cpj   map[uint64]float64
}

// check checks one round's sessions: the search answer, each ring against
// the oracle's connected k-core (contract ⊆ ring ⊆ expand), CPJ and CMF
// within 1e-9, and one finite in-box point per displayed vertex.
func (bc *browseChecker) check(r *Run, o *Oracle, round int, rec []sessionRecord) {
	first := bc.first
	for i, s := range rec {
		what := fmt.Sprintf("round %d session %d (q=%d)", round, i, s.q)
		if !s.ok {
			continue // a failed operation, already counted
		}
		fp := fingerprint(s.search)
		if want, seen := first[s.q]; !seen {
			checkSearchAnswer(r, o, what+" search", s.q, browseK, nil, s.search)
			first[s.q] = fp
		} else if fp != want {
			r.wrongf("%s: search answered differently from the first visit", what)
		}
		if fingerprint(searchAnswer{Communities: s.rings[0].Communities}) != fp {
			r.wrongf("%s: explore communities differ from the search answer", what)
		}
		ring := o.CoreComponent(s.q, browseK)
		inner := o.CoreComponent(s.q, browseK+1)
		for j, want := range [][]int32{ring, inner, ring} {
			got := s.rings[j]
			if !slices.Equal(got.Ring, want) {
				r.wrongf("%s: ring %d (k=%d, %d vertices) is not the connected k-core (%d vertices)", what, j, got.K, len(got.Ring), len(want))
			}
		}
		if !containsAll(s.rings[0].Ring, s.rings[1].Ring) || !containsAll(s.rings[2].Ring, s.rings[0].Ring) {
			r.wrongf("%s: rings do not nest (contract ⊆ ring ⊆ expand)", what)
		}
		h := hashInts(s.top)
		cpj, known := bc.cpj[h]
		if !known {
			cpj = o.CPJ(s.top)
			bc.cpj[h] = cpj
		}
		if math.Abs(cpj-s.analysis.CPJ) > 1e-9 {
			r.wrongf("%s: CPJ %v, oracle %v", what, s.analysis.CPJ, cpj)
		}
		if cmf := o.CMF(s.top, s.q); math.Abs(cmf-s.analysis.CMF) > 1e-9 {
			r.wrongf("%s: CMF %v, oracle %v", what, s.analysis.CMF, cmf)
		}
		checkPlacement(r, what, s.top, s.display)
	}
}

func checkPlacement(r *Run, what string, vertices []int32, p placement) {
	if len(p.Points) != len(vertices) || !slices.Equal(sorted(p.Vertices), sorted(vertices)) {
		r.wrongf("%s: display placed %d points for %d vertices", what, len(p.Points), len(vertices))
		return
	}
	for _, pt := range p.Points {
		if math.IsNaN(pt.X) || math.IsNaN(pt.Y) || math.IsInf(pt.X, 0) || math.IsInf(pt.Y, 0) ||
			pt.X < 0 || pt.X > layoutW || pt.Y < 0 || pt.Y > layoutH {
			r.wrongf("%s: display point (%v,%v) outside the %dx%d box", what, pt.X, pt.Y, layoutW, layoutH)
			return
		}
	}
}
