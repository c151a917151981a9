package main

// compare: the Figure 6(a) table. Each round empties the result cache, runs
// one cold CODICIL detect, then the default-algorithm comparison (Global,
// Local, CODICIL, ACQ) for a few query vertices of the giant k-core, on a
// 2,000-author graph.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"
)

const (
	compareK       = 4
	compareQueries = 8
)

type compareRow struct {
	Method      string  `json:"method"`
	Communities int     `json:"communities"`
	AvgVertices float64 `json:"avgVertices"`
	CPJ         float64 `json:"cpj"`
	CMF         float64 `json:"cmf"`
	Error       string  `json:"error"`
}

type compareAnswer struct {
	Query int32        `json:"query"`
	Rows  []compareRow `json:"rows"`
}

// compareRound holds one round's answers: the detect and, per query vertex,
// the table plus the Global, Local and ACQ answers it summarizes.
type compareRound struct {
	detect searchAnswer
	tables []compareAnswer
	algos  []map[string]searchAnswer
}

// compareInputs writes the 2,000-author graph (the generator's small
// configuration, its own seed 1).
func compareInputs(r *Run) (*Inputs, error) {
	return generateInputs(r.Dir, "small")
}

// comparePanel picks the query vertices: seeded draws from the largest
// connected k-core with core ≥ k+1.
func comparePanel(o *Oracle, seed int64) []int32 {
	var giant []int32
	for v := range o.Adj {
		if c := o.CoreComponent(int32(v), compareK); len(c) > len(giant) {
			giant = c
		}
	}
	var cand []int32
	for _, v := range giant {
		if int(o.Core[v]) >= compareK+1 {
			cand = append(cand, v)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var qs []int32
	for _, i := range rng.Perm(len(cand))[:min(compareQueries, len(cand))] {
		qs = append(qs, cand[i])
	}
	return qs
}

func runCompare(r *Run) error {
	in, err := compareInputs(r)
	if err != nil {
		return err
	}
	r.phase("inputs written")
	st, err := setUp(r, in, false, compareSetupPerRound)
	if err != nil {
		return err
	}
	defer st.Close()
	r.phase("stack built")
	if err := in.loadOracle(); err != nil {
		return err
	}
	qs := comparePanel(in.O, r.Seed)
	var first string
	c := newClient()
	base := st.Front + "/api/v1/datasets/" + st.Name
	one := func(round int, lat *latencies) (time.Duration, error) {
		st.Primary.Exp.Cache().Purge(st.Name)
		var rd compareRound
		start := time.Now()
		if d, ok := r.timed(c, "detect", "POST", base+"/detect", map[string]string{"algorithm": "CODICIL"}, &rd.detect); ok {
			lat.add("detect", d)
		}
		var wall time.Duration = time.Since(start)
		for _, q := range qs {
			var t compareAnswer
			start = time.Now()
			d, ok := r.timed(c, "compare", "POST", base+"/compare", map[string]any{"vertex": q, "k": compareK}, &t)
			wall += time.Since(start)
			if ok {
				lat.add("compare", d)
			}
			rd.tables = append(rd.tables, t)
			// The answers behind the rows, for the checks: result-cache
			// hits, outside the timed span.
			algos := map[string]searchAnswer{}
			for _, a := range []string{"Global", "Local", "ACQ"} {
				var ans searchAnswer
				r.timed(c, "search", "POST", base+"/search", searchBody{Algorithm: a, Vertices: []int32{q}, K: compareK}, &ans)
				algos[a] = ans
			}
			rd.algos = append(rd.algos, algos)
		}
		// Untimed: the first round against the oracle, later rounds
		// against the first.
		if fp := fmt.Sprint(rd.tables, fingerprint(rd.detect)); round == 0 {
			checkCompare(r, in.O, "round 0", qs, rd)
			first = fp
		} else if fp != first {
			r.wrongf("round %d: the tables or the detect differ from round 0", round)
		}
		return wall, nil
	}
	if r.Traced {
		var tq []acqQuery
		for _, q := range qs {
			tq = append(tq, acqQuery{Q: q, K: compareK, Stratum: "compare"})
		}
		return traceRun(r, st, in, tq, func() error { _, err := rounds(r, 1, one); return err })
	}
	sinks, err := rounds(r, 0, one)
	if err != nil {
		return err
	}
	r.phase("panel done and checked")
	r.endToEnd(sinks, "compare", 0.9, "detect")
	return nil
}

// checkCompare checks one round: CODICIL's communities are disjoint, the
// Global row is the oracle's connected k-core, every row's CPJ and CMF
// match the oracle on the communities the row summarizes, and the CODICIL
// row uses the community that holds q.
func checkCompare(r *Run, o *Oracle, what string, qs []int32, rd compareRound) {
	owner := map[int32]int{}
	for i, c := range rd.detect.Communities {
		for _, v := range c.Vertices {
			if j, dup := owner[v]; dup {
				r.wrongf("%s: CODICIL communities %d and %d share vertex %d", what, j, i, v)
				return
			}
			owner[v] = i
		}
	}
	for i, q := range qs {
		if i >= len(rd.tables) {
			return
		}
		w := fmt.Sprintf("%s q=%d", what, q)
		rows := map[string]compareRow{}
		for _, row := range rd.tables[i].Rows {
			rows[row.Method] = row
			if row.Error != "" {
				r.wrongf("%s: %s row failed: %s", w, row.Method, row.Error)
			}
		}
		U := o.CoreComponent(q, compareK)
		global := rd.algos[i]["Global"].Communities
		if len(global) != 1 || !slices.Equal(sorted(global[0].Vertices), U) || rows["Global"].AvgVertices != float64(len(U)) {
			r.wrongf("%s: Global community is not the oracle's connected %d-core (%d vertices)", w, compareK, len(U))
		}
		for _, c := range rd.algos[i]["Local"].Communities {
			V := sorted(c.Vertices)
			if _, in := slices.BinarySearch(V, q); !in {
				r.wrongf("%s: Local community lacks q", w)
			} else if err := o.CheckCohesive(V, compareK, nil); err != nil {
				r.wrongf("%s: Local community: %v", w, err)
			}
		}
		checkSearchAnswer(r, o, w+" ACQ", q, compareK, nil, rd.algos[i]["ACQ"])
		summarized := map[string][][]int32{"CODICIL": nil}
		for _, a := range []string{"Global", "Local", "ACQ"} {
			for _, c := range rd.algos[i][a].Communities {
				summarized[a] = append(summarized[a], c.Vertices)
			}
		}
		if j, ok := owner[q]; ok {
			summarized["CODICIL"] = [][]int32{rd.detect.Communities[j].Vertices}
		}
		for method, comms := range summarized {
			row := rows[method]
			if row.Communities != len(comms) {
				r.wrongf("%s: %s row summarizes %d communities, want %d", w, method, row.Communities, len(comms))
				continue
			}
			var cpj, cmf float64
			for _, V := range comms {
				cpj += o.CPJ(V)
				cmf += o.CMF(V, q)
			}
			if n := float64(len(comms)); n > 0 {
				cpj, cmf = cpj/n, cmf/n
			}
			if math.Abs(cpj-row.CPJ) > 1e-9 || math.Abs(cmf-row.CMF) > 1e-9 {
				r.wrongf("%s: %s row CPJ/CMF %v/%v, oracle %v/%v", w, method, row.CPJ, row.CMF, cpj, cmf)
			}
		}
	}
}
