package main

// acq-cold: a stratified panel of distinct ACQ searches, each a result-cache
// miss, over the 20k-author graph, from two closed-loop clients.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"cexplorer/internal/gen"
)

// acqQuery is one panel entry. S == nil searches W(q), the UI default.
type acqQuery struct {
	Q       int32
	K       int
	S       []string
	Stratum string
}

// Strata of the admissible-keyword count a(q,k) (see
// Oracle.SingletonAdmissible) and how many W(q) searches each contributes
// per k. The ACQ lattice, and with it the cost of a W(q) search, roughly
// doubles with every unit of a; the last stratum is the panel's tail.
// Vertices with a ≥ 13 are left out: one of them costs 1.5–25 s, more than
// a whole run.
var acqStrata = []struct {
	lo, hi int32
	count  int
}{{0, 3, 90}, {4, 6, 80}, {7, 8, 50}, {9, 10, 20}, {11, 12, 16}}

// acqExplicitPerK is the number of explicit-S searches per k: a quarter
// of the panel. acqLargeAnswer splits them by answer size.
const (
	acqExplicitPerK = 84
	acqLargeAnswer  = 1000
)

// acqPanel draws the seeded panel: for each k in {4,5,6}, vertices with
// core ≥ k+1 sampled without replacement per stratum, then explicit 2–4
// keyword searches, plus the hub query (the famous author of highest core
// at k=4). Entries are distinct and shuffled.
func acqPanel(o *Oracle, seed int64) []acqQuery {
	rng := rand.New(rand.NewSource(seed))
	var panel []acqQuery
	for _, k := range []int{4, 5, 6} {
		a := o.SingletonAdmissible(k)
		var cand []int32
		for v := range o.Adj {
			if int(o.Core[v]) >= k+1 {
				cand = append(cand, int32(v))
			}
		}
		used := map[int32]bool{}
		short := 0 // draws a stratum could not fill, carried to the one below
		for i := len(acqStrata) - 1; i >= 0; i-- {
			st := acqStrata[i]
			var pool []int32
			for _, v := range cand {
				if a[v] >= st.lo && a[v] <= st.hi {
					pool = append(pool, v)
				}
			}
			want := st.count + short
			for _, j := range rng.Perm(len(pool)) {
				if want == 0 {
					break
				}
				panel = append(panel, acqQuery{Q: pool[j], K: k, Stratum: fmt.Sprintf("k%d/a%d-%d", k, st.lo, st.hi)})
				used[pool[j]] = true
				want--
			}
			short = want
		}
		// Explicit-S searches, a quarter of them answered by a community
		// of at least acqLargeAnswer vertices (by the oracle): answer size
		// sets the cost of encoding and decoding a response, the two kinds
		// are far apart, and a fixed share keeps the median inside one.
		seen := map[string]bool{}
		large := 0
		for tries := 0; len(seen) < acqExplicitPerK; tries++ {
			q := cand[rng.Intn(len(cand))]
			kw := keywordsOf(o, q)
			if len(kw) < 2 {
				continue
			}
			n := min(2+rng.Intn(3), len(kw))
			var S []string
			for _, j := range rng.Perm(len(kw))[:n] {
				S = append(S, kw[j])
			}
			sort.Strings(S)
			key := fmt.Sprint(q, S)
			if seen[key] {
				continue
			}
			ids, _ := o.WordIDs(S)
			isLarge := false
			for _, ans := range o.ACQ(q, k, ids) {
				isLarge = isLarge || len(ans.V) >= acqLargeAnswer
			}
			if tries < 100*acqExplicitPerK && (isLarge && large >= acqExplicitPerK/4 || !isLarge && len(seen)-large >= acqExplicitPerK-acqExplicitPerK/4) {
				continue // that share is full
			}
			if isLarge {
				large++
			}
			seen[key] = true
			panel = append(panel, acqQuery{Q: q, K: k, S: S, Stratum: fmt.Sprintf("k%d/explicit", k)})
		}
	}
	if hub, ok := hubQuery(o); ok {
		dup := slices.ContainsFunc(panel, func(x acqQuery) bool { return x.Q == hub && x.K == 4 && x.S == nil })
		if !dup {
			panel = append(panel, acqQuery{Q: hub, K: 4, Stratum: "hub"})
		}
	}
	rng.Shuffle(len(panel), func(i, j int) { panel[i], panel[j] = panel[j], panel[i] })
	return panel
}

// hubQuery is the famous author with the highest core number.
func hubQuery(o *Oracle) (int32, bool) {
	best, bestCore := int32(-1), int32(-1)
	for i := 0; i < gen.NumFamousAuthors(); i++ {
		if v, ok := o.ByName[gen.FamousAuthor(i)]; ok && o.Core[v] > bestCore {
			best, bestCore = v, o.Core[v]
		}
	}
	return best, best >= 0 && bestCore >= 4
}

func (q acqQuery) body() searchBody {
	return searchBody{Algorithm: "ACQ", Vertices: []int32{q.Q}, K: q.K, Keywords: q.S}
}

func runACQCold(r *Run) error {
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
	panel := acqPanel(in.O, r.Seed)
	r.phase("panel drawn")
	if r.Traced {
		return traceRun(r, st, in, panel, func() error {
			_, err := acqRounds(r, st, in.O, panel, 1)
			return err
		})
	}
	sinks, err := acqRounds(r, st, in.O, panel, 0)
	if err != nil {
		return err
	}
	r.phase("panel done and checked")
	r.endToEnd(sinks, "search", 0.99, "explicit")
	return nil
}

// acqRounds runs the panel in whole rounds (see rounds), emptying the
// result cache before each so every search misses. After each round,
// untimed, the first round's answers are checked against the oracle and
// every later round's against the first.
func acqRounds(r *Run, st *Stack, o *Oracle, panel []acqQuery, fixed int) ([]*latencies, error) {
	c := newClient()
	url := st.Front + "/api/v1/datasets/" + st.Name + "/search"
	first := make([]string, len(panel))
	one := func(round int, lat *latencies) (time.Duration, error) {
		st.Primary.Exp.Cache().Purge(st.Name)
		ans := make([]searchAnswer, len(panel))
		ok := make([]bool, len(panel))
		wall := closedLoop(2, len(panel), func(_, i int) {
			var d float64
			if d, ok[i] = r.timed(c, "search", "POST", url, panel[i].body(), &ans[i]); !ok[i] {
				return
			}
			lat.add("search", d)
			if panel[i].S != nil {
				lat.add("explicit", d)
			}
		})
		for i, q := range panel {
			switch {
			case !ok[i]:
			case round == 0:
				checkSearchAnswer(r, o, fmt.Sprintf("search %d (%s, q=%d)", i, q.Stratum, q.Q), q.Q, q.K, q.S, ans[i])
				first[i] = fingerprint(ans[i])
			case fingerprint(ans[i]) != first[i]:
				r.wrongf("search %d: round %d answered differently from round 0", i, round)
			}
		}
		return wall, nil
	}
	return rounds(r, fixed, one)
}

// checkSearchAnswer checks one ACQ answer: non-empty, every community a
// valid maximal answer, and for an explicit S exactly the brute-force
// oracle's answer set.
func checkSearchAnswer(r *Run, o *Oracle, what string, q int32, k int, S []string, a searchAnswer) {
	if len(a.Communities) == 0 {
		r.wrongf("%s: no community", what)
		return
	}
	base := o.KW[q]
	if S != nil {
		ids, ok := o.WordIDs(S)
		if !ok {
			r.wrongf("%s: query keywords outside the vocabulary", what)
			return
		}
		base = intersect(ids, o.KW[q])
	}
	for _, c := range a.Communities {
		if err := o.CheckCommunity(q, k, base, c.SharedKeywords, c.Vertices); err != nil {
			r.wrongf("%s: %v", what, err)
			return
		}
	}
	if S == nil {
		return
	}
	ids, _ := o.WordIDs(S)
	want := map[string]bool{}
	for _, ans := range o.ACQ(q, k, ids) {
		want[fmt.Sprint(ans.L, ans.V)] = true
	}
	got := map[string]bool{}
	for _, c := range a.Communities {
		L, _ := o.WordIDs(c.SharedKeywords)
		got[fmt.Sprint(L, sorted(c.Vertices))] = true
	}
	if len(got) != len(want) {
		r.wrongf("%s: %d communities, the brute-force oracle finds %d", what, len(got), len(want))
		return
	}
	for k := range got {
		if !want[k] {
			r.wrongf("%s: answer differs from the brute-force oracle", what)
			return
		}
	}
}

func fingerprint(a searchAnswer) string {
	var parts []string
	for _, c := range a.Communities {
		parts = append(parts, fmt.Sprint(c.SharedKeywords, hashInts(c.Vertices)))
	}
	sort.Strings(parts)
	return fmt.Sprint(parts)
}
