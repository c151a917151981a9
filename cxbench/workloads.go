package main

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Shapes of the v1 answers the checks read.
type community struct {
	Method         string   `json:"method"`
	Vertices       []int32  `json:"vertices"`
	SharedKeywords []string `json:"sharedKeywords"`
}

type searchAnswer struct {
	Communities []community `json:"communities"`
}

type searchBody struct {
	Algorithm string   `json:"algorithm"`
	Names     []string `json:"names,omitempty"`
	Vertices  []int32  `json:"vertices,omitempty"`
	K         int      `json:"k"`
	Keywords  []string `json:"keywords,omitempty"`
}

// closedLoop runs `clients` closed-loop clients that take their next
// operation index from one shared queue until all n are done, and returns
// the wall time.
func closedLoop(clients, n int, op func(client, i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				op(c, i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// rounds runs whole rounds of the workload's panel: exactly `fixed` of
// them when fixed > 0, else until the rounds have taken the run's duration
// (at least one). Each round records into its own latency sink. Before
// each round of an untraced run, more set-up samples are timed (see
// setUp). rounds returns the sinks, each with its round's wall time.
func rounds(r *Run, fixed int, round func(i int, lat *latencies) (time.Duration, error)) ([]*latencies, error) {
	var spent time.Duration
	var sinks []*latencies
	for n := 0; ; n++ {
		if !r.Traced && r.resample != nil {
			if err := r.resample(); err != nil {
				return nil, err
			}
		}
		lat := &latencies{}
		start := time.Now()
		d, err := round(n, lat)
		if err != nil {
			return nil, err
		}
		spent += time.Since(start)
		lat.wall = d
		sinks = append(sinks, lat)
		if fixed > 0 && n+1 >= fixed || fixed <= 0 && spent >= r.Duration {
			return sinks, nil
		}
	}
}

// timed issues one request, counts it under kind, and returns its latency
// in seconds and whether it succeeded; a non-200 answer counts as a failed
// operation, and its latency belongs in no latency sink.
func (r *Run) timed(c *http.Client, kind, method, url string, body, out any, headers ...string) (float64, bool) {
	sp := r.tracer.Start(0, 0, "http."+kind)
	start := time.Now()
	n, err := fetch(c, method, url, body, out, headers...)
	d := time.Since(start).Seconds()
	sp.EndBytes(n)
	r.count(kind, err != nil)
	if err != nil {
		r.failure(kind, err)
		return d, false
	}
	return d, true
}

// failure keeps the first few failed-operation errors for the log.
func (r *Run) failure(kind string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failures < 5 {
		fmt.Printf("failed %s: %v\n", kind, err)
	}
	r.failures++
}

// latencies collects one round's per-kind latencies (seconds) from
// concurrent clients, and the round's wall time.
type latencies struct {
	mu   sync.Mutex
	by   map[string][]float64
	wall time.Duration
}

func (l *latencies) add(kind string, d float64) {
	l.mu.Lock()
	if l.by == nil {
		l.by = map[string][]float64{}
	}
	l.by[kind] = append(l.by[kind], d)
	l.mu.Unlock()
}

func (l *latencies) get(kind string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.by[kind]
}

// endToEnd records the five end-to-end metrics every workload reports from
// the set-up samples and the rounds' latency sinks: op and sub name the
// headline operation and the second one. A p50 is the median over rounds
// of each round's p50, and ops_per_s the median over rounds of each
// round's rate, so an episode of host noise that spoils one round moves
// them little. The pooled
// p50s and the headline operation's tail are printed on aside lines but not
// reported: which few heavy queries a seed draws decides the tail, so its
// spread over seeds exceeded any bound the benchmark may set (see
// README.md).
func (r *Run) endToEnd(sinks []*latencies, op string, tailP float64, sub string) {
	var opAll, subAll, opP50, subP50, rates []float64
	for _, l := range sinks {
		o, s := l.get(op), l.get(sub)
		opAll, subAll = append(opAll, o...), append(subAll, s...)
		opP50, subP50 = append(opP50, median(o)), append(subP50, median(s))
		rates = append(rates, float64(len(o))/l.wall.Seconds())
	}
	fmt.Printf("aside rounds %d\n", len(sinks))
	fmt.Printf("aside setup_builds %d\n", len(r.setups))
	fmt.Printf("aside pooled_op_p50_ms %.6f\n", ms(median(opAll)))
	fmt.Printf("aside pooled_sub_p50_ms %.6f\n", ms(median(subAll)))
	fmt.Printf("aside op_p%.0f_ms %.6f\n", 100*tailP, ms(quantile(opAll, tailP)))
	r.set("setup_s", "s", median(r.setups))
	r.set("op_p50_ms", "ms", ms(median(opP50)))
	r.set("ops_per_s", "1/s", median(rates))
	r.set("sub_p50_ms", "ms", ms(median(subP50)))
	r.set("peak_rss_mb", "MB", r.peakRSS)
}

// dblpInputs writes the default 20k-author synthetic DBLP graph. The graph
// is the generator's default (its own seed 1) on every run, so the ROADMAP
// hub query is the same query everywhere; --seed draws the panels, the
// sessions and the edit streams over it.
func dblpInputs(r *Run) (*Inputs, error) {
	return generateInputs(r.Dir, "dblp")
}

// hashInts fingerprints a vertex list.
func hashInts(vs []int32) uint64 {
	h := fnv.New64a()
	b := make([]byte, 4)
	for _, v := range vs {
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b)
	}
	return h.Sum64()
}

func sorted(vs []int32) []int32 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return s
}

// keywordsOf returns q's keywords as strings, in the oracle's order.
func keywordsOf(o *Oracle, q int32) []string {
	out := make([]string, len(o.KW[q]))
	for i, w := range o.KW[q] {
		out[i] = o.Words[w]
	}
	return out
}
