package main

// The traced run: it replays one round of the workload's seeded panel with
// every request in a span, then times each layer through its public
// functions on the workload's own queries, and prints the per-layer
// metrics. End-to-end figures always come from untraced runs.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/codicil"
	"cexplorer/internal/core"
	"cexplorer/internal/csearch"
	"cexplorer/internal/ds"
	"cexplorer/internal/graph"
	"cexplorer/internal/kcore"
	"cexplorer/internal/layout"
	"cexplorer/internal/metrics"
	"cexplorer/internal/snapshot"
)

const (
	traceQueries = 300 // panel queries timed layer by layer
	traceExplore = 20  // explore sessions opened directly
	traceEdits   = 40  // edits applied per write-path layer
)

// traceRun measures every per-layer metric for workload r on stack st.
// qs are the workload's ACQ queries in panel order; replay runs one round
// of its panel.
func traceRun(r *Run, st *Stack, in *Inputs, qs []acqQuery, replay func() error) error {
	tr := r.tracer
	ctx := context.Background()
	dset := st.DS
	g := dset.Graph

	// Set-up phases, from the last stack build.
	r.set("graph.load_s", "s", mean(tr.Durations("graph.load")))
	r.set("api.index_build_s", "s", mean(tr.Durations("api.index_build")))
	bt := dset.BuildTimings()
	r.set("cltree.build_s", "s", bt.CLTreeMS/1e3)
	r.set("kcore.build_s", "s", bt.CoreMS/1e3)
	r.set("ktruss.build_s", "s", bt.TrussMS/1e3)

	// One round of the panel, every request a span.
	start := time.Now()
	if err := replay(); err != nil {
		return err
	}
	fmt.Printf("trace: replayed one round in %.3fs\n", time.Since(start).Seconds())
	var sizes []float64
	for _, kind := range []string{"search", "explore", "step", "analyze", "display", "close", "detect", "compare", "mutation", "vertex", "ryw-search"} {
		sizes = append(sizes, tr.Bytes("http."+kind)...)
		if d := tr.Durations("http." + kind); len(d) > 0 {
			fmt.Printf("trace: replayed %-10s p50 %8.3f ms over %d requests\n", kind, ms(median(d)), len(d))
		}
	}
	r.set("server.response_kb", "KB", mean(sizes)/1024)
	var hits, lookups, coalesced int64
	for _, n := range []*Node{st.Primary, st.Replica} {
		if n == nil {
			continue
		}
		cs := n.Exp.Cache().Stats()
		hits += cs.Hits
		coalesced += cs.Coalesced
		lookups += cs.Hits + cs.Misses + cs.Coalesced
	}
	r.set("servecache.hit_ratio", "ratio", float64(hits)/float64(max(lookups, 1)))
	r.set("servecache.coalesced", "count", float64(coalesced))
	batch := 0.0
	if b := st.Primary.Srv.Stats().Batcher; b != nil {
		batch = b.AvgOpsPerBatch
	}
	r.set("api.batch_ops", "ops", batch)

	// The read path, layer by layer, on the workload's own queries.
	if len(qs) > traceQueries {
		qs = qs[:traceQueries]
	}
	if err := traceSearchLayers(r, st, qs); err != nil {
		return err
	}
	if err := traceExploreLayer(r, st, qs); err != nil {
		return err
	}

	// The write path: a private lineage, a private maintainer and journal.
	_, streams := editStreams(in.O, r.Seed)
	edits := streams[0][:min(traceEdits, len(streams[0]))]
	cur := dset
	ov := graph.NewOverlay(g)
	m := kcore.NewMaintainer(slices.Clone(dset.CoreNumbers()))
	journal := filepath.Join(r.Dir, "trace"+snapshot.JournalExt)
	for i, e := range edits {
		op, kind := api.OpRemoveEdge, snapshot.JournalRemoveEdge
		if e.Add {
			op, kind = api.OpAddEdge, snapshot.JournalAddEdge
		}
		sp := tr.Start(0, int64(i), "api.mutate")
		next, _, err := cur.Mutate(ctx, []api.Mutation{{Op: op, U: e.U, V: e.V}})
		sp.End()
		if err != nil {
			return fmt.Errorf("mutate: %w", err)
		}
		cur = next
		if e.Add {
			err = ov.AddEdge(e.U, e.V)
		} else {
			err = ov.RemoveEdge(e.U, e.V)
		}
		if err != nil {
			return fmt.Errorf("overlay: %w", err)
		}
		sp = tr.Start(0, int64(i), "kcore.maintain")
		if e.Add {
			m.InsertEdge(ov, e.U, e.V)
		} else {
			m.RemoveEdge(ov, e.U, e.V)
		}
		sp.End()
		sp = tr.Start(0, int64(i), "snapshot.journal_append")
		err = snapshot.AppendJournal(journal, snapshot.JournalRecord{Version: uint64(i + 1), Ops: []snapshot.JournalOp{{Kind: kind, U: e.U, V: e.V}}})
		sp.End()
		if err != nil {
			return err
		}
	}
	r.set("api.mutate_ms", "ms", ms(mean(tr.Durations("api.mutate"))))
	r.set("kcore.maintain_us", "us", mean(tr.Durations("kcore.maintain"))*1e6)
	r.set("snapshot.journal_append_ms", "ms", ms(mean(tr.Durations("snapshot.journal_append"))))

	if err := traceReplication(r, st, in, streams[1]); err != nil {
		return err
	}
	return traceAnalysisLayers(r, st, in, qs)
}

// traceSearchLayers times each ACQ query through every layer of the read
// path: the HTTP handler, Explorer.Search, the engine, and the engine's
// steps (anchor, keyword lists, intersection, peel) called directly.
// Each layer is a child span of the one above it, so a span's self time
// is what its layer adds.
func traceSearchLayers(r *Run, st *Stack, qs []acqQuery) error {
	tr := r.tracer
	ctx := context.Background()
	dset := st.DS
	g := dset.Graph
	tree := dset.Tree()
	c := newClient()
	url := st.Primary.URL + "/api/v1/datasets/" + st.Name + "/search"
	peeler := kcore.NewPeeler(g)
	var ver, cands, universe, size []float64
	for i, q := range qs {
		op := int64(i + 1)
		root := tr.Start(0, op, "acq")
		st.Primary.Exp.Cache().Purge(st.Name)
		hs := tr.Start(root.ID, op, "server.search")
		if _, err := fetch(c, "POST", url, q.body(), nil); err != nil {
			return err
		}
		hs.End()
		st.Primary.Exp.Cache().Purge(st.Name)
		as := tr.Start(hs.ID, op, "api.search")
		comms, err := st.Primary.Exp.Search(ctx, st.Name, "ACQ", api.Query{Vertices: []int32{q.Q}, K: q.K, Keywords: q.S})
		as.End()
		if err != nil {
			return err
		}
		for _, c := range comms {
			size = append(size, float64(len(c.Vertices)))
		}
		var S []int32
		if q.S != nil {
			S = []int32{}
			for _, w := range q.S {
				if id, ok := g.Vocab().ID(w); ok {
					S = append(S, id)
				}
			}
			slices.Sort(S)
		}
		eng := dset.AcquireEngine()
		cs := tr.Start(as.ID, op, "core.search")
		_, err = eng.SearchContext(ctx, q.Q, int32(q.K), S, core.Dec)
		cs.End()
		stats := eng.LastStats()
		dset.ReleaseEngine(eng)
		if err != nil {
			return err
		}
		ver = append(ver, float64(stats.Verifications))
		cands = append(cands, float64(stats.CandidateSets))
		universe = append(universe, float64(stats.UniverseSize))

		sp := tr.Start(cs.ID, op, "cltree.anchor")
		anchor := tree.Anchor(q.Q, int32(q.K))
		uni := tree.SubtreeVertices(anchor, nil)
		sp.End()
		words := S
		if words == nil {
			words = g.Keywords(q.Q)
		}
		lists := make([][]int32, len(words))
		sp = tr.Start(cs.ID, op, "cltree.keyword_lists")
		for j, w := range words {
			lists[j] = tree.SubtreeKeywordVertices(anchor, w, nil)
		}
		sp.End()
		for _, l := range lists {
			slices.Sort(l)
		}
		if len(lists) > 0 {
			acc := slices.Clone(lists[0])
			buf := make([]int32, 0, len(acc))
			sp = tr.Start(cs.ID, op, "ds.intersect")
			for _, l := range lists[1:] {
				buf = ds.IntersectSortedInto(buf[:0], acc, l)
				acc, buf = buf, acc
			}
			sp.End()
		}
		sp = tr.Start(cs.ID, op, "kcore.peel")
		peeler.ConnectedKCoreContaining(uni, int32(q.K), q.Q)
		sp.End()
		root.End()
	}
	fmt.Printf("trace: %d queries; verifications per query p50 %.0f p90 %.0f max %.0f; community size p50 %.0f p90 %.0f max %.0f\n",
		len(qs), quantile(ver, 0.5), quantile(ver, 0.9), quantile(ver, 1), quantile(size, 0.5), quantile(size, 0.9), quantile(size, 1))
	r.set("server.search_self_ms", "ms", ms(mean(tr.Self("server.search"))))
	r.set("api.search_self_ms", "ms", ms(mean(tr.Self("api.search"))))
	r.set("core.search_ms", "ms", ms(mean(tr.Durations("core.search"))))
	r.set("core.verifications", "count", sum(ver))
	r.set("core.candidate_sets", "count", sum(cands))
	r.set("core.universe_vertices", "count", mean(universe))
	r.set("cltree.anchor_ms", "ms", ms(mean(tr.Durations("cltree.anchor"))))
	r.set("cltree.keyword_lists_ms", "ms", ms(mean(tr.Durations("cltree.keyword_lists"))))
	r.set("ds.intersect_ms", "ms", ms(mean(tr.Durations("ds.intersect"))))
	r.set("kcore.peel_ms", "ms", ms(mean(tr.Durations("kcore.peel"))))
	return nil
}

// traceExploreLayer opens explore sessions directly on the Explorer and
// walks each through a contract and an expand step.
func traceExploreLayer(r *Run, st *Stack, qs []acqQuery) error {
	tr := r.tracer
	ctx := context.Background()
	core := st.DS.CoreNumbers()
	n := 0
	for i, q := range qs {
		if n == traceExplore || int(core[q.Q]) < q.K+1 {
			continue
		}
		n++
		sp := tr.Start(0, int64(i+1), "api.explore")
		s, err := st.Primary.Exp.Explore(ctx, st.Name, api.Query{Vertices: []int32{q.Q}, K: q.K})
		sp.End()
		if err != nil {
			return fmt.Errorf("explore: %w", err)
		}
		for _, action := range []string{"contract", "expand"} {
			sp = tr.Start(0, int64(i+1), "api.step")
			_, err := st.Primary.Exp.ExploreStep(ctx, st.Name, s.ID, action, 0)
			sp.End()
			if err != nil {
				return fmt.Errorf("explore step: %w", err)
			}
		}
		if err := st.Primary.Exp.ExploreClose(st.Name, s.ID); err != nil {
			return err
		}
	}
	r.set("api.explore_ms", "ms", ms(mean(tr.Durations("api.explore"))))
	r.set("api.step_ms", "ms", ms(mean(tr.Durations("api.step"))))
	return nil
}

// traceReplication measures the fleet: persist and bootstrap times, the
// lag from a routed mutation's ack until the replica reports it applied,
// and the router's hop. Workloads without a fleet build one on their own
// inputs for this.
func traceReplication(r *Run, st *Stack, in *Inputs, edits []edit) error {
	tr := r.tracer
	fleet := st
	if st.Replica == nil {
		catalog := filepath.Join(r.Dir, "trace-catalog")
		if err := os.MkdirAll(catalog, 0o755); err != nil {
			return err
		}
		var err error
		if fleet, err = buildStack(in, catalog, tr); err != nil {
			return err
		}
		defer fleet.Close()
	}
	r.set("snapshot.persist_s", "s", fleet.Persist.Seconds())
	r.set("repl.bootstrap_s", "s", fleet.Bootstrap.Seconds())
	c := newClient()
	base := fleet.Front + "/api/v1/datasets/" + fleet.Name
	for i, e := range edits[:min(traceEdits, len(edits))] {
		op := api.OpRemoveEdge
		if e.Add {
			op = api.OpAddEdge
		}
		var ack struct {
			Version uint64 `json:"version"`
		}
		if _, err := fetch(c, "POST", base+"/mutations", map[string]any{"op": op, "u": e.U, "v": e.V}, &ack); err != nil {
			return err
		}
		sp := tr.Start(0, int64(i+1), "repl.apply_lag")
		for {
			if s, _ := fleet.rep.Status(fleet.Name); s.AppliedSeq >= ack.Version {
				break
			}
			time.Sleep(20 * time.Microsecond)
		}
		sp.End()
	}
	r.set("repl.apply_lag_ms", "ms", ms(mean(tr.Durations("repl.apply_lag"))))
	direct := fleet.Replica.URL + "/api/v1/datasets/" + fleet.Name + "/vertices/0"
	routed := base + "/vertices/0"
	for i := 0; i < 100; i++ {
		for _, u := range []string{routed, direct} {
			name := "repl.routed"
			if u == direct {
				name = "repl.direct"
			}
			sp := tr.Start(0, int64(i+1), name)
			if _, err := fetch(c, "GET", u, nil, nil); err != nil {
				return err
			}
			sp.End()
		}
	}
	r.set("repl.router_hop_ms", "ms", ms(mean(tr.Durations("repl.routed"))-mean(tr.Durations("repl.direct"))))
	return nil
}

// traceAnalysisLayers times the layers of the Figure 6(a) table on its
// 2,000-author graph and query vertices: a CODICIL detect, Global and
// Local search, and CPJ and display on every community a table row
// analyzes. Browse instead analyzes and displays the top ACQ community of
// each session's author, on its own graph.
func traceAnalysisLayers(r *Run, st *Stack, in *Inputs, qs []acqQuery) error {
	tr := r.tracer
	ctx := context.Background()
	small := in
	if in.Name != "small" {
		var err error
		if small, err = compareInputs(r); err != nil {
			return err
		}
		if err = small.loadOracle(); err != nil {
			return err
		}
	}
	sg, err := loadGraph(small)
	if err != nil {
		return err
	}
	sds := api.NewDataset(small.Name, sg)
	coreNum := sds.CoreNumbers()
	sp := tr.Start(0, 0, "codicil.detect")
	det, err := codicil.DetectContext(ctx, sg, codicil.Options{})
	sp.End()
	if err != nil {
		return err
	}
	var analyzed [][]int32
	var ag *graph.Graph
	eng := sds.AcquireEngine()
	for i, q := range comparePanel(small.O, r.Seed) {
		op := int64(i + 1)
		sp = tr.Start(0, op, "csearch.global")
		gr, err := csearch.GlobalContext(ctx, sg, coreNum, q, compareK)
		sp.End()
		if err != nil {
			return err
		}
		sp = tr.Start(0, op, "csearch.local")
		lr, err := csearch.LocalContext(ctx, sg, q, compareK, csearch.LocalOptions{})
		sp.End()
		if err != nil {
			return err
		}
		if r.Workload == "browse" {
			continue
		}
		ag = sg
		analyzed = append(analyzed, gr.Vertices, lr.Vertices, det.CommunityOf(q))
		acq, err := eng.SearchContext(ctx, q, compareK, nil, core.Dec)
		if err != nil {
			return err
		}
		for _, c := range acq {
			analyzed = append(analyzed, c.Vertices)
		}
	}
	if r.Workload == "browse" {
		ag = st.DS.Graph
		seen := map[int32]bool{}
		e := st.DS.AcquireEngine()
		for _, q := range qs {
			if seen[q.Q] {
				continue
			}
			seen[q.Q] = true
			res, err := e.SearchContext(ctx, q.Q, int32(q.K), nil, core.Dec)
			if err != nil {
				return err
			}
			if len(res) > 0 {
				analyzed = append(analyzed, res[0].Vertices)
			}
		}
		st.DS.ReleaseEngine(e)
	}
	var pairs float64
	for i, V := range analyzed {
		n := float64(len(V))
		pairs += n * (n - 1) / 2
		sp = tr.Start(0, int64(i+1), "metrics.cpj")
		metrics.CPJ(ag, V)
		sp.End()
		sub := ag.Induce(V)
		el := layout.EdgeList{Count: sub.N()}
		for l := int32(0); l < int32(sub.N()); l++ {
			for _, u := range sub.Neighbors(l) {
				if l < u {
					el.Pairs = append(el.Pairs, [2]int32{l, u})
				}
			}
		}
		sp = tr.Start(0, int64(i+1), "layout.display")
		layout.FruchtermanReingold(el, layout.Options{Seed: 1})
		sp.End()
	}
	r.set("codicil.detect_s", "s", mean(tr.Durations("codicil.detect")))
	r.set("csearch.global_ms", "ms", ms(mean(tr.Durations("csearch.global"))))
	r.set("csearch.local_ms", "ms", ms(mean(tr.Durations("csearch.local"))))
	r.set("metrics.cpj_ms", "ms", ms(mean(tr.Durations("metrics.cpj"))))
	r.set("metrics.cpj_pairs", "count", pairs)
	r.set("layout.display_ms", "ms", ms(mean(tr.Durations("layout.display"))))
	return nil
}

// loadGraph reads an input's files with the program's loader.
func loadGraph(in *Inputs) (*graph.Graph, error) {
	ef, err := os.Open(in.Edges)
	if err != nil {
		return nil, err
	}
	defer ef.Close()
	af, err := os.Open(in.Attrs)
	if err != nil {
		return nil, err
	}
	defer af.Close()
	return graph.LoadAttributed(ef, af)
}
