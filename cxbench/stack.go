package main

// The serving stack under test, built in this process from the generated
// input files with the default serve settings of cmd/cexplorer: result
// cache, mutation batcher, search limit 2×GOMAXPROCS, no shedding.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/gen"
	"cexplorer/internal/graph"
	"cexplorer/internal/repl"
	"cexplorer/internal/servecache"
	"cexplorer/internal/server"
)

// Inputs is one generated dataset: its files and the oracle read from them.
type Inputs struct {
	Name, Edges, Attrs string
	O                  *Oracle
}

// graphConfigs are the generated graphs by name, each at the generator's
// own seed 1.
var graphConfigs = map[string]func() gen.DBLPConfig{
	"dblp":  gen.DefaultDBLPConfig, // 20,000 authors
	"small": gen.SmallDBLPConfig,   // 2,000 authors
}

// generateInputs writes the named synthetic DBLP graph as an edge list and
// an attribute file. A child process (`cxbench gen <dir> <name>`) does the
// generating, so the generator's memory never counts in this process's
// peak resident set. The program only ever reads these files.
func generateInputs(dir, name string) (*Inputs, error) {
	in := &Inputs{Name: name, Edges: filepath.Join(dir, name+".edges"), Attrs: filepath.Join(dir, name+".attrs")}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "gen", dir, name)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("generating %s: %w", name, err)
	}
	return in, nil
}

// writeGraph is the child process of generateInputs.
func writeGraph(dir, name string) error {
	cfg, ok := graphConfigs[name]
	if !ok {
		return fmt.Errorf("unknown graph %q", name)
	}
	g := gen.GenerateDBLP(cfg()).Graph
	for path, write := range map[string]func(io.Writer) error{
		filepath.Join(dir, name+".edges"): g.WriteEdgeList,
		filepath.Join(dir, name+".attrs"): g.WriteAttributes,
	} {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// loadOracle reads the benchmark's oracle from the input files.
func (in *Inputs) loadOracle() error {
	o, err := LoadOracle(in.Edges, in.Attrs)
	in.O = o
	return err
}

// Node is one in-process server on a loopback listener.
type Node struct {
	Exp *api.Explorer
	Srv *server.Server
	URL string
	hs  *http.Server
}

func listen(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), hs, nil
}

func newNode() *Node {
	exp := api.NewExplorer()
	srv := server.New(exp, nil)
	srv.EnableCache(servecache.DefaultMaxEntries, servecache.DefaultMaxBytes, 0)
	srv.EnableBatcher(api.BatcherOptions{MaxOps: api.DefaultBatchMaxOps, MaxWait: api.DefaultBatchMaxWait})
	return &Node{Exp: exp, Srv: srv}
}

func (n *Node) start() error {
	url, hs, err := listen(n.Srv.Handler())
	n.URL, n.hs = url, hs
	return err
}

// Stack is a built serving stack and the time each set-up phase took.
type Stack struct {
	Name    string
	Primary *Node
	Replica *Node
	rep     *repl.Replica
	stopRep context.CancelFunc
	repDone chan struct{}
	router  *http.Server
	Front   string // the URL clients talk to: the router, or the lone node
	DS      *api.Dataset
	Catalog string // the primary's catalog directory, "" without a fleet

	Setup, Load, Build, Persist, Bootstrap time.Duration
}

// buildStack loads the input files and serves them. With catalog != "" it
// builds the replicated topology: a primary with that catalog directory
// (so every mutation is journaled) and the journal feed, one replica
// bootstrapped from it, and a router in front.
func buildStack(in *Inputs, catalog string, tr *Tracer) (*Stack, error) {
	s := &Stack{Name: in.Name, Catalog: catalog}
	start := time.Now()
	sp := tr.Start(0, 0, "setup")
	defer sp.End()
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
	ls := tr.Start(sp.ID, 0, "graph.load")
	g, err := graph.LoadAttributed(ef, af)
	ls.End()
	if err != nil {
		return nil, err
	}
	s.Load = time.Since(start)
	s.Primary = newNode()
	if catalog != "" {
		if err := s.Primary.Srv.SetDataDir(catalog); err != nil {
			return nil, err
		}
		s.Primary.Srv.EnableReplicationPrimary(repl.FeedOptions{})
	}
	if s.DS, err = s.Primary.Exp.AddGraph(in.Name, g); err != nil {
		return nil, err
	}
	t := time.Now()
	bs := tr.Start(sp.ID, 0, "api.index_build")
	s.DS.BuildIndexes()
	bs.End()
	s.Build = time.Since(t)
	if catalog != "" {
		t = time.Now()
		ps := tr.Start(sp.ID, 0, "snapshot.persist")
		_, err := s.Primary.Srv.PersistDataset(s.DS)
		ps.End()
		if err != nil {
			s.Close()
			return nil, err
		}
		s.Persist = time.Since(t)
	}
	if err := s.Primary.start(); err != nil {
		return nil, err
	}
	s.Front = s.Primary.URL
	if catalog != "" {
		t = time.Now()
		rs := tr.Start(sp.ID, 0, "repl.bootstrap")
		err := s.startReplica()
		rs.End()
		if err != nil {
			s.Close()
			return nil, err
		}
		s.Bootstrap = time.Since(t)
		rt := repl.NewRouter(s.Primary.URL, []string{s.Replica.URL}, repl.RouterOptions{})
		url, hs, err := listen(rt.Handler())
		if err != nil {
			s.Close()
			return nil, err
		}
		s.Front, s.router = url, hs
	}
	if _, err := fetch(http.DefaultClient, "GET", s.Front+"/api/v1/datasets/"+in.Name, nil, nil); err != nil {
		s.Close()
		return nil, fmt.Errorf("first request: %w", err)
	}
	s.Setup = time.Since(start)
	return s, nil
}

// startReplica boots a replica of the primary and waits until it tails.
func (s *Stack) startReplica() error {
	s.Replica = newNode()
	s.rep = repl.NewReplica(s.Replica.Exp, s.Primary.URL, repl.ReplicaOptions{})
	s.Replica.Srv.EnableReplicationReplica(s.rep, 5*time.Second)
	if err := s.Replica.start(); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stopRep, s.repDone = cancel, make(chan struct{})
	go func() {
		defer close(s.repDone)
		s.rep.Run(ctx)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, ok := s.rep.Status(s.Name); ok && st.Phase == repl.PhaseTailing {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica did not reach %s within 30s", repl.PhaseTailing)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Close stops every server and the replica's tailer, and waits for them.
func (s *Stack) Close() {
	if s.router != nil {
		s.router.Close()
	}
	if s.stopRep != nil {
		s.stopRep()
		<-s.repDone
	}
	for _, n := range []*Node{s.Replica, s.Primary} {
		if n != nil && n.hs != nil {
			n.hs.Close()
		}
	}
}

// Set-up samples per round: stacks built and closed again before every
// round, for 1–3 s of set-up a run in all. A 20k-author build takes
// 0.1–0.2 s, a 2,000-author one about 13 ms.
const (
	setupPerRound        = 4
	writeSetupPerRound   = 2
	compareSetupPerRound = 16
)

// setUp builds the serving stack and times it. It leaves r ready to time
// perRound more builds before every round (see rounds), each closed again
// at once, so the set-up samples are spread over the whole run and a
// spell of host noise spoils few of them; setup_s is their median. Garbage
// is collected before each build, outside the timed part, so every build
// starts alike. The run's peak resident set is read right after the first
// build: it covers the program's load, index builds and servers, before
// the benchmark loads its oracle or sends its workload.
func setUp(r *Run, in *Inputs, replicated bool, perRound int) (*Stack, error) {
	builds := 0
	build := func(tr *Tracer) (*Stack, error) {
		catalog := ""
		if replicated {
			catalog = filepath.Join(r.Dir, fmt.Sprintf("catalog-%d", builds))
			if err := os.MkdirAll(catalog, 0o755); err != nil {
				return nil, err
			}
		}
		builds++
		runtime.GC()
		s, err := buildStack(in, catalog, tr)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, s.Setup.Seconds())
		return s, nil
	}
	st, err := build(r.tracer)
	if err != nil {
		return nil, err
	}
	r.peakRSS = peakRSSMB()
	r.resample = func() error {
		for i := 0; i < perRound; i++ {
			s, err := build(nil)
			if err != nil {
				return err
			}
			s.Close()
			if s.Catalog != "" {
				os.RemoveAll(s.Catalog)
			}
		}
		runtime.GC()
		return nil
	}
	return st, nil
}

// newClient returns an HTTP client for the closed-loop clients.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
	}
}

// fetch issues one request and decodes a 200 answer into out (when non-nil).
// Any other status is an error carrying the status and the error body.
func fetch(c *http.Client, method, url string, body any, out any, headers ...string) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(headers); i += 2 {
		req.Header.Set(headers[i], headers[i+1])
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return len(raw), err
	}
	if resp.StatusCode != http.StatusOK {
		return len(raw), fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return len(raw), fmt.Errorf("%s %s: decoding answer: %w", method, url, err)
		}
	}
	return len(raw), nil
}
