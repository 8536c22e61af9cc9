package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/serve"
)

// clusterJSON is the cluster-json workload: two clients in a closed
// loop against a router fronting three single-worker engine shards
// with two replicas per key (the in-process harness topology, built
// here from its parts so every shard and router handler can carry a
// span). Each client iteration POSTs a caller-supplied 256x256 matrix
// as JSON to /v1/factor (a write plus replication), then sends eight
// single-RHS /v1/solve calls (reads) against the new key.
type clusterJSON struct {
	engines []*engine.Engine
	servers []*httptest.Server
	router  *cluster.Router
	front   *httptest.Server
	client  *http.Client
	// rec is the recorder the handler wrappers report to; nil while
	// untraced. traced counts wrapper calls still recording: a client
	// can read its reply before the handler's wrapper has finished.
	rec    atomic.Pointer[recorder]
	traced sync.WaitGroup

	mats     []*repro.Matrix
	bodies   [][]byte    // factor request bodies, one per matrix
	rhs      [][]float64 // right-hand sides, shared by every matrix
	rhsJSON  [][]byte
	wireSize int

	mu  sync.Mutex
	ref map[[2]int][]byte // solution bytes by matrix and right-hand side

	obsMu sync.Mutex
	obs   []engineObs // shard replies seen while traced
}

const (
	clusterShards  = 3
	clusterClients = 2
	clusterN       = 256
	clusterRHS     = 4 // distinct right-hand sides, each solved twice per key
)

func (c *clusterJSON) setUp() error {
	c.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clusterClients}}
	var infos []cluster.ShardInfo
	for i := 0; i < clusterShards; i++ {
		eng, err := engine.New(engine.Options{Workers: 1, MaxInflight: 16, DynamicRatio: 0.25})
		if err != nil {
			return err
		}
		c.engines = append(c.engines, eng)
		name := fmt.Sprintf("s%d", i+1)
		srv := httptest.NewServer(c.wrap("serve", serve.New(eng, serve.Options{Keep: 32}).Handler()))
		c.servers = append(c.servers, srv)
		infos = append(infos, cluster.ShardInfo{Name: name, URL: srv.URL})
	}
	rt, err := cluster.NewRouter(cluster.RouterOptions{Shards: infos, Replicas: 2, FailAfter: 2})
	if err != nil {
		return err
	}
	c.router = rt
	c.front = httptest.NewServer(c.wrap("cluster", rt.Handler()))
	return nil
}

func (c *clusterJSON) tearDown() {
	if c.front != nil {
		c.front.Close()
	}
	if c.router != nil {
		c.router.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
	for _, e := range c.engines {
		e.Close()
	}
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
}

func (c *clusterJSON) prepare(seed int64) error {
	for i := 0; i < 4; i++ {
		a := repro.RandomMatrix(clusterN, clusterN, seed+int64(i))
		c.mats = append(c.mats, a)
		rowMajor := make([]float64, 0, clusterN*clusterN)
		for r := 0; r < clusterN; r++ {
			for j := 0; j < clusterN; j++ {
				rowMajor = append(rowMajor, a.At(r, j))
			}
		}
		body, err := json.Marshal(map[string]any{"rows": clusterN, "cols": clusterN, "data": rowMajor})
		if err != nil {
			return err
		}
		c.bodies = append(c.bodies, body)
	}
	for r := 0; r < clusterRHS; r++ {
		b := repro.RandomMatrix(clusterN, 1, seed+int64(50+r)).Data
		bj, err := json.Marshal(b)
		if err != nil {
			return err
		}
		c.rhs = append(c.rhs, b)
		c.rhsJSON = append(c.rhsJSON, bj)
	}
	f, err := repro.Factor(c.mats[0], repro.Options{Block: 32})
	if err != nil {
		return err
	}
	wire, err := repro.EncodeFactorization(f, nil)
	if err != nil {
		return err
	}
	c.wireSize = len(wire)
	c.ref = map[[2]int][]byte{}
	// Warm-up: every matrix once, which also fixes the reference
	// solutions.
	t := newTally()
	for m := range c.mats {
		c.iterate(t, nil, m)
	}
	if t.failed > 0 {
		return fmt.Errorf("warm-up: %s", t.errs[0])
	}
	return nil
}

func (c *clusterJSON) run(d time.Duration, rec *recorder) *tally {
	before := c.router.Stats().Failovers
	c.obs = nil
	c.rec.Store(rec)
	t := newTally()
	start := time.Now()
	var wg sync.WaitGroup
	for cl := 0; cl < clusterClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; time.Since(start) < d; i++ {
				c.iterate(t, rec, (cl+clusterClients*i)%len(c.mats))
			}
		}(cl)
	}
	wg.Wait()
	t.elapsed = time.Since(start)
	c.rec.Store(nil)
	c.traced.Wait()
	t.note("cluster.failovers", float64(c.router.Stats().Failovers-before))
	return t
}

// iterate is one client iteration on matrix m: a routed factor, then
// each right-hand side solved twice against the new key.
func (c *clusterJSON) iterate(t *tally, rec *recorder, m int) {
	start := time.Now()
	var rep struct {
		ID string `json:"id"`
	}
	err := c.post("/v1/factor", c.bodies[m], &rep)
	end := time.Now()
	if err == nil && rep.ID == "" {
		err = fmt.Errorf("%w: factor reply without id", errCheck)
	}
	if err != nil {
		t.fail("factor", err)
		return
	}
	t.ok("factor", end.Sub(start))
	rec.add(0, "client", "factor", rep.ID, start, end)
	for k := 0; k < 2*clusterRHS; k++ {
		r := k % clusterRHS
		body := []byte(`{"id":"` + rep.ID + `","b":` + string(c.rhsJSON[r]) + `}`)
		var sol struct {
			X json.RawMessage `json:"x"`
		}
		start := time.Now()
		err := c.post("/v1/solve", body, &sol)
		end := time.Now()
		if err == nil {
			err = c.check(m, r, sol.X)
		}
		if err != nil {
			t.fail("solve", err)
			continue
		}
		t.ok("solve", end.Sub(start))
		rec.add(0, "client", "solve", rep.ID, start, end)
	}
}

// post sends one JSON request through the router and decodes a 200
// reply into v; any other status is an error.
func (c *clusterJSON) post(path string, body []byte, v any) error {
	resp, err := c.client.Post(c.front.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// check requires the solution for matrix m and right-hand side r to be
// byte-identical to the first one seen, which must itself solve the
// system.
func (c *clusterJSON) check(m, r int, x []byte) error {
	c.mu.Lock()
	want, seen := c.ref[[2]int{m, r}]
	c.mu.Unlock()
	if seen {
		if !bytes.Equal(x, want) {
			return fmt.Errorf("%w: solution differs across replicas or repeats", errCheck)
		}
		return nil
	}
	var xs []float64
	if err := json.Unmarshal(x, &xs); err != nil {
		return err
	}
	if len(xs) != clusterN {
		return fmt.Errorf("%w: solution has %d entries, want %d", errCheck, len(xs), clusterN)
	}
	if res := repro.SolveResidual(c.mats[m], xs, c.rhs[r]); !(res <= libTol) {
		return fmt.Errorf("%w: solve residual %.3g above %g", errCheck, res, libTol)
	}
	c.mu.Lock()
	c.ref[[2]int{m, r}] = append([]byte(nil), x...)
	c.mu.Unlock()
	return nil
}

// capture records what a handler writes, so the wrapper can read the
// key and the engine timings from the reply.
type capture struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *capture) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

// wrap puts a span around every request h serves while a recorder is
// installed. The span's key is the factorization id, taken from the
// query (admin export/import) or the reply (factor, solve).
func (c *clusterJSON) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := c.rec.Load()
		if rec == nil {
			h.ServeHTTP(w, r)
			return
		}
		c.traced.Add(1)
		defer c.traced.Done()
		cw := &capture{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		end := time.Now()
		var rep struct {
			ID          string  `json:"id"`
			Class       string  `json:"class"`
			QueueWaitMs float64 `json:"queueWaitMs"`
			SpanMs      float64 `json:"spanMs"`
		}
		key := r.URL.Query().Get("id")
		if key == "" && json.Unmarshal(cw.buf.Bytes(), &rep) == nil {
			key = rep.ID
		}
		id := rec.add(0, layer, r.URL.Path, key, start, end)
		if layer == "serve" && rep.SpanMs > 0 {
			c.obsMu.Lock()
			c.obs = append(c.obs, engineObs{span: id, class: rep.Class,
				queueMs: rep.QueueWaitMs, execMs: rep.SpanMs, reqBytes: r.ContentLength})
			c.obsMu.Unlock()
		}
	})
}

// link parents each router span to the client span of the same key
// that encloses it, and each shard span to the enclosing router span.
func link(spans []span) {
	byKey := map[string][]int{}
	for i, s := range spans {
		if s.Key != "" {
			byKey[s.Key] = append(byKey[s.Key], i)
		}
	}
	parentLayer := map[string]string{"cluster": "client", "serve": "cluster"}
	for _, idx := range byKey {
		for _, i := range idx {
			want, ok := parentLayer[spans[i].Layer]
			if !ok {
				continue
			}
			for _, j := range idx {
				p := spans[j]
				if p.Layer == want && p.Start <= spans[i].Start && spans[i].End <= p.End {
					spans[i].Parent = p.ID
					break
				}
			}
		}
	}
}

func (c *clusterJSON) endToEnd(t *tally) map[string]measured {
	out := map[string]measured{}
	t.latency(out, "factor", "factor", true)
	t.latency(out, "solve", "solve", true)
	n := len(t.lat["factor"]) + len(t.lat["solve"])
	out["req_per_s"] = measured{Value: float64(n) / t.elapsed.Seconds(), Unit: "1/s", N: n}
	return out
}

func (c *clusterJSON) perLayer(t *tally, spans []span) map[string]measured {
	link(spans)
	self := selfTimes(spans)
	obs := map[int64]engineObs{}
	queue, exec := map[string][]float64{}, map[string][]float64{}
	for _, o := range c.obs {
		obs[o.span] = o
		queue[o.class] = append(queue[o.class], o.queueMs)
		exec[o.class] = append(exec[o.class], o.execMs)
	}
	var (
		serveSelf, serveSolveSelf, routerSelf, routerSolveSelf, replicate []float64
		reqBytes                                                          []float64
		shares                                                            = map[string][]float64{}
	)
	// Per client factor: how its time splits across the layers.
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, s := range spans {
		switch {
		case s.Layer == "serve" && (s.Name == "/v1/factor" || s.Name == "/v1/solve"):
			o, ok := obs[s.ID]
			if !ok {
				continue
			}
			v := s.dur()*1e3 - (o.queueMs + o.execMs)
			if s.Name == "/v1/factor" {
				serveSelf = append(serveSelf, v)
				reqBytes = append(reqBytes, float64(o.reqBytes))
			} else {
				serveSolveSelf = append(serveSolveSelf, v)
			}
		case s.Layer == "cluster" && s.Name == "/v1/solve":
			routerSolveSelf = append(routerSolveSelf, self[s.ID]*1e3)
		case s.Layer == "cluster" && s.Name == "/v1/factor":
			routerSelf = append(routerSelf, self[s.ID]*1e3)
			rep := 0.0
			for _, k := range kids[s.ID] {
				if strings.HasPrefix(k.Name, "/v1/admin/") {
					rep += k.dur()
				}
			}
			replicate = append(replicate, rep*1e3)
		case s.Layer == "client" && s.Name == "factor":
			total := s.dur()
			split := map[string]float64{"client": self[s.ID]}
			for _, r := range kids[s.ID] {
				split["router"] += self[r.ID]
				for _, k := range kids[r.ID] {
					if strings.HasPrefix(k.Name, "/v1/admin/") {
						split["replicate"] += k.dur()
						continue
					}
					o := obs[k.ID]
					split["engine"] += (o.queueMs + o.execMs) / 1e3
					split["serve"] += k.dur() - (o.queueMs+o.execMs)/1e3
				}
			}
			for k, v := range split {
				shares[k] = append(shares[k], v/total)
			}
		}
	}
	out := map[string]measured{
		"serve.self_ms_p50":                {Value: percentile(serveSelf, 0.5), Unit: "ms", N: len(serveSelf), Note: "shard factor handler minus queue wait and execution"},
		"serve.solve_self_ms_p50":          {Value: percentile(serveSolveSelf, 0.5), Unit: "ms", N: len(serveSolveSelf)},
		"cluster.router_self_ms_p50":       {Value: percentile(routerSelf, 0.5), Unit: "ms", N: len(routerSelf), Note: "router factor span minus its shard spans"},
		"cluster.router_solve_self_ms_p50": {Value: percentile(routerSolveSelf, 0.5), Unit: "ms", N: len(routerSolveSelf)},
		"cluster.replicate_ms_p50":         {Value: percentile(replicate, 0.5), Unit: "ms", N: len(replicate), Note: "export plus import spans per factor"},
		"cluster.failovers":                {Value: sum(t.obs["cluster.failovers"]), Unit: "count", N: 1},
		"serve.req_bytes":                  {Value: percentile(reqBytes, 0.5), Unit: "bytes", N: len(reqBytes)},
		"layout.wire_bytes":                {Value: float64(c.wireSize), Unit: "bytes", N: 1, Note: "EncodeFactorization of one n=256 LU"},
	}
	for class := range queue {
		out["engine.queue_wait_ms_p50."+class] = measured{Value: percentile(queue[class], 0.5), Unit: "ms", N: len(queue[class])}
		out["engine.exec_ms_p50."+class] = measured{Value: percentile(exec[class], 0.5), Unit: "ms", N: len(exec[class])}
	}
	for k, v := range shares {
		out["share."+k] = measured{Value: median(v), Unit: "ratio", N: len(v),
			Note: "median share of a routed factor's client time"}
	}
	return out
}

// engineObs is what a shard reply says about its engine job.
type engineObs struct {
	span            int64
	class           string
	queueMs, execMs float64
	reqBytes        int64
}
