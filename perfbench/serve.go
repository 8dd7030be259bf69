package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kgedist/internal/binpack"
	"kgedist/internal/eval"
	"kgedist/internal/model"
	"kgedist/internal/serve"
	"kgedist/internal/xrand"
)

// The serve-zipf workload: a clustered transe checkpoint, served with the
// result cache on, under open-loop traffic that is half exact and half
// approx predicts.
const (
	serveModel     = "transe"
	serveEntities  = 50000
	serveRelations = 16
	serveDim       = 64
	serveClusters  = 512
	serveSpread    = 0.25
	serveCache     = 256  // result cache entries
	servePool      = 8192 // distinct queries traffic draws from
	serveZipfS     = 1.0
	serveRate      = 200.0 // requests per second, both modes together
	serveConns     = 2     // client connections in flight at most (nproc)
	// serveSlices splits the schedule into slices of equal request count,
	// each with one hot reload in its middle. Latency is summarized per slice and the median
	// slice reported, so a burst of contention on the host moves one slice,
	// not the result.
	serveSlices = 4
	serveK      = 10
	serveProbes = 50
	// serveSLO is the latency limit for goodput; a failed request misses it.
	serveSLO = 50 * time.Millisecond
	// replayHeads reserves the top entity ids for cache-free replays: the
	// pool never draws from them.
	replayHeads = 1000
)

// query is one predict: complete the tail of (fixed, rel, ?) or the head
// of (?, rel, fixed).
type query struct {
	Side  string
	Fixed int
	Rel   int
}

// arrival is one scheduled request.
type arrival struct {
	Due    time.Duration // since the start of the load phase
	Approx bool
	Q      query
}

// makePool draws the distinct-query pool. Heads and tails avoid the ids
// reserved for replays.
func makePool(rng *xrand.RNG, n int) []query {
	pool := make([]query, n)
	for i := range pool {
		side := "tail"
		if rng.Intn(2) == 1 {
			side = "head"
		}
		pool[i] = query{Side: side, Fixed: rng.Intn(serveEntities - replayHeads), Rel: rng.Intn(serveRelations)}
	}
	return pool
}

// makeSchedule builds n open-loop arrivals at a fixed rate per second, each
// jittered by up to a quarter of the gap, with a fair coin for the mode and
// the query drawn Zipf(s) from the pool. The same seed gives the same
// schedule.
func makeSchedule(seed uint64, n int, rate float64, pool []query, s float64) []arrival {
	rng := xrand.New(seed).Split(7)
	zipf := xrand.NewZipf(rng.Split(1), len(pool), s)
	jitter, modes := rng.Split(2), rng.Split(3)
	out := make([]arrival, n)
	for i := range out {
		t := (float64(i+1) + (jitter.Float64()-0.5)/2) / rate
		out[i] = arrival{Due: time.Duration(t * float64(time.Second)), Approx: modes.Bernoulli(0.5), Q: pool[zipf.Draw()]}
	}
	return out
}

// outcome is what the client saw for one request.
type outcome struct {
	approx  bool
	ok      bool
	latency time.Duration // completion minus due time
	late    time.Duration // send time minus due time
}

type completion struct {
	Entity int32   `json:"entity"`
	Score  float32 `json:"score"`
}

type predictReply struct {
	Completions []completion `json:"completions"`
}

// predict sends one predict and decodes the completions.
func predict(client *http.Client, base string, q query, approx bool) ([]completion, error) {
	body := map[string]int{"relation": q.Rel, "k": serveK}
	if q.Side == "tail" {
		body["head"] = q.Fixed
	} else {
		body["tail"] = q.Fixed
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	url := base + "/v1/predict"
	if approx {
		url += "?mode=approx"
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("predict: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var r predictReply
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("predict: %w", err)
	}
	if len(r.Completions) != serveK {
		return nil, fmt.Errorf("predict: %d completions, want %d", len(r.Completions), serveK)
	}
	return r.Completions, nil
}

// scrape reads the server's /metrics.
func scrape(client *http.Client, base string) (promSample, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// served is a running server with its checkpoint.
type served struct {
	m    model.Model
	p    *model.Params
	srv  *serve.Server
	http *http.Server
	base string
	done chan struct{} // closed when the HTTP server's Serve returns
}

func (s *served) stop() {
	_ = s.http.Close() // listener teardown at the end of a run
	<-s.done
	s.srv.Close()
}

// startServer generates and writes the checkpoint and brings up a server
// on a loopback listener.
func startServer(rc *runCtx, rep *report, path string, parent int) (*served, error) {
	s := &served{m: model.New(serveModel, serveDim)}
	s.p = model.NewParams(s.m, serveEntities, serveRelations)
	_, end := rc.tr.begin("model.checkpoint", parent)
	s.p.ClusteredInit(s.m, serveClusters, serveSpread, xrand.New(rc.seed))
	err := model.SaveCheckpoint(path, s.m, s.p)
	end()
	if err != nil {
		return nil, fmt.Errorf("writing checkpoint: %w", err)
	}
	_, end = rc.tr.begin("serve.open", parent)
	s.srv, err = serve.New(serve.Config{
		CheckpointPath: path,
		CacheSize:      serveCache,
		MaxBatch:       64,
		BatchWindow:    time.Millisecond,
	})
	rep.layer["serve.open_s"] = end()
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.http = &http.Server{Handler: s.srv.Handler()}
	s.base = "http://" + ln.Addr().String()
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return s, nil
}

// loadPhase is what one open-loop phase measured.
type loadPhase struct {
	outs     []outcome
	elapsed  time.Duration // start to last completion
	reloads  []float64     // seconds per hot reload
	cache    [2]float64    // hits, misses summed over cache generations
	from, to promSample    // scrapes at the phase's start and end
}

// runLoad plays the schedule against the server with at most serveConns
// requests in flight, hot-reloading the checkpoint in the middle of every
// slice.
func runLoad(rc *runCtx, s *served, sched []arrival, client, admin *http.Client) (*loadPhase, error) {
	ph := &loadPhase{outs: make([]outcome, len(sched))}
	var err error
	if ph.from, err = scrape(admin, s.base); err != nil {
		return nil, err
	}
	pid, endPhase := rc.tr.begin("client.load", 0)
	defer endPhase()

	start := time.Now()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				a := sched[i]
				sent := time.Now()
				_, end := rc.tr.begin("client.request", pid)
				_, err := predict(client, s.base, a.Q, a.Approx)
				end()
				done := time.Now()
				ph.outs[i] = outcome{approx: a.Approx, ok: err == nil,
					latency: done.Sub(start.Add(a.Due)), late: sent.Sub(start.Add(a.Due))}
			}
		}()
	}

	// Reloads run beside the traffic, just after a scrape of the cache
	// generation they end.
	reloadErr := make(chan error, 1)
	var scrapes []promSample
	go func() {
		var errs []error
		for k := 0; k < serveSlices; k++ {
			time.Sleep(time.Until(start.Add(sched[(2*k+1)*len(sched)/(2*serveSlices)].Due)))
			sc, err := scrape(admin, s.base)
			if err != nil {
				errs = append(errs, err)
				break
			}
			scrapes = append(scrapes, sc)
			_, end := rc.tr.begin("serve.reload", pid)
			err = s.srv.Reload("")
			ph.reloads = append(ph.reloads, end())
			if err != nil {
				errs = append(errs, fmt.Errorf("reload: %w", err))
				break
			}
		}
		reloadErr <- errors.Join(errs...)
	}()

	for i, a := range sched {
		time.Sleep(time.Until(start.Add(a.Due)))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	ph.elapsed = time.Since(start)
	if err := <-reloadErr; err != nil {
		return nil, err
	}
	if ph.to, err = scrape(admin, s.base); err != nil {
		return nil, err
	}
	// Cache counters restart with every generation: the first generation
	// counts from the phase's opening scrape, later ones from zero.
	segs := append(scrapes, ph.to)
	for j, sc := range segs {
		h, m := sc["kgeserve_cache_hits_total"], sc["kgeserve_cache_misses_total"]
		if j == 0 {
			h -= ph.from["kgeserve_cache_hits_total"]
			m -= ph.from["kgeserve_cache_misses_total"]
		}
		ph.cache[0] += h
		ph.cache[1] += m
	}
	return ph, nil
}

// phaseSummary is a phase's latencies and counts per mode and per slice.
type phaseSummary struct {
	all, exact, approx []float64   // ms, successful requests
	slices             [][]float64 // ms, successful requests by slice of the schedule
	late               []float64   // ms
	sent, failed       [2]int      // exact, approx
	inSLO              int
}

func summarize(ph *loadPhase) phaseSummary {
	s := phaseSummary{slices: make([][]float64, serveSlices)}
	for i, o := range ph.outs {
		mode := 0
		if o.approx {
			mode = 1
		}
		s.sent[mode]++
		s.late = append(s.late, float64(o.late)/1e6)
		if !o.ok {
			s.failed[mode]++
			continue
		}
		ms := float64(o.latency) / 1e6
		s.all = append(s.all, ms)
		slice := i * serveSlices / len(ph.outs)
		s.slices[slice] = append(s.slices[slice], ms)
		if o.approx {
			s.approx = append(s.approx, ms)
		} else {
			s.exact = append(s.exact, ms)
		}
		if o.latency <= serveSLO {
			s.inSLO++
		}
	}
	return s
}

// probeCheck sends every probe exact and approx: exact answers must equal
// the reference top-k computed here from the checkpoint rows; approx
// answers score recall@k against it.
func probeCheck(s *served, client *http.Client, probes []query) (recall float64, sent int, err error) {
	var hits int
	for _, q := range probes {
		fixed := s.p.Entity.Row(q.Fixed)
		rel := s.p.Relation.Row(q.Rel)
		ref := eval.TopK(serveEntities, serveK, func(e int32) float32 {
			if q.Side == "tail" {
				return s.m.ScoreRows(fixed, rel, s.p.Entity.Row(int(e)))
			}
			return s.m.ScoreRows(s.p.Entity.Row(int(e)), rel, fixed)
		}, nil)
		exact, err := predict(client, s.base, q, false)
		sent++
		if err != nil {
			return 0, sent, fmt.Errorf("exact probe %+v: %w", q, err)
		}
		for i := range ref {
			if exact[i].Entity != ref[i].Entity || exact[i].Score != ref[i].Score {
				return 0, sent, fmt.Errorf("exact probe %+v: rank %d is %d (%v), reference %d (%v)",
					q, i, exact[i].Entity, exact[i].Score, ref[i].Entity, ref[i].Score)
			}
		}
		approx, err := predict(client, s.base, q, true)
		sent++
		if err != nil {
			return 0, sent, fmt.Errorf("approx probe %+v: %w", q, err)
		}
		want := map[int32]bool{}
		for _, r := range ref {
			want[r.Entity] = true
		}
		for _, c := range approx {
			if want[c.Entity] {
				hits++
			}
		}
	}
	return float64(hits) / float64(serveK*len(probes)), sent, nil
}

// runServe runs the serve-zipf workload.
func runServe(rc *runCtx) (*report, error) {
	rep := newReport()
	path := filepath.Join(rc.out, fmt.Sprintf("serve-seed%d-%d.kge", rc.seed, os.Getpid()))
	defer os.Remove(path) // a leftover scratch checkpoint is harmless

	var s *served
	setup, err := rc.repeatSetup(func(parent int, last bool) error {
		var err error
		if s != nil {
			s.stop()
		}
		s, err = startServer(rc, rep, path, parent)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer s.stop()
	rep.e2e["setup_s"] = setup

	// Client connections are capped at nproc; admin traffic (scrapes) rides
	// its own connection.
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}}
	admin := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	defer admin.CloseIdleConnections()

	rng := xrand.New(rc.seed).Split(11)
	pool := makePool(rng.Split(1), servePool)
	// At least 100 requests per slice, so a very short window still has a
	// median in every slice.
	n := max(int(serveRate*rc.window.Seconds()), 100*serveSlices)
	sched := makeSchedule(rc.seed, n, serveRate, pool, serveZipfS)

	var ph *loadPhase
	untraced := rc.tr
	rc.tr = nil // the untraced phase records no spans
	ph, err = runLoad(rc, s, sched, client, admin)
	rc.tr = untraced
	if err != nil {
		return nil, err
	}
	if rc.trace {
		base := summarize(ph)
		if ph, err = runLoad(rc, s, sched, client, admin); err != nil {
			return nil, err
		}
		rep.layer["trace.overhead_s"] = (median(summarize(ph).all) - median(base.all)) / 1000
	}
	sum := summarize(ph)
	rep.attempted += len(sched)
	rep.failed += sum.failed[0] + sum.failed[1]

	probes := make([]query, serveProbes)
	for i := range probes {
		probes[i] = pool[rng.Intn(len(pool))]
	}
	recall, sent, err := probeCheck(s, client, probes)
	rep.attempted += sent
	if err != nil {
		rep.failed++
		rep.fail(err)
		return rep, nil
	}
	if len(sum.all) == 0 {
		rep.fail(errors.New("no request succeeded"))
		return rep, nil
	}

	rep.e2e["throughput_per_s"] = float64(sum.inSLO) / ph.elapsed.Seconds()
	rep.e2e["accuracy"] = recall
	var p50s []float64
	for _, sl := range sum.slices {
		p50s = append(p50s, median(sl))
	}
	rep.e2e["latency_p50_ms"] = median(p50s)
	if rc.trace {
		if err := traceServe(rc, rep, s, ph, sum); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// traceServe fills the serving per-layer metrics: client-side latencies per
// mode, the server's own counters, and replays of the exact sweep, the
// packed search and the index build.
func traceServe(rc *runCtx, rep *report, s *served, ph *loadPhase, sum phaseSummary) error {
	L := rep.layer
	L["client.exact_p50_ms"] = median(sum.exact)
	L["client.exact_p99_ms"] = percentile(sum.exact, 99)
	L["client.approx_p50_ms"] = median(sum.approx)
	L["client.approx_p99_ms"] = percentile(sum.approx, 99)
	L["client.tail_percentile"], L["client.tail_ms"] = tailPercentile(sum.all)
	sent := sum.sent[0] + sum.sent[1]
	L["client.slo_goodput"] = float64(sum.inSLO) / float64(sent)
	L["client.lateness_p99_ms"] = percentile(sum.late, 99)
	L["client.sent"] = float64(sent)
	L["client.failed"] = float64(sum.failed[0] + sum.failed[1])
	L["client.exact_sent"] = float64(sum.sent[0])
	L["client.exact_ok"] = float64(sum.sent[0] - sum.failed[0])
	L["client.exact_failed"] = float64(sum.failed[0])
	L["client.approx_sent"] = float64(sum.sent[1])
	L["client.approx_ok"] = float64(sum.sent[1] - sum.failed[1])
	L["client.approx_failed"] = float64(sum.failed[1])

	if t := ph.cache[0] + ph.cache[1]; t > 0 {
		L["serve.cache_hit_ratio"] = ph.cache[0] / t
	}
	L["serve.reload_s"] = median(ph.reloads)
	from, to := ph.from, ph.to
	L["serve.batch_size_mean"] = to.hist("kgeserve_batch_size").minus(from.hist("kgeserve_batch_size")).mean()
	// The predict histogram times every predict; the approx one only
	// uncached approx searches, so the difference approximates the exact
	// mode (plus cached approx answers, which are fast).
	predictH := to.hist("kgeserve_predict_latency_seconds").minus(from.hist("kgeserve_predict_latency_seconds"))
	approxH := to.hist("kgeserve_approx_latency_seconds").minus(from.hist("kgeserve_approx_latency_seconds"))
	exactH := predictH.minus(approxH)
	L["serve.exact_server_mean_ms"] = 1000 * exactH.mean()
	L["serve.exact_server_p99_ms"] = 1000 * exactH.quantile(0.99)
	L["serve.approx_server_mean_ms"] = 1000 * approxH.mean()
	if reqs := to["kgeserve_approx_requests_total"] - from["kgeserve_approx_requests_total"]; reqs > 0 {
		L["serve.approx_candidates_per_query"] = (to["kgeserve_approx_candidates_total"] - from["kgeserve_approx_candidates_total"]) / reqs
		L["serve.approx_rescored_per_query"] = (to["kgeserve_approx_rescored_total"] - from["kgeserve_approx_rescored_total"]) / reqs
	}

	parent, end := rc.tr.begin("replay", 0)
	defer end()
	// One uncached exact predict through the handler: heads from the ids
	// the traffic never uses, so the cache cannot answer.
	h := s.srv.Handler()
	var sweeps []float64
	for i := 0; i < 20; i++ {
		body := fmt.Sprintf(`{"head":%d,"relation":%d,"k":%d}`, serveEntities-replayHeads+i, i%serveRelations, serveK)
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewBufferString(body))
		w := httptest.NewRecorder()
		_, endSpan := rc.tr.begin("serve.sweep", parent)
		h.ServeHTTP(w, req)
		sweeps = append(sweeps, 1000*endSpan())
		if w.Code != http.StatusOK {
			return fmt.Errorf("sweep replay: HTTP %d: %s", w.Code, w.Body.String())
		}
	}
	L["serve.sweep_ms"] = median(sweeps)

	st := s.srv.Store()
	ix := st.Packed()
	if ix == nil {
		return fmt.Errorf("store has no packed index for %s", serveModel)
	}
	sc := binpack.NewScratch()
	const searches = 200
	var searchErr error
	_, endSpan := rc.tr.begin("binpack.search", parent)
	L["binpack.search_us"] = perOp(searches, func() {
		for i := 0; i < searches; i++ {
			e := serveEntities - replayHeads + i%replayHeads
			if _, _, _, err := ix.Search(st.Model(), "tail", st.EntityRow(e), st.RelationRow(i%serveRelations),
				st.EntityRow, serveK, serve.DefaultCandidates, nil, sc); err != nil {
				searchErr = err
			}
		}
	}) / 1000
	endSpan()
	if searchErr != nil {
		return fmt.Errorf("search replay: %w", searchErr)
	}
	var builds []float64
	for i := 0; i < 3; i++ {
		_, endSpan := rc.tr.begin("binpack.build", parent)
		_, err := binpack.Build(st.Model(), st.NumEntities(), st.EntityRow)
		builds = append(builds, endSpan())
		if err != nil {
			return fmt.Errorf("index build replay: %w", err)
		}
	}
	L["binpack.build_s"] = median(builds)
	return nil
}
