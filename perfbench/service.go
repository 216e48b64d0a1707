package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/opt"
	"repro/internal/scenario"
	"repro/internal/server"
)

// replicas is the size of the service workload's cluster.
const replicas = 3

// pollEvery is how often a client polls a job's status.
const pollEvery = 10 * time.Millisecond

// service is statleakd as its users see it: nproc closed-loop clients
// submitting distinct seeded netlists over HTTP to an in-process
// cluster coordinator over three in-process replicas (Workers: 1 each,
// statleakd's default probe and steal settings), polling each job to
// its end, then resubmitting it once under the same idempotency key.
type service struct {
	seed int64
	sz   sizeSpec

	reqs []server.Request // one per distinct job; keys are set per pass

	// The first job's netlist, for the probes.
	probeT probeTarget

	// The running stack.
	mgrs    []*server.Manager
	servers []*httptest.Server
	coord   *cluster.Coordinator
	front   *httptest.Server
	client  *http.Client
	meter   *meter
}

// fourCorners is the canned scenario one job in four carries: low and
// high supply at 0 and 110 °C.
func fourCorners() *scenario.Spec {
	return &scenario.Spec{Temps: []float64{0, 110}, Corners: []string{"vl", "vh"}}
}

func (w *service) setup(ctx context.Context) error {
	w.reqs = nil
	for i := 0; i < w.sz.serviceJobs; i++ {
		cfg, c, err := generate(w.sz.serviceShape, w.seed, i)
		if err != nil {
			return err
		}
		var sb strings.Builder
		if err := bench.Write(&sb, c); err != nil {
			return err
		}
		if i == 0 {
			d, err := newDesign(c)
			if err != nil {
				return err
			}
			dmin, err := opt.MinimumDelayCtx(ctx, d.Clone())
			if err != nil {
				return err
			}
			w.probeT = probeTarget{d: d, tmax: 1.3 * dmin, gen: cfg, netlist: sb.String()}
		}
		req := server.Request{
			Netlist:   sb.String(),
			Name:      cfg.Name,
			Optimizer: "statistical",
			MCSamples: w.sz.serviceMC,
			Seed:      1,
		}
		if i%4 == 3 {
			req.Scenario = fourCorners()
			req.TmaxFactor = 1.9
		}
		w.reqs = append(w.reqs, req)
	}

	w.meter = &meter{}
	var urls []string
	for i := 0; i < replicas; i++ {
		m := server.NewManager(server.Config{Workers: 1})
		ts := httptest.NewServer(w.meter.wrap(server.Handler(m)))
		w.mgrs = append(w.mgrs, m)
		w.servers = append(w.servers, ts)
		urls = append(urls, ts.URL)
	}
	coord, err := cluster.New(ctx, cluster.Config{Replicas: urls})
	if err != nil {
		return err
	}
	w.coord = coord
	w.front = httptest.NewServer(cluster.Handler(coord))
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	// Ready once the coordinator and every replica answer /healthz.
	for _, u := range append(urls, w.front.URL) {
		if code, body, err := w.do(ctx, http.MethodGet, u+"/healthz", nil); err != nil || code != http.StatusOK {
			return fmt.Errorf("health probe %s: %d %s %v", u, code, body, err)
		}
	}
	return nil
}

func (w *service) close() {
	if w.front != nil {
		w.front.Close()
		w.front = nil
	}
	if w.coord != nil {
		w.coord.Stop()
		w.coord = nil
	}
	for _, m := range w.mgrs {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = m.Shutdown(ctx) // a forced drain still stops every worker
		cancel()
	}
	for _, ts := range w.servers {
		ts.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	w.mgrs, w.servers = nil, nil
}

func (w *service) pass(ctx context.Context, r *run) error {
	w.meter.on.Store(r.tr != nil)
	defer w.meter.on.Store(false)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.reqs) || ctx.Err() != nil {
					return
				}
				w.job(ctx, r, i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// job runs one fresh job to its end and resubmits it once.
func (w *service) job(ctx context.Context, r *run, i int) {
	req := w.reqs[i]
	req.IdempotencyKey = fmt.Sprintf("perfbench-%d-%d-%d", w.seed, r.pass, i)
	body, err := json.Marshal(req)
	if !r.op(err, "encode request") {
		return
	}
	key := req.IdempotencyKey
	js := r.tr.begin(r.passSpan, "service.job", key)
	defer r.tr.end(js)

	t0 := time.Now()
	st, err := w.submit(ctx, r, js, body, key)
	submitted := time.Since(t0).Seconds()
	if !r.op(err, key+": submit") {
		return
	}
	final, err := w.await(ctx, r, js, st.ID, key)
	lat := time.Since(t0).Seconds()
	if !r.op(err, key+": poll") {
		return
	}
	out, raw, err := w.result(ctx, r, js, st.ID, key)
	if !r.op(err, key+": result") {
		return
	}
	r.sample("job_s", lat)
	r.sample("cluster.submit_s", submitted)
	r.check(final.State == server.StateDone, "%s: job ended %q (%s), want done", key, final.State, final.Error)
	r.check(out.Feasible, "%s: job outcome infeasible (yield %.4f)", key, out.YieldAtTmax)
	r.sample("opt.moves", float64(out.Moves))
	if final.Started != nil && final.Finished != nil {
		wait := final.Started.Sub(final.Created).Seconds()
		r.sample("server.queue_wait_s", wait)
		r.sample("server.run_s", final.Finished.Sub(*final.Started).Seconds())
		collided := 0.0
		if wait > 0.001 {
			collided = 1
		}
		r.sample("cluster.collision", collided)
	}

	// Resubmission under the same key: a lookup, not a run.
	rs := r.tr.begin(js, "service.resubmit", key)
	defer r.tr.end(rs)
	t1 := time.Now()
	st2, err := w.submit(ctx, r, rs, body, key)
	el := time.Since(t1).Seconds()
	if !r.op(err, key+": resubmit") {
		return
	}
	r.sample("resubmit_s", el)
	r.check(st2.ID == st.ID && st2.State == final.State,
		"%s: resubmission returned job %s (%s), want %s (%s)", key, st2.ID, st2.State, st.ID, final.State)
	_, raw2, err := w.result(ctx, r, rs, st2.ID, key)
	if !r.op(err, key+": resubmit result") {
		return
	}
	r.check(bytes.Equal(raw, raw2), "%s: resubmission's outcome differs from the first run's", key)
}

func (w *service) submit(ctx context.Context, r *run, parent int, body []byte, key string) (server.Status, error) {
	sp := r.tr.begin(parent, "http.POST /v1/jobs", key)
	code, data, err := w.do(ctx, http.MethodPost, w.front.URL+"/v1/jobs", body)
	r.tr.end(sp)
	var st server.Status
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("POST /v1/jobs: %d %s", code, data)
	}
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	return st, err
}

// await polls the job until it reaches a terminal state.
func (w *service) await(ctx context.Context, r *run, parent int, id, key string) (server.Status, error) {
	for {
		sp := r.tr.begin(parent, "http.GET /v1/jobs/{id}", key)
		code, data, err := w.do(ctx, http.MethodGet, w.front.URL+"/v1/jobs/"+id, nil)
		r.tr.end(sp)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET /v1/jobs/%s: %d %s", id, code, data)
		}
		var st server.Status
		if err == nil {
			err = json.Unmarshal(data, &st)
		}
		if err != nil || st.State.Terminal() {
			return st, err
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(pollEvery):
		}
	}
}

func (w *service) result(ctx context.Context, r *run, parent int, id, key string) (server.Outcome, []byte, error) {
	sp := r.tr.begin(parent, "http.GET /v1/jobs/{id}/result", key)
	code, data, err := w.do(ctx, http.MethodGet, w.front.URL+"/v1/jobs/"+id+"/result", nil)
	r.tr.end(sp)
	var out server.Outcome
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /v1/jobs/%s/result: %d %s", id, code, data)
	}
	if err == nil {
		err = json.Unmarshal(data, &out)
	}
	return out, data, err
}

func (w *service) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (w *service) report(ps []*passData) []metric {
	jobs := all(ps, "job_s")
	var rate []float64
	for _, p := range ps {
		if t := p.Wall * p.Scale; t > 0 {
			rate = append(rate, float64(len(p.Samples["job_s"]))/t)
		}
	}
	tailM := metric{Name: "job_tail_s", Unit: "s", Better: "lower", Bound: 0.20}
	if p, v, ok := tail(jobs); ok {
		tailM.Value, tailM.Note = v, fmt.Sprintf("p%g of %d fresh jobs", p, len(jobs))
	} else if len(jobs) > 0 {
		tailM.Value, tailM.Note = maxOf(jobs), fmt.Sprintf("max of %d fresh jobs (too few for a percentile with 10 beyond it)", len(jobs))
	}
	return []metric{
		{Name: "job_p50_s", Value: median(jobs), Unit: "s", Better: "lower", Bound: 0.10,
			Note: fmt.Sprintf("submit to terminal state, %d fresh jobs, %d clients, poll every %v", len(jobs), runtime.NumCPU(), pollEvery)},
		tailM,
		{Name: "jobs_per_s", Value: median(rate), Unit: "1/s", Better: "higher", Bound: 0.10,
			Note: fmt.Sprintf("fresh jobs completed per second of pass, %d closed-loop clients", runtime.NumCPU())},
		{Name: "resubmit_p50_ms", Value: 1000 * median(all(ps, "resubmit_s")), Unit: "ms", Better: "lower", Bound: 0.20,
			Note: "idempotent resubmission POST latency; " + tailNote(all(ps, "resubmit_s"), "s")},
	}
}

func (w *service) layers(ps []*passData) []metric {
	n := float64(len(ps))
	fresh := float64(len(all(ps, "job_s")))
	if n == 0 || fresh == 0 {
		return nil
	}
	posts, gets := w.meter.snapshot()
	return []metric{
		{Name: "opt.moves", Value: sum(all(ps, "opt.moves")) / n, Unit: "count"},
		{Name: "server.queue_wait_s", Value: mean(all(ps, "server.queue_wait_s")), Unit: "s",
			Note: "mean Status.Started − Created per fresh job"},
		{Name: "server.run_s", Value: mean(all(ps, "server.run_s")), Unit: "s",
			Note: "mean Status.Finished − Started per fresh job"},
		{Name: "server.submit_ms", Value: 1000 * mean(posts), Unit: "ms",
			Note: "mean replica-side POST /v1/jobs handler time"},
		{Name: "server.polls_per_job", Value: float64(gets) / fresh, Unit: "count",
			Note: "replica-side GET /v1/jobs/{id} per fresh job"},
		{Name: "cluster.submit_ms", Value: 1000 * mean(all(ps, "cluster.submit_s")), Unit: "ms",
			Note: "client-side POST latency of a fresh job through the coordinator"},
		{Name: "cluster.dedup_ms", Value: 1000 * mean(all(ps, "resubmit_s")), Unit: "ms",
			Note: "client-side POST latency of an idempotent resubmission"},
		{Name: "cluster.collision_frac", Value: mean(all(ps, "cluster.collision")), Unit: "ratio",
			Note: "share of fresh jobs that waited > 1 ms in a replica queue"},
	}
}

func (w *service) probe() probeTarget {
	return w.probeT
}

// meter times the replicas' HTTP handlers while on: the replica-side
// view of a submit, and the count of status polls that reach a
// replica.
type meter struct {
	on    atomic.Bool
	mu    sync.Mutex
	posts []float64
	gets  int
}

func (m *meter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !m.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		el := time.Since(t0).Seconds()
		m.mu.Lock()
		defer m.mu.Unlock()
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			m.posts = append(m.posts, el)
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") && !strings.HasSuffix(r.URL.Path, "/result"):
			m.gets++
		}
	})
}

func (m *meter) snapshot() ([]float64, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]float64(nil), m.posts...), m.gets
}
