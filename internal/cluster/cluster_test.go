package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// recorder counts job completions per idempotency key across the
// whole test cluster — the exactly-once oracle.
type recorder struct {
	mu    sync.Mutex
	runs  map[string]int    // key → completions
	where map[string]string // key → replica name that completed it
}

func newRecorder() *recorder {
	return &recorder{runs: make(map[string]int), where: make(map[string]string)}
}

func (r *recorder) done(key, replica string) {
	r.mu.Lock()
	r.runs[key]++
	r.where[key] = replica
	r.mu.Unlock()
}

func (r *recorder) count(key string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runs[key]
}

func (r *recorder) completedOn(replica string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, w := range r.where {
		if w == replica {
			n++
		}
	}
	return n
}

// testReplica is one statleakd stand-in: a real server.Manager +
// Handler whose execute boundary is intercepted, so jobs finish in
// milliseconds (or block forever, for the failover victim) without
// running an actual optimization.
type testReplica struct {
	name string
	mgr  *server.Manager
	ts   *httptest.Server

	mu      sync.Mutex
	blocked bool // block executes until job ctx cancels
}

func (r *testReplica) setBlocked(b bool) {
	r.mu.Lock()
	r.blocked = b
	r.mu.Unlock()
}

func (r *testReplica) isBlocked() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.blocked
}

// newTestReplica starts a replica whose intercepted executes record
// completions into rec.
func newTestReplica(t *testing.T, name string, rec *recorder) *testReplica {
	t.Helper()
	r := &testReplica{name: name}
	r.mgr = server.NewManager(server.Config{
		Workers:    4,
		QueueDepth: 64,
		ResultTTL:  time.Minute,
		FailPoints: &server.FailPoints{
			Execute: func(ctx context.Context, job *server.Job) (*server.Outcome, error, bool) {
				if r.isBlocked() {
					<-ctx.Done()
					return nil, ctx.Err(), true
				}
				rec.done(job.Req.IdempotencyKey, r.name)
				return &server.Outcome{
					Optimizer: "stub",
					Circuit:   job.Req.Name,
					Gates:     1,
					Feasible:  true,
				}, nil, true
			},
		},
	})
	r.ts = httptest.NewServer(server.Handler(r.mgr))
	t.Cleanup(func() {
		r.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = r.mgr.Shutdown(ctx) // force-cancels blocked executes; fine in teardown
	})
	return r
}

// newTestCluster starts n intercepted replicas and a coordinator over
// them with probe timing tightened for tests. Stealing is disabled so
// placement is pure ring ownership (deterministic per key).
func newTestCluster(t *testing.T, n int, rec *recorder) (*Coordinator, *httptest.Server, []*testReplica) {
	t.Helper()
	replicas := make([]*testReplica, n)
	urls := make([]string, n)
	for i := range replicas {
		replicas[i] = newTestReplica(t, fmt.Sprintf("replica-%d", i), rec)
		urls[i] = replicas[i].ts.URL
	}
	coord, err := New(context.Background(), Config{
		Replicas:       urls,
		ProbeInterval:  25 * time.Millisecond,
		ProbeTimeout:   500 * time.Millisecond,
		FailAfter:      2,
		StealThreshold: -1,
		ProxyTimeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	ts := httptest.NewServer(Handler(coord))
	t.Cleanup(func() {
		ts.Close()
		coord.Stop()
	})
	return coord, ts, replicas
}

func clusterReq(key string) server.Request {
	// Name varies per key so canonical hashes (and hence ring
	// placement) differ job to job.
	return server.Request{Circuit: "s432", Name: key, IdempotencyKey: key}
}

func postJob(t *testing.T, base string, req server.Request) (server.Status, int) {
	t.Helper()
	code, body := doJSON(t, http.MethodPost, base+"/v1/jobs", req)
	var st server.Status
	if code == http.StatusAccepted {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("submit response: %v (%s)", err, body)
		}
	}
	return st, code
}

func doJSON(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var buf []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		buf = b
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, out
}

func pollStatus(t *testing.T, base, id string, timeout time.Duration, pred func(server.Status) bool) server.Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, body := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("status %s: got %d, body %s", id, code, body)
		}
		var st server.Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("status response: %v", err)
		}
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %+v", id, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterRejectsOversizedRequest: a request past the server's caps
// is refused with a 400 at the coordinator, before any replica runs it.
func TestClusterRejectsOversizedRequest(t *testing.T) {
	rec := newRecorder()
	_, ts, _ := newTestCluster(t, 3, rec)
	for _, req := range []server.Request{
		{Circuit: "s432", Name: "big-mc", IdempotencyKey: "big-mc", MCSamples: server.MaxMCSamplesCap + 1},
		{Circuit: "s432", Name: "big-moves", IdempotencyKey: "big-moves", MaxMoves: server.MaxMovesCap + 1},
	} {
		if _, code := postJob(t, ts.URL, req); code != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", req.Name, code)
		}
		if n := rec.count(req.IdempotencyKey); n != 0 {
			t.Errorf("%s: ran %d times on a replica", req.Name, n)
		}
	}
}

func TestClusterRouteAndResult(t *testing.T) {
	rec := newRecorder()
	_, ts, replicas := newTestCluster(t, 3, rec)

	st, code := postJob(t, ts.URL, clusterReq("route-1"))
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d", code)
	}
	if st.ID == "" || st.ID[:5] != "cjob-" {
		t.Fatalf("coordinator ID = %q, want cjob-…", st.ID)
	}
	if st.Replica == "" || st.RemoteID == "" {
		t.Fatalf("forwarding fields missing: %+v", st)
	}
	if st.IdempotencyKey != "route-1" {
		t.Fatalf("idempotency key = %q", st.IdempotencyKey)
	}
	owned := false
	for _, r := range replicas {
		if r.ts.URL == st.Replica {
			owned = true
		}
	}
	if !owned {
		t.Fatalf("replica %q is not a cluster member", st.Replica)
	}

	final := pollStatus(t, ts.URL, st.ID, 5*time.Second, func(s server.Status) bool { return s.State.Terminal() })
	if final.State != server.StateDone {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}
	if final.Started == nil || final.Finished == nil {
		t.Fatalf("terminal status missing started/finished: %+v", final)
	}

	code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result: got %d, body %s", code, body)
	}
	var out server.Outcome
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("result decode: %v", err)
	}
	if out.Circuit != "route-1" || !out.Feasible {
		t.Fatalf("outcome = %+v", out)
	}
	if rec.count("route-1") != 1 {
		t.Fatalf("job ran %d times, want 1", rec.count("route-1"))
	}
}

func TestClusterIdempotentResubmit(t *testing.T) {
	rec := newRecorder()
	_, ts, _ := newTestCluster(t, 3, rec)

	first, _ := postJob(t, ts.URL, clusterReq("idem-1"))
	pollStatus(t, ts.URL, first.ID, 5*time.Second, func(s server.Status) bool { return s.State == server.StateDone })
	for i := 0; i < 3; i++ {
		again, code := postJob(t, ts.URL, clusterReq("idem-1"))
		if code != http.StatusAccepted {
			t.Fatalf("resubmit %d: got %d", i, code)
		}
		if again.ID != first.ID {
			t.Fatalf("resubmit %d created a new job: %s vs %s", i, again.ID, first.ID)
		}
	}
	if n := rec.count("idem-1"); n != 1 {
		t.Fatalf("keyed job ran %d times across 4 submissions, want 1", n)
	}

	// No client key: identical requests collapse on the derived
	// canonical hash; a differing request does not.
	anon := server.Request{Circuit: "s432", Name: "anon"}
	a1, _ := postJob(t, ts.URL, anon)
	a2, _ := postJob(t, ts.URL, anon)
	if a1.ID != a2.ID {
		t.Fatalf("identical anonymous submissions got %s and %s", a1.ID, a2.ID)
	}
	other, _ := postJob(t, ts.URL, server.Request{Circuit: "s432", Name: "anon-other"})
	if other.ID == a1.ID {
		t.Fatalf("distinct request deduped onto %s", a1.ID)
	}
}

// TestClusterFailoverExactlyOnce is the issue's acceptance scenario:
// ≥20 keyed jobs over 3 replicas, one replica killed mid-run, every
// job finishes exactly once.
func TestClusterFailoverExactlyOnce(t *testing.T) {
	rec := newRecorder()
	coord, ts, replicas := newTestCluster(t, 3, rec)

	// Pick the victim by where keys actually land: block it so its
	// share of the jobs wedges mid-run, leave the others fast.
	victim := replicas[0]
	victim.setBlocked(true)

	const jobs = 24
	ids := make([]string, 0, jobs)
	onVictim := 0
	for i := 0; i < jobs; i++ {
		st, code := postJob(t, ts.URL, clusterReq(fmt.Sprintf("fo-%02d", i)))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: got %d", i, code)
		}
		ids = append(ids, st.ID)
		if st.Replica == victim.ts.URL {
			onVictim++
		}
	}
	if onVictim == 0 {
		t.Fatalf("no job landed on the victim; test proves nothing (placement: %v)", onVictim)
	}
	t.Logf("%d/%d jobs on victim %s", onVictim, jobs, victim.ts.URL)

	// Kill the victim mid-run: its HTTP listener goes away, probes
	// start failing, and after FailAfter failures the coordinator
	// re-dispatches the stranded jobs to the next live ring owners.
	victim.ts.Close()

	for _, id := range ids {
		st := pollStatus(t, ts.URL, id, 15*time.Second, func(s server.Status) bool { return s.State.Terminal() })
		if st.State != server.StateDone {
			t.Fatalf("job %s ended %s (%s), want done", id, st.State, st.Error)
		}
		if st.Replica == victim.ts.URL {
			t.Fatalf("job %s still attributed to the dead victim", id)
		}
	}
	for i := 0; i < jobs; i++ {
		key := fmt.Sprintf("fo-%02d", i)
		if n := rec.count(key); n != 1 {
			t.Fatalf("key %s completed %d times, want exactly 1", key, n)
		}
	}
	if n := rec.completedOn(victim.name); n != 0 {
		t.Fatalf("victim completed %d jobs while blocked", n)
	}

	// The cluster view reflects the death.
	info := coord.Info()
	live := 0
	for _, rep := range info.Replicas {
		if rep.Alive {
			live++
		}
	}
	if live != 2 {
		t.Fatalf("live replicas = %d, want 2; info %+v", live, info.Replicas)
	}
}

func TestClusterCancelProxied(t *testing.T) {
	rec := newRecorder()
	_, ts, replicas := newTestCluster(t, 2, rec)
	for _, r := range replicas {
		r.setBlocked(true) // jobs run forever until cancelled
	}
	st, _ := postJob(t, ts.URL, clusterReq("cancel-1"))
	code, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if code != http.StatusAccepted {
		t.Fatalf("cancel: got %d, body %s", code, body)
	}
	final := pollStatus(t, ts.URL, st.ID, 5*time.Second, func(s server.Status) bool { return s.State.Terminal() })
	if final.State != server.StateCancelled {
		t.Fatalf("state after cancel = %s", final.State)
	}
	if rec.count("cancel-1") != 0 {
		t.Fatalf("cancelled job completed anyway")
	}
}

func TestClusterListFilterPagination(t *testing.T) {
	rec := newRecorder()
	_, ts, _ := newTestCluster(t, 2, rec)
	ids := make(map[string]bool)
	for i := 0; i < 5; i++ {
		st, _ := postJob(t, ts.URL, clusterReq(fmt.Sprintf("ls-%d", i)))
		ids[st.ID] = true
	}
	for id := range ids {
		pollStatus(t, ts.URL, id, 5*time.Second, func(s server.Status) bool { return s.State == server.StateDone })
	}

	var jl server.JobList
	code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?state=done&limit=2&offset=1", nil)
	if code != http.StatusOK {
		t.Fatalf("list: got %d, body %s", code, body)
	}
	if err := json.Unmarshal(body, &jl); err != nil {
		t.Fatalf("list decode: %v", err)
	}
	if jl.Total != 5 || len(jl.Jobs) != 2 || jl.Offset != 1 || jl.Limit != 2 {
		t.Fatalf("list envelope = total %d, page %d, offset %d, limit %d", jl.Total, len(jl.Jobs), jl.Offset, jl.Limit)
	}
	for _, st := range jl.Jobs {
		if !ids[st.ID] || st.State != server.StateDone {
			t.Fatalf("listed job %+v not a done job of this test", st)
		}
	}

	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?state=running", nil)
	if code != http.StatusOK {
		t.Fatalf("list running: got %d", code)
	}
	if err := json.Unmarshal(body, &jl); err != nil {
		t.Fatalf("list decode: %v", err)
	}
	if jl.Total != 0 {
		t.Fatalf("running jobs = %d, want 0: %s", jl.Total, body)
	}

	if code, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?state=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("bogus state filter: got %d, want 400", code)
	}
}

// TestStealTarget drives the hot-shard diversion logic directly: the
// registry's depth estimates decide when a submission leaves its ring
// owner.
func TestStealTarget(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1"}
	c := &Coordinator{
		cfg:  Config{Replicas: urls, StealThreshold: 4}.withDefaults(),
		ring: NewRing(DefaultVNodes, urls...),
		reg:  NewRegistry(2, urls),
	}
	now := time.Now()
	c.reg.MarkProbeSuccess("http://a:1", 10, now) // hot
	c.reg.MarkProbeSuccess("http://b:1", 0, now)  // idle
	c.reg.MarkProbeSuccess("http://c:1", 3, now)

	if got := c.stealTarget("http://a:1"); got != "http://b:1" {
		t.Fatalf("steal from hot owner → %q, want the idle replica", got)
	}
	if got := c.stealTarget("http://c:1"); got != "" {
		t.Fatalf("owner under threshold stole to %q", got)
	}

	// Below-threshold owners keep their keys even if someone is idler.
	c.reg.MarkProbeSuccess("http://a:1", 3, now)
	if got := c.stealTarget("http://a:1"); got != "" {
		t.Fatalf("cooled-down owner still steals to %q", got)
	}

	// Disabled stealing never diverts.
	c.cfg.StealThreshold = -1
	c.reg.MarkProbeSuccess("http://a:1", 100, now)
	if got := c.stealTarget("http://a:1"); got != "" {
		t.Fatalf("disabled stealer diverted to %q", got)
	}
}

func TestRegistryDeathAndRevival(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1"}
	reg := NewRegistry(2, urls)
	now := time.Now()
	if !reg.Alive("http://a:1") {
		t.Fatal("replicas must start alive")
	}
	if died := reg.MarkProbeFailure("http://a:1", fmt.Errorf("refused"), now); died {
		t.Fatal("one failure must not kill (failAfter=2)")
	}
	if died := reg.MarkProbeFailure("http://a:1", fmt.Errorf("refused"), now); !died {
		t.Fatal("second consecutive failure must kill")
	}
	if reg.Alive("http://a:1") || reg.LiveCount() != 1 {
		t.Fatalf("liveness after death: alive=%v live=%d", reg.Alive("http://a:1"), reg.LiveCount())
	}
	if revived := reg.MarkProbeSuccess("http://a:1", 0, now); !revived {
		t.Fatal("successful probe must revive")
	}
	if !reg.Alive("http://a:1") || reg.LiveCount() != 2 {
		t.Fatal("revival did not restore liveness")
	}
	// A lone failure after revival must not re-kill immediately: the
	// failure counter reset on success.
	if died := reg.MarkProbeFailure("http://a:1", fmt.Errorf("refused"), now); died {
		t.Fatal("failure count must reset on revival")
	}
}

func TestClusterHealthz(t *testing.T) {
	rec := newRecorder()
	_, ts, replicas := newTestCluster(t, 2, rec)
	code, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if code != http.StatusOK {
		t.Fatalf("healthz: got %d, body %s", code, body)
	}
	var h map[string]any
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	if h["role"] != "coordinator" {
		t.Fatalf("healthz role = %v", h["role"])
	}

	// With every replica dead the coordinator reports unavailable.
	for _, r := range replicas {
		r.ts.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ = doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz stayed %d with all replicas dead", code)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
