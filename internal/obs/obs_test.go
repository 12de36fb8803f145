package obs_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"minroute/internal/leaktest"
	"minroute/internal/obs"
	"minroute/internal/telemetry"
	"minroute/internal/transport"
)

// fakeNode is a concurrency-safe stand-in for a live node's Sample
// closure: tests mutate its fields and the obs server snapshots them
// from poll ticks and HTTP handlers.
type fakeNode struct {
	mu     sync.Mutex
	sample obs.Sample
}

func (f *fakeNode) Sample() obs.Sample {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.sample
	s.Peers = append([]obs.Peer(nil), f.sample.Peers...)
	s.Routes = append([]obs.Route(nil), f.sample.Routes...)
	return s
}

func (f *fakeNode) set(mut func(*obs.Sample)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mut(&f.sample)
}

// client returns an HTTP client whose idle connections are reaped at
// test end, keeping the leaktest window clean.
func client(t *testing.T) *http.Client {
	t.Helper()
	tr := &http.Transport{DisableKeepAlives: true}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

func get(t *testing.T, c *http.Client, url string) (int, string) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func newTestServer(t *testing.T, clk *transport.VirtualClock, fn *fakeNode, reg *telemetry.Registry, refresh func()) *obs.Server {
	t.Helper()
	s, err := obs.NewServer(obs.Config{
		Addr:        "127.0.0.1:0",
		Clock:       clk,
		Sample:      fn.Sample,
		Registry:    reg,
		Refresh:     refresh,
		ConstLabels: map[string]string{"node": "7"},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestConfigValidation(t *testing.T) {
	leaktest.Check(t)
	if _, err := obs.NewServer(obs.Config{Addr: "127.0.0.1:0", Sample: func() obs.Sample { return obs.Sample{} }}); err == nil {
		t.Fatal("want error without Clock")
	}
	if _, err := obs.NewServer(obs.Config{Addr: "127.0.0.1:0", Clock: transport.NewVirtualClock()}); err == nil {
		t.Fatal("want error without Sample")
	}
	if _, err := obs.NewServer(obs.Config{Addr: "256.0.0.1:bogus", Clock: transport.NewVirtualClock(), Sample: func() obs.Sample { return obs.Sample{} }}); err == nil {
		t.Fatal("want error for unbindable address")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	leaktest.Check(t)
	clk := transport.NewVirtualClock()
	reg := telemetry.NewRegistry(1)
	reg.Counter("control.msgs").Set(42)
	reg.Counter("arq.retransmits.0-1").Set(3)
	reg.Gauge("arq.window.0-1").Set(5)
	reg.Histogram("lsu.batch").Observe(0.5, 2)
	var refreshed atomic.Bool
	fn := &fakeNode{sample: obs.Sample{ID: 7}}
	s := newTestServer(t, clk, fn, reg, func() {
		refreshed.Store(true)
		reg.Counter("telemetry.events.dropped").Set(9)
	})

	code, body := get(t, client(t), s.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if !refreshed.Load() {
		t.Fatal("/metrics did not invoke Refresh")
	}
	for _, want := range []string{
		"# TYPE mdr_control_msgs_total counter\n",
		`mdr_control_msgs_total{node="7"} 42` + "\n",
		`mdr_arq_retransmits_total{link="0-1",node="7"} 3` + "\n",
		"# TYPE mdr_arq_window gauge\n",
		`mdr_arq_window{link="0-1",node="7"} 5` + "\n",
		`mdr_lsu_batch_count{node="7"} 1` + "\n",
		`mdr_lsu_batch_sum{node="7"} 2` + "\n",
		`mdr_lsu_batch_max{node="7"} 2` + "\n",
		`mdr_telemetry_events_dropped_total{node="7"} 9` + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestHealthAndStateEndpoints(t *testing.T) {
	leaktest.Check(t)
	clk := transport.NewVirtualClock()
	fn := &fakeNode{sample: obs.Sample{
		ID:       3,
		MinPeers: 2,
		Peers: []obs.Peer{
			{ID: 1, Cost: 2.5, Outstanding: 1, RTO: 0.01, Retransmits: 4, Window: 2},
			{ID: 2, Cost: 1.5},
		},
		Routes: []obs.Route{
			{Dst: 0, Dist: 1.25, FD: 1.25, Successors: []int{1, 2}, Best: 1},
		},
	}}
	s := newTestServer(t, clk, fn, nil, nil)
	c := client(t)

	clk.Advance(0.5)
	code, body := get(t, c, s.URL()+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz: status %d", code)
	}
	var h obs.Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz: %v", err)
	}
	if h.Status != "ok" || h.ID != 3 || h.Peers != 2 || h.Uptime != 0.5 {
		t.Fatalf("/healthz: got %+v", h)
	}

	code, body = get(t, c, s.URL()+"/routes")
	if code != http.StatusOK {
		t.Fatalf("/routes: status %d", code)
	}
	var rd obs.RoutesDoc
	if err := json.Unmarshal([]byte(body), &rd); err != nil {
		t.Fatalf("/routes: %v", err)
	}
	if rd.ID != 3 || len(rd.Routes) != 1 || rd.Routes[0].Best != 1 || len(rd.Routes[0].Successors) != 2 {
		t.Fatalf("/routes: got %+v", rd)
	}

	code, body = get(t, c, s.URL()+"/peers")
	if code != http.StatusOK {
		t.Fatalf("/peers: status %d", code)
	}
	var pd obs.PeersDoc
	if err := json.Unmarshal([]byte(body), &pd); err != nil {
		t.Fatalf("/peers: %v", err)
	}
	if pd.ID != 3 || pd.MinPeers != 2 || len(pd.Peers) != 2 || pd.Peers[0].Retransmits != 4 {
		t.Fatalf("/peers: got %+v", pd)
	}

	if code, _ := get(t, c, s.URL()+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: status %d", code)
	}
}

func TestReadinessStreak(t *testing.T) {
	leaktest.Check(t)
	clk := transport.NewVirtualClock()
	fn := &fakeNode{sample: obs.Sample{ID: 0, MinPeers: 1, Digest: "d0"}}
	s := newTestServer(t, clk, fn, nil, nil)
	c := client(t)

	readyz := func() obs.Readiness {
		code, body := get(t, c, s.URL()+"/readyz")
		var r obs.Readiness
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatalf("/readyz: %v", err)
		}
		if r.Ready != (code == http.StatusOK) {
			t.Fatalf("/readyz: ready=%v but status %d", r.Ready, code)
		}
		return r
	}

	// Not eligible: no peers yet.
	clk.Advance(0.1)
	if r := readyz(); r.Ready || r.Streak != 0 {
		t.Fatalf("ineligible node reported %+v", r)
	}

	// Eligible with a stable summary: streak accumulates to ready.
	fn.set(func(s *obs.Sample) {
		s.Passive = true
		s.Peers = []obs.Peer{{ID: 1, Cost: 1}}
	})
	clk.Advance((obs.StablePolls + 0.5) * obs.PollEvery)
	r := readyz()
	if !r.Ready || r.Streak < obs.StablePolls || r.Hash != "d0" {
		t.Fatalf("stable node not ready: %+v", r)
	}

	// A state change resets the streak...
	fn.set(func(s *obs.Sample) { s.Digest = "d1" })
	clk.Advance(obs.PollEvery)
	if r := readyz(); r.Ready || r.Streak != 1 {
		t.Fatalf("changed state should reset streak: %+v", r)
	}
	// ...as does losing eligibility mid-streak.
	fn.set(func(s *obs.Sample) { s.Outstanding = 2 })
	clk.Advance(obs.PollEvery)
	if r := readyz(); r.Ready || r.Streak != 0 {
		t.Fatalf("ineligible node should zero the streak: %+v", r)
	}
}

// TestSettleRule pins the one settle rule on a scripted poll sequence:
// the streak resets on every ineligible poll — not PASSIVE, short of
// peers, or a transport window still holding frames — and restarts at one
// on a new digest, and the state settles at exactly the StablePolls-th
// equal eligible poll. obs.Await, the loop node.Mesh.AwaitConverged and
// mdrnode run, and a Server polling the same samples on a VirtualClock
// reach the same verdict at the same poll.
func TestSettleRule(t *testing.T) {
	leaktest.Check(t)
	ok := obs.Sample{Passive: true, MinPeers: 1, Peers: []obs.Peer{{ID: 1}}, Digest: "a"}
	with := func(mut func(*obs.Sample)) obs.Sample {
		s := ok
		mut(&s)
		return s
	}
	// Every run of equal eligible polls but the last is one poll short, so
	// a streak that survived an ineligible poll or a digest change would
	// settle early.
	var script []obs.Sample
	add := func(s obs.Sample, n int) {
		for i := 0; i < n; i++ {
			script = append(script, s)
		}
	}
	add(ok, obs.StablePolls-1)
	add(with(func(s *obs.Sample) { s.Passive = false }), 1)
	add(ok, obs.StablePolls-1)
	add(with(func(s *obs.Sample) { s.Peers = nil }), 1)
	add(ok, obs.StablePolls-1)
	add(with(func(s *obs.Sample) { s.Outstanding = 1 }), 1)
	add(ok, obs.StablePolls-1)
	add(with(func(s *obs.Sample) { s.Digest = "b" }), obs.StablePolls-1)
	add(ok, obs.StablePolls)
	settleAt := len(script) - 1

	var st obs.Settle
	for i, s := range script {
		if got := st.Observe(s.Eligible(), s.Digest); got != (i == settleAt) {
			t.Fatalf("poll %d: Settle.Observe = %v, want %v", i, got, i == settleAt)
		}
	}

	polls := 0
	settled := obs.Await(func() (bool, string) {
		s := script[polls]
		polls++
		return s.Eligible(), s.Digest
	}, len(script), func() {})
	if !settled || polls-1 != settleAt {
		t.Fatalf("Await settled=%v after %d polls, want true after %d", settled, polls, settleAt+1)
	}
	if obs.Await(func() (bool, string) { return true, "a" }, obs.StablePolls-1, func() {}) {
		t.Fatal("Await settled in fewer than StablePolls polls")
	}

	clk := transport.NewVirtualClock()
	fn := &fakeNode{}
	srv := newTestServer(t, clk, fn, nil, nil)
	c := client(t)
	for i, s := range script {
		fn.set(func(cur *obs.Sample) { *cur = s })
		clk.Advance(obs.PollEvery) // exactly one poll tick
		if code, body := get(t, c, srv.URL()+"/readyz"); (code == http.StatusOK) != (i >= settleAt) {
			t.Fatalf("poll %d: /readyz answered %d, want ready=%v:\n%s", i, code, i >= settleAt, body)
		}
	}
}

func TestCloseIdempotentAndStopsPolling(t *testing.T) {
	leaktest.Check(t)
	clk := transport.NewVirtualClock()
	var calls int
	var mu sync.Mutex
	s, err := obs.NewServer(obs.Config{
		Addr:  "127.0.0.1:0",
		Clock: clk,
		Sample: func() obs.Sample {
			mu.Lock()
			calls++
			mu.Unlock()
			return obs.Sample{}
		},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	clk.Advance(0.1)
	s.Close()
	s.Close() // idempotent
	mu.Lock()
	before := calls
	mu.Unlock()
	clk.Advance(1)
	mu.Lock()
	after := calls
	mu.Unlock()
	if after != before {
		t.Fatalf("poller still sampling after Close: %d -> %d", before, after)
	}
	if _, err := client(t).Get(s.URL() + "/healthz"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

// TestConcurrentScrape hammers every endpoint while poll ticks advance,
// under -race the usual way this package's locking discipline is proven.
func TestConcurrentScrape(t *testing.T) {
	leaktest.Check(t)
	clk := transport.NewVirtualClock()
	reg := telemetry.NewRegistry(1)
	ctr := reg.Counter("arq.retransmits.0-1")
	fn := &fakeNode{sample: obs.Sample{ID: 0, Passive: true, Digest: "d0"}}
	s := newTestServer(t, clk, fn, reg, nil)
	c := client(t)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			paths := []string{"/metrics", "/healthz", "/readyz", "/routes", "/peers"}
			for j := 0; j < 20; j++ {
				ctr.Inc()
				resp, err := c.Get(s.URL() + paths[(i+j)%len(paths)])
				if err != nil {
					t.Errorf("GET: %v", err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	for {
		select {
		case <-done:
			if got := ctr.Value(); got != 80 {
				t.Fatalf("atomic counter lost updates: %v", got)
			}
			return
		default:
			clk.Advance(0.02)
		}
	}
}

func ExampleWritePrometheus() {
	reg := telemetry.NewRegistry(1)
	reg.Counter("control.msgs").Set(12)
	reg.Gauge("arq.window.0-1").Set(3)
	_ = obs.WritePrometheus(stdout{}, reg.Gather(), map[string]string{"node": "0"})
	// Output:
	// # TYPE mdr_control_msgs_total counter
	// mdr_control_msgs_total{node="0"} 12
	// # TYPE mdr_arq_window gauge
	// mdr_arq_window{link="0-1",node="0"} 3
}

type stdout struct{}

func (stdout) Write(p []byte) (int, error) { return fmt.Print(string(p)) }
