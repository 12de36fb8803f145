package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"minroute/internal/leaktest"
	"minroute/internal/node"
	"minroute/internal/obs"
	"minroute/internal/topo"
	"minroute/internal/transport"
)

func TestResolveTargets(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "obs.txt")
	if err := os.WriteFile(manifest, []byte("http://a:1\n\n  http://b:2  \n"), 0o644); err != nil {
		t.Fatal(err)
	}
	urls, err := resolveTargets(manifest, " http://c:3 ,, http://d:4")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	if len(urls) != len(want) {
		t.Fatalf("got %v, want %v", urls, want)
	}
	for i := range want {
		if urls[i] != want[i] {
			t.Fatalf("got %v, want %v", urls, want)
		}
	}

	if _, err := resolveTargets("", ""); err == nil {
		t.Fatal("no targets should be an error")
	}
	if _, err := resolveTargets(filepath.Join(dir, "missing.txt"), ""); err == nil {
		t.Fatal("missing manifest should be an error")
	}
}

// fakeObs serves /readyz and /peers like a node's obs server, turning
// ready after the given number of /readyz polls.
func fakeObs(t *testing.T, id, readyAfter int) *httptest.Server {
	t.Helper()
	var polls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		n := polls.Add(1)
		rd := obs.Readiness{
			Ready: n > int64(readyAfter), Passive: true,
			Peers: 2, MinPeers: 2, Streak: 10, StablePolls: 10,
			Hash: "deadbeefcafe",
		}
		code := http.StatusOK
		if !rd.Ready {
			code = http.StatusServiceUnavailable
		}
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(rd)
	})
	mux.HandleFunc("/peers", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(obs.PeersDoc{
			ID: id, MinPeers: 2,
			Peers: []obs.Peer{
				{ID: (id + 1) % 3, Cost: 1, RTO: 0.05, Retransmits: 2, Window: 1},
				{ID: (id + 2) % 3, Cost: 1, RTO: 0.01, Retransmits: 3},
			},
		})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestRunWatchConverges drives the watcher against fake nodes that turn
// ready after a few polls and checks the rendered table.
func TestRunWatchConverges(t *testing.T) {
	leaktest.Check(t)
	var urls []string
	for id := 0; id < 3; id++ {
		urls = append(urls, fakeObs(t, id, 2).URL)
	}
	var out strings.Builder
	if err := runWatch(&out, urls, 0.005, 10); err != nil {
		t.Fatalf("runWatch: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"NODE", "READY",
		"poll 0: 0/3 nodes ready",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// Row content (tabwriter pads, so match fields, not raw tabs).
	for _, line := range strings.Split(got, "\n") {
		if !strings.HasPrefix(line, "0 ") {
			continue
		}
		f := strings.Fields(line)
		want := []string{"0", "yes", "yes", "2/2", "0", "10/10", "5", "0.0500", "deadbeef"}
		if fmt.Sprint(f) != fmt.Sprint(want) {
			t.Errorf("node 0 row = %v, want %v", f, want)
		}
	}
}

// TestRunWatchDeadline pins the failure mode: a node that never turns
// ready must make the watcher exit nonzero after the poll-counted
// deadline, still rendering the table for diagnosis.
func TestRunWatchDeadline(t *testing.T) {
	leaktest.Check(t)
	urls := []string{fakeObs(t, 0, 1<<30).URL}
	var out strings.Builder
	err := runWatch(&out, urls, 0.002, 0.02)
	if err == nil || !strings.Contains(err.Error(), "not converged") {
		t.Fatalf("want deadline error, got %v", err)
	}
	if !strings.Contains(out.String(), "no") {
		t.Errorf("failure table should show a not-ready node:\n%s", out.String())
	}
}

// TestRunWatchUnreachable: a dead target renders an error row and fails
// the watch.
func TestRunWatchUnreachable(t *testing.T) {
	leaktest.Check(t)
	srv := fakeObs(t, 0, 0)
	url := srv.URL
	srv.Close()
	var out strings.Builder
	if err := runWatch(&out, []string{url}, 0.002, 0.01); err == nil {
		t.Fatal("watching a dead target should fail")
	}
	if !strings.Contains(out.String(), url) {
		t.Errorf("error row should name the target:\n%s", out.String())
	}
}

// TestWatchLiveMesh is the end-to-end path: a lossy UDP ring with the
// observability plane on, watched to convergence exactly as CI does.
func TestWatchLiveMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a live UDP mesh; not a -short test")
	}
	leaktest.Check(t)
	m, err := node.NewMesh(topo.Ring(3, 1.5*topo.Mb, 0.01), node.MeshConfig{
		Fabric:         node.FabricUDP,
		Clock:          node.NewWallClock(),
		CostOf:         topo.PropCost,
		Fault:          transport.Fault{Seed: 1, LossProb: 0.02},
		ARQ:            transport.ARQConfig{RTO: 0.01, MaxRTO: 0.2},
		HeartbeatEvery: 0.2,
		DeadAfter:      60,
		ObsAddr:        "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var out strings.Builder
	if err := runWatch(&out, m.ObsURLs(), 0.02, 30); err != nil {
		t.Fatalf("runWatch: %v\noutput:\n%s", err, out.String())
	}
	// Three converged rows: ready, passive, fully peered, each carrying
	// its own (per-node) state hash.
	converged := 0
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		f := strings.Fields(line)
		if len(f) != 9 || f[0] == "NODE" {
			continue
		}
		if f[1] == "yes" && f[2] == "yes" && f[3] == "2/2" && len(f[8]) == 8 {
			converged++
		}
	}
	if converged != 3 {
		t.Errorf("want 3 converged rows, got %d:\n%s", converged, out.String())
	}
}
