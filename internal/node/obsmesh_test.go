package node_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"minroute/internal/leaktest"
	"minroute/internal/node"
	"minroute/internal/obs"
	"minroute/internal/topo"
	"minroute/internal/transport"
)

// obsClient returns an HTTP client whose idle connections are reaped at
// test end, keeping the leaktest window clean.
func obsClient(t *testing.T) *http.Client {
	t.Helper()
	tr := &http.Transport{DisableKeepAlives: true}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

func obsGet(t *testing.T, c *http.Client, url string) (int, string) {
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

// TestMeshObservability boots a lossy three-node UDP ring with the full
// observability plane on, converges it, and checks that every node's
// endpoints tell the truth: /readyz flips to 200 mesh-wide, /metrics
// exposes per-link ARQ and session instruments, and /routes and /peers
// agree with the mesh's own state.
func TestMeshObservability(t *testing.T) {
	leaktest.Check(t)
	g := topo.Ring(3, 1.5*topo.Mb, 0.01)
	m, err := node.NewMesh(g, node.MeshConfig{
		Fabric:         node.FabricUDP,
		Clock:          node.NewWallClock(),
		CostOf:         topo.PropCost,
		Fault:          transport.Fault{Seed: 1, LossProb: 0.05},
		ARQ:            transport.ARQConfig{RTO: 0.01, MaxRTO: 0.2},
		HeartbeatEvery: 0.2,
		DeadAfter:      60,
		ObsAddr:        "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	awaitMesh(t, m)

	urls := m.ObsURLs()
	if len(urls) != 3 {
		t.Fatalf("ObsURLs: got %d, want 3", len(urls))
	}
	c := obsClient(t)

	// Every node's /readyz must flip to 200 once its stability streak
	// fills; the deadline is counted in polls, not wall timestamps.
	for i, u := range urls {
		ready := false
		for poll := 0; poll < 2000 && !ready; poll++ {
			code, _ := obsGet(t, c, u+"/readyz")
			ready = code == http.StatusOK
			if !ready {
				time.Sleep(2 * time.Millisecond)
			}
		}
		if !ready {
			t.Fatalf("node %d never turned ready at %s", i, u)
		}
	}

	// /metrics carries session and per-link ARQ families with the node
	// const label.
	code, body := obsGet(t, c, urls[0]+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, want := range []string{
		"# TYPE mdr_session_peer_ups_total counter",
		`mdr_session_peers{node="0"} 2`,
		`mdr_arq_retransmits_total{link="0-1",node="0"}`,
		`mdr_arq_window{link="0-2",node="0"}`,
		`mdr_session_lsus_sent_total{node="0"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	// /routes: a converged 3-ring lists itself (distance 0) plus both
	// other nodes, each with a positive distance and a successor.
	code, body = obsGet(t, c, urls[0]+"/routes")
	if code != http.StatusOK {
		t.Fatalf("/routes: status %d", code)
	}
	var rd obs.RoutesDoc
	if err := json.Unmarshal([]byte(body), &rd); err != nil {
		t.Fatalf("/routes: %v", err)
	}
	if rd.ID != 0 || len(rd.Routes) != 3 {
		t.Fatalf("/routes: got %+v", rd)
	}
	for _, r := range rd.Routes {
		if r.Dst == 0 {
			continue // self row
		}
		if r.Dist <= 0 || len(r.Successors) == 0 || r.Best < 0 || r.FD <= 0 {
			t.Errorf("/routes row not converged: %+v", r)
		}
	}

	// /peers: degree-2 ring, ARQ instruments wired.
	code, body = obsGet(t, c, urls[0]+"/peers")
	if code != http.StatusOK {
		t.Fatalf("/peers: status %d", code)
	}
	var pd obs.PeersDoc
	if err := json.Unmarshal([]byte(body), &pd); err != nil {
		t.Fatalf("/peers: %v", err)
	}
	if pd.MinPeers != 2 || len(pd.Peers) != 2 {
		t.Fatalf("/peers: got %+v", pd)
	}
	for _, p := range pd.Peers {
		if p.RTO <= 0 {
			t.Errorf("/peers: peer %d has no live RTO: %+v", p.ID, p)
		}
	}

	// Close reaps every obs server: URLs go blank and sockets refuse.
	m.Close()
	if got := m.Nodes[0].ObsURL(); got != "" {
		t.Fatalf("ObsURL after Close = %q, want empty", got)
	}
	if _, err := c.Get(urls[0] + "/healthz"); err == nil {
		t.Fatal("obs server still serving after mesh Close")
	}
}

// TestMeshWithoutObsHasNoURLs pins the opt-in: a mesh built without
// ObsAddr serves nothing and reports no URLs.
func TestMeshWithoutObsHasNoURLs(t *testing.T) {
	leaktest.Check(t)
	m, err := node.NewMesh(topo.Ring(3, 1.5*topo.Mb, 0.01), node.MeshConfig{
		Clock:  node.NewWallClock(),
		CostOf: topo.PropCost,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if urls := m.ObsURLs(); urls != nil {
		t.Fatalf("ObsURLs without ObsAddr = %v, want nil", urls)
	}
	if got := m.Nodes[0].ObsURL(); got != "" {
		t.Fatalf("ObsURL without ObsAddr = %q, want empty", got)
	}
}
