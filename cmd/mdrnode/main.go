// mdrnode runs live MPDA routers over real transports and dumps the
// converged routing state as JSON.
//
// Mesh mode hosts a full topology in one process, one live node per
// router, peered over the chosen fabric — in-memory pipes (inmem, the
// default) or loopback UDP sockets with fault injection (udp):
//
//	mdrnode -topo net1 -fabric udp -loss 0.2 -dup 0.2 -reorder 0.2
//	mdrnode -topo cairn -telemetry out/
//
// Node mode hosts a single router that peers with other OS processes
// over localhost (or LAN) TCP:
//
//	mdrnode -node 0 -nodes 2 -listen 127.0.0.1:9000 -await-peers 1
//	mdrnode -node 1 -nodes 2 -peer 0@127.0.0.1:9000@2.5
//
// In node mode the process prints "LISTEN <addr>" once its listener is
// bound (so a port of :0 can be scraped by a harness), converges, prints
// its state JSON, sends BYE to its peers, and exits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"minroute/internal/graph"
	"minroute/internal/node"
	"minroute/internal/obs"
	"minroute/internal/telemetry"
	"minroute/internal/topo"
	"minroute/internal/transport"
)

// pollEvery is the settle rule's poll period, in which every wait here is
// counted: deadlines are polls, not wall timestamps, so the binary stays
// off time.Now (see the nowall lint check).
const pollEvery = time.Duration(obs.PollEvery * 1e9)

func main() {
	var (
		topoName     = flag.String("topo", "", "mesh mode: topology (cairn, net1, ring:<n>)")
		fabric       = flag.String("fabric", "inmem", "mesh mode: transport fabric (inmem, udp)")
		loss         = flag.Float64("loss", 0, "mesh mode, udp fabric: per-datagram loss probability")
		dup          = flag.Float64("dup", 0, "mesh mode, udp fabric: per-datagram duplication probability")
		reorder      = flag.Float64("reorder", 0, "mesh mode, udp fabric: per-datagram reorder probability")
		seed         = flag.Uint64("seed", 1, "fault-injection seed")
		nodeID       = flag.Int("node", -1, "node mode: this router's ID")
		nodes        = flag.Int("nodes", 0, "node mode: ID-space size")
		listen       = flag.String("listen", "", "node mode: TCP listen address for inbound peers")
		cost         = flag.Float64("cost", 1, "node mode: link cost for accepted peers")
		await        = flag.Int("await-peers", -1, "node mode: sessions to wait for (default: number of -peer flags)")
		timeout      = flag.Float64("timeout", 60, "give up after this many seconds")
		linger       = flag.Float64("linger", 2, "keep the converged process alive this many seconds (node mode: so slower peers finish; mesh mode: so a watcher can scrape)")
		httpAddr     = flag.String("http", "", "serve per-node observability HTTP on this address (mesh mode requires port :0 — one listener per node)")
		obsManifest  = flag.String("obs-manifest", "", "write the observability base URLs to this file, one per line, as soon as the servers are up")
		telemetryDir = flag.String("telemetry", "", "export telemetry artifacts into this directory")
		hb           = flag.Float64("heartbeat", 0.25, "session heartbeat period, seconds")
		dead         = flag.Float64("dead-after", 5, "declare a silent peer down after this many seconds")

		dataplane  = flag.Bool("dataplane", false, "mesh mode: give every node a live data plane on the mesh's fabric, fed by its phi tables")
		dataLoss   = flag.Float64("data-loss", 0, "mesh mode: per-datagram loss probability on the data plane (requires -dataplane)")
		dataDup    = flag.Float64("data-dup", 0, "mesh mode: per-datagram duplication probability on the data plane")
		traffic    = flag.String("traffic", "", "mesh mode: drive the topology's flows through the data plane with this model (cbr, poisson, onoff, adversary)")
		trafSecs   = flag.Float64("traffic-secs", 1, "mesh mode: traffic run length, seconds")
		trafRate   = flag.Float64("traffic-rate", 0, "mesh mode: override every commodity's rate, bits/s (0 keeps the topology's rates)")
		subflows   = flag.Int("subflows", 16, "mesh mode: sticky subflows per commodity")
		packetBits = flag.Float64("packet-bits", 8192, "mesh mode: data packet size, bits")
		minDeliv   = flag.Float64("min-deliv", -1, "mesh mode: fail unless at least this percentage of offered packets is delivered")
	)
	var peerFlags peerList
	flag.Var(&peerFlags, "peer", "node mode: peer as <id>@<host:port>@<cost>; repeatable")
	flag.Parse()

	var err error
	switch {
	case *topoName != "" && *nodeID >= 0:
		err = fmt.Errorf("-topo (mesh mode) and -node (node mode) are mutually exclusive")
	case *topoName != "":
		dp := dataOpts{
			enabled:  *dataplane,
			loss:     *dataLoss,
			dup:      *dataDup,
			model:    *traffic,
			secs:     *trafSecs,
			rate:     *trafRate,
			subflows: *subflows,
			bits:     *packetBits,
			minDeliv: *minDeliv,
		}
		err = runMesh(*topoName, *fabric, *loss, *dup, *reorder, *seed, *timeout, *linger, *hb, *dead, *telemetryDir, *httpAddr, *obsManifest, dp)
	case *nodeID >= 0:
		err = runNode(*nodeID, *nodes, *listen, *cost, *await, *timeout, *linger, *hb, *dead, *telemetryDir, *httpAddr, *obsManifest, peerFlags)
	default:
		err = fmt.Errorf("pick a mode: -topo <name> (mesh) or -node <id> (single node); see -help")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdrnode: %v\n", err)
		os.Exit(1)
	}
}

// peerSpec is one parsed -peer flag.
type peerSpec struct {
	id   graph.NodeID
	addr string
	cost float64
}

type peerList []peerSpec

func (p *peerList) String() string { return fmt.Sprintf("%d peers", len(*p)) }

func (p *peerList) Set(s string) error {
	parts := strings.Split(s, "@")
	if len(parts) != 3 {
		return fmt.Errorf("peer %q: want <id>@<host:port>@<cost>", s)
	}
	id, err := strconv.Atoi(parts[0])
	if err != nil || id < 0 {
		return fmt.Errorf("peer %q: bad id", s)
	}
	c, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || c <= 0 {
		return fmt.Errorf("peer %q: bad cost", s)
	}
	*p = append(*p, peerSpec{id: graph.NodeID(id), addr: parts[1], cost: c})
	return nil
}

// output is the JSON document both modes print.
type output struct {
	Mode    string              `json:"mode"`
	Topo    string              `json:"topo,omitempty"`
	Fabric  string              `json:"fabric,omitempty"`
	Hash    string              `json:"hash"`
	Routers []node.State        `json:"routers"`
	Traffic *node.TrafficReport `json:"traffic,omitempty"`
	Drops   *dataDrops          `json:"data_drops,omitempty"`
}

// dataDrops aggregates the mesh's forwarding-drop counters — the live
// loop-freedom evidence next to the lfi audit.
type dataDrops struct {
	Looped     float64 `json:"looped"`
	TTLExpired float64 `json:"ttl_expired"`
}

// dataOpts carries the mesh-mode data-plane and traffic flags.
type dataOpts struct {
	enabled    bool
	loss, dup  float64
	model      string
	secs, rate float64
	subflows   int
	bits       float64
	minDeliv   float64
}

// resolveTopo maps a -topo value to its network (graph plus any traffic
// matrix the topology defines).
func resolveTopo(name string) (*topo.Network, error) {
	switch {
	case name == "cairn":
		return topo.CAIRN(), nil
	case name == "net1":
		return topo.NET1(), nil
	case strings.HasPrefix(name, "ring:"):
		n, err := strconv.Atoi(name[len("ring:"):])
		if err != nil || n < 3 {
			return nil, fmt.Errorf("bad ring size in %q", name)
		}
		return &topo.Network{Graph: topo.Ring(n, 1.5*topo.Mb, 0.01)}, nil
	}
	return nil, fmt.Errorf("unknown topology %q (want cairn, net1, or ring:<n>)", name)
}

// newCapture builds the telemetry capture and its Trace front when an
// export directory was requested.
func newCapture(dir string, numRouters int) (*telemetry.Capture, *node.Trace, error) {
	if dir == "" {
		return nil, nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	capt := telemetry.NewCapture(numRouters)
	return capt, node.NewTrace(capt.Trace), nil
}

// runMesh hosts the whole topology in-process and prints the converged
// state of every router.
func runMesh(topoName, fabric string, loss, dup, reorder float64, seed uint64, timeout, linger, hb, dead float64, telemetryDir, httpAddr, obsManifest string, dp dataOpts) error {
	net, err := resolveTopo(topoName)
	if err != nil {
		return err
	}
	g := net.Graph
	if dp.model != "" && !dp.enabled {
		return fmt.Errorf("-traffic requires -dataplane")
	}
	if (dp.loss > 0 || dp.dup > 0) && !dp.enabled {
		return fmt.Errorf("-data-loss/-data-dup require -dataplane")
	}
	capt, trace, err := newCapture(telemetryDir, g.NumNodes())
	if err != nil {
		return err
	}
	mc := node.MeshConfig{
		Fabric:         node.Fabric(fabric),
		Clock:          node.NewWallClock(),
		CostOf:         topo.PropCost,
		Fault:          transport.Fault{Seed: seed, LossProb: loss, DupProb: dup, ReorderProb: reorder},
		ARQ:            transport.ARQConfig{RTO: 0.01, MaxRTO: 0.2},
		HeartbeatEvery: hb, DeadAfter: dead,
		Trace:     trace,
		ObsAddr:   httpAddr,
		Data:      dp.enabled,
		DataFault: transport.Fault{Seed: seed + 1, LossProb: dp.loss, DupProb: dp.dup},
	}
	if capt != nil {
		mc.Metrics = capt.Metrics
	}
	m, err := node.NewMesh(g, mc)
	if err != nil {
		return err
	}
	defer m.Close()
	// Publish the observability endpoints before convergence: a watcher
	// wants to follow the mesh turning ready, not just confirm it after
	// the fact. With the data plane up, each manifest line carries the
	// node's data-port address in a second column.
	var dataAddrs []string
	if dp.enabled {
		for _, n := range m.Nodes {
			dataAddrs = append(dataAddrs, n.DataPlane().LocalAddr())
		}
	}
	if err := announceObs(m.ObsURLs(), dataAddrs, obsManifest); err != nil {
		return err
	}
	maxPolls := int(timeout / pollEvery.Seconds())
	if err := m.AwaitConverged(maxPolls, func() { time.Sleep(pollEvery) }); err != nil {
		return err
	}
	out := output{Mode: "mesh", Topo: topoName, Fabric: fabric, Hash: m.Hash()}
	for _, n := range m.Nodes {
		out.Routers = append(out.Routers, n.State())
	}
	if dp.enabled {
		// The loop-freedom oracle audits the converged successor graph;
		// the per-forwarder counters below are its runtime shadow.
		if err := m.CheckLoopFree(); err != nil {
			return fmt.Errorf("loop-freedom audit: %w", err)
		}
	}
	if dp.model != "" {
		rep, err := runMeshTraffic(m, net, dp)
		if err != nil {
			return err
		}
		out.Traffic = rep
	}
	if dp.enabled {
		var drops dataDrops
		for _, n := range m.Nodes {
			s := n.DataPlane().Snapshot()
			drops.Looped += s.Looped
			drops.TTLExpired += s.TTLExpired
		}
		out.Drops = &drops
	}
	if err := printJSON(out); err != nil {
		return err
	}
	// Gates run after the report prints, so a failing run still leaves
	// its evidence on stdout for the harness to archive.
	if out.Drops != nil && (out.Drops.Looped > 0 || out.Drops.TTLExpired > 0) {
		return fmt.Errorf("forwarding drops: %g looped, %g ttl-expired packets", out.Drops.Looped, out.Drops.TTLExpired)
	}
	if out.Traffic != nil && dp.minDeliv >= 0 && out.Traffic.DelivPct < dp.minDeliv {
		return fmt.Errorf("delivery %.2f%% (%d/%d) below the -min-deliv %.2f%% gate",
			out.Traffic.DelivPct, out.Traffic.Delivered, out.Traffic.Offered, dp.minDeliv)
	}
	// Linger with the mesh alive when observability is on: readiness
	// streaks fill a few polls after convergence, and an external watcher
	// needs live endpoints to scrape. Counted in polls, like every other
	// deadline here.
	if httpAddr != "" {
		for poll := 0; poll < int(linger/pollEvery.Seconds()); poll++ {
			time.Sleep(pollEvery)
		}
	}
	// Tear the mesh down before exporting: ARQ retransmit timers keep
	// emitting telemetry for as long as the mesh is up, and the exporter
	// reads the tracer unsynchronized (Close is idempotent, so the defer
	// above is harmless).
	m.Close()
	return exportCapture(capt, telemetryDir, "mdrnode_mesh")
}

// runMeshTraffic replays the topology's traffic matrix through the live
// data plane for the configured run length and reports delivery.
func runMeshTraffic(m *node.Mesh, net *topo.Network, dp dataOpts) (*node.TrafficReport, error) {
	flows := append([]topo.Flow(nil), net.Flows...)
	if len(flows) == 0 {
		return nil, fmt.Errorf("-traffic: topology defines no flows")
	}
	if dp.rate > 0 {
		for i := range flows {
			flows[i].Rate = dp.rate
		}
	}
	gen, err := node.NewTrafficGen(m, node.TrafficConfig{
		Model:      node.TrafficModel(dp.model),
		Flows:      flows,
		Subflows:   dp.subflows,
		PacketBits: dp.bits,
		Seed:       1,
	})
	if err != nil {
		return nil, err
	}
	gen.Start()
	for poll := 0; poll < int(dp.secs/pollEvery.Seconds()); poll++ {
		time.Sleep(pollEvery)
	}
	gen.Stop()
	// Drain in-flight packets (0.1 s) before reading the sinks.
	for poll := 0; poll < 5; poll++ {
		time.Sleep(pollEvery)
	}
	rep := gen.Report()
	return &rep, nil
}

// announceObs writes the manifest file and prints one "OBS <url>" line
// per node (harness-scrapable, like the LISTEN line). The file is
// written first so a harness that saw an OBS line can rely on the
// manifest already being on disk. With a live data plane, each manifest
// line is "<url> <data-addr>"; consumers split on whitespace and take
// the first column for the observability URL.
func announceObs(urls, dataAddrs []string, manifest string) error {
	lines := append([]string(nil), urls...)
	if len(dataAddrs) == len(lines) {
		for i, a := range dataAddrs {
			lines[i] += " " + a
		}
	}
	if manifest != "" {
		if len(lines) == 0 {
			return fmt.Errorf("-obs-manifest needs -http")
		}
		if err := os.WriteFile(manifest, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			return err
		}
	}
	for _, u := range urls {
		fmt.Printf("OBS %s\n", u)
	}
	return nil
}

// runNode hosts a single live router peering over TCP with other
// processes.
func runNode(id, nodes int, listen string, acceptCost float64, await int, timeout, linger, hb, dead float64, telemetryDir, httpAddr, obsManifest string, peers peerList) error {
	if nodes <= 1 {
		return fmt.Errorf("-nodes must cover the whole ID space (got %d)", nodes)
	}
	if await < 0 {
		await = len(peers)
	}
	if await <= 0 {
		return fmt.Errorf("node mode needs -peer flags or a positive -await-peers")
	}
	capt, trace, err := newCapture(telemetryDir, nodes)
	if err != nil {
		return err
	}
	cfg := node.Config{
		ID: graph.NodeID(id), Nodes: nodes, Clock: node.NewWallClock(),
		HeartbeatEvery: hb, DeadAfter: dead, Trace: trace, ExpectPeers: await,
	}
	if httpAddr != "" {
		cfg.Metrics = telemetry.NewRegistry(0)
		cfg.ObsAddr = httpAddr
	}
	n, err := node.New(cfg)
	if err != nil {
		return err
	}
	defer n.Close()
	if httpAddr != "" {
		if err := announceObs([]string{n.ObsURL()}, nil, obsManifest); err != nil {
			return err
		}
	}

	if listen != "" {
		l, err := transport.ListenTCP(listen)
		if err != nil {
			return err
		}
		defer l.Close()
		// Scrapable by a harness that started us with port :0.
		fmt.Printf("LISTEN %s\n", l.Addr())
		go func() {
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				n.AddPeer(c, func(graph.NodeID) (float64, bool) { return acceptCost, true })
			}
		}()
	}
	for _, p := range peers {
		c, err := transport.DialTCP(p.addr)
		if err != nil {
			return fmt.Errorf("dial peer %d: %w", p.id, err)
		}
		want, wantCost := p.id, p.cost
		n.AddPeer(c, func(got graph.NodeID) (float64, bool) { return wantCost, got == want })
	}

	// Converge under the settle rule, each poll one Sample under the node's
	// lock: enough peers, PASSIVE, one state digest, and drained windows
	// at the settling poll.
	var digest string
	poll := func() (bool, bool, string) {
		s := n.Sample()
		digest = s.Digest
		return s.Steady(), s.Drained(), s.Digest
	}
	if !obs.Await(poll, int(timeout/pollEvery.Seconds()), func() { time.Sleep(pollEvery) }) {
		return fmt.Errorf("node %d did not converge within %gs", id, timeout)
	}

	out := output{Mode: "node", Hash: digest, Routers: []node.State{n.State()}}
	if err := printJSON(out); err != nil {
		return err
	}
	if err := exportCapture(capt, telemetryDir, fmt.Sprintf("mdrnode_%d", id)); err != nil {
		return err
	}
	// Linger before the deferred Close sends BYE: peers poll for stability
	// on their own schedule, and tearing the session down the instant we
	// converge would yank the link out from under a peer a few polls
	// behind us. A peer that closes first drops our session; once they are
	// all gone there is nobody left to wait for.
	for poll := 0; poll < int(linger/pollEvery.Seconds()); poll++ {
		if n.PeerCount() == 0 {
			break
		}
		time.Sleep(pollEvery)
	}
	return nil
}

func printJSON(out output) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func exportCapture(capt *telemetry.Capture, dir, prefix string) error {
	if capt == nil {
		return nil
	}
	return capt.Export(dir, prefix)
}
