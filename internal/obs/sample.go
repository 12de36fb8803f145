package obs

// Sample is one consistent snapshot of a node's live state, produced
// under the node's own lock. The obs package defines the types (rather
// than importing the node package) so the dependency points from the
// runtime to the observability plane, never back.
type Sample struct {
	// ID is the node's router ID.
	ID int
	// Passive reports the router's PASSIVE phase.
	Passive bool
	// Outstanding sums unacknowledged transport windows across peers.
	Outstanding int
	// MinPeers is how many peer sessions readiness requires (the node's
	// expected degree).
	MinPeers int
	// Peers are the live peer sessions in ascending ID order.
	Peers []Peer
	// Routes are the reachable destinations in ascending ID order.
	Routes []Route
	// Digest is the router's state digest (mpda.Digest of its
	// AppendState), the one readiness watches for stability.
	Digest string
	// Data is the data-plane snapshot (nil when the node runs without a
	// forwarder). It backs the /flows endpoint and the data.* metrics.
	Data *DataSample
}

// Eligible reports whether the sample satisfies the instantaneous part
// of the settle rule — PASSIVE, fully peered, windows drained. Settle
// additionally demands a stable digest across polls.
func (s Sample) Eligible() bool {
	return s.Passive && s.Outstanding == 0 && len(s.Peers) >= s.MinPeers
}

// The settle rule's constants: it polls every PollEvery seconds and
// declares a state settled after StablePolls consecutive polls agree.
const (
	PollEvery   = 0.02
	StablePolls = 10
)

// Settle is the one rule for "converged", shared by /readyz, the live
// mesh's AwaitConverged and mdrnode: a state has settled once StablePolls
// consecutive polls found it eligible with one digest. An ineligible poll
// resets the streak; an eligible one with a new digest starts a new
// streak of one.
type Settle struct {
	streak int
	digest string
}

// Observe takes one poll and reports whether the state has now settled.
func (s *Settle) Observe(eligible bool, digest string) bool {
	switch {
	case !eligible:
		s.streak, s.digest = 0, ""
	case digest == s.digest:
		s.streak++
	default:
		s.streak, s.digest = 1, digest
	}
	return s.Settled()
}

// Settled reports whether the last StablePolls polls agreed.
func (s Settle) Settled() bool { return s.streak >= StablePolls }

// Await polls until the state settles, calling sleep between polls, and
// reports false once maxPolls polls have not settled it.
func Await(poll func() (eligible bool, digest string), maxPolls int, sleep func()) bool {
	var s Settle
	for i := 0; i < maxPolls; i++ {
		if s.Observe(poll()) {
			return true
		}
		sleep()
	}
	return false
}

// Peer is one live peer session, including its ARQ instruments when the
// link runs over the reliable-UDP transport.
type Peer struct {
	ID   int     `json:"id"`
	Cost float64 `json:"cost"`
	// Outstanding is the peer link's unacknowledged send window.
	Outstanding int `json:"outstanding"`
	// RTO is the link's current retransmission timeout in seconds (0 on
	// transports without one).
	RTO float64 `json:"rto,omitempty"`
	// Retransmits and Window mirror the link's ARQ instruments
	// (arq.retransmits.<a>-<b> and arq.window.<a>-<b>); both are zero on
	// fabrics without ARQ.
	Retransmits float64 `json:"retransmits"`
	Window      float64 `json:"window"`
	// Queue is the writer-queue depth toward this peer: frames the router
	// has emitted that the writer goroutine has not yet handed to the
	// transport.
	Queue int `json:"queue"`
}

// Route is one destination row of the live phi table: the distance, the
// feasible distance FD_j (the loop-freedom invariant's anchor), the
// successor set, and the minimum-distance next hop. FD is -1 while not
// yet established (+Inf has no JSON encoding).
type Route struct {
	Dst  int     `json:"dst"`
	Dist float64 `json:"dist"`
	FD   float64 `json:"fd"`
	// Successors is S_j ascending; Best is the successor with the least
	// reported distance (the next hop a pure shortest-path forwarder
	// would take). -1 means none.
	Successors []int `json:"successors"`
	Best       int   `json:"best"`
}

// Health is the /healthz document: liveness only — the process is up and
// the node answered its state snapshot. Convergence lives in /readyz.
type Health struct {
	Status string  `json:"status"`
	ID     int     `json:"id"`
	Uptime float64 `json:"uptime_seconds"`
	Peers  int     `json:"peers"`
}

// Readiness is the /readyz document: Ready is the settle rule (Settle)
// for this node — eligible (PASSIVE, fully peered, drained) with a state
// digest stable for StablePolls consecutive polls — and Hash that digest.
type Readiness struct {
	Ready       bool   `json:"ready"`
	Passive     bool   `json:"passive"`
	Peers       int    `json:"peers"`
	MinPeers    int    `json:"min_peers"`
	Outstanding int    `json:"outstanding"`
	Streak      int    `json:"streak"`
	StablePolls int    `json:"stable_polls"`
	Hash        string `json:"hash"`
}

// RoutesDoc is the /routes document.
type RoutesDoc struct {
	ID     int     `json:"id"`
	Routes []Route `json:"routes"`
}

// PeersDoc is the /peers document.
type PeersDoc struct {
	ID       int    `json:"id"`
	MinPeers int    `json:"min_peers"`
	Peers    []Peer `json:"peers"`
}

// DataSample is one node's data-plane snapshot: forwarding counters, the
// per-(destination, next-hop) split table, and the flows sinking here.
// The obs package defines the shape (like Sample) so the dependency stays
// runtime → observability.
type DataSample struct {
	// Addr is the node's data-port address.
	Addr string `json:"addr"`
	// Counter totals, mirroring the data.* instruments.
	Origin      float64 `json:"origin"`
	Forwarded   float64 `json:"forwarded"`
	Delivered   float64 `json:"delivered"`
	DropNoRoute float64 `json:"drop_noroute"`
	DropNoAddr  float64 `json:"drop_noaddr"`
	TTLExpired  float64 `json:"ttl_expired"`
	Looped      float64 `json:"looped"`
	RecvErrors  float64 `json:"recv_errors"`
	// Splits is the live split table: observed vs desired (phi) share per
	// next hop, grouped by destination ascending, hops ascending.
	Splits []SplitEntry `json:"splits,omitempty"`
	// Flows are the flows terminating at this node, ascending by ID.
	Flows []FlowSample `json:"flows,omitempty"`
}

// SplitEntry is one (destination, next hop) row of the split table.
type SplitEntry struct {
	Dst     int   `json:"dst"`
	Hop     int   `json:"hop"`
	Packets int64 `json:"packets"`
	// Got is the observed fraction of this node's packets toward Dst that
	// left via Hop; Want is the phi weight the table aims for.
	Got  float64 `json:"got"`
	Want float64 `json:"want"`
}

// FlowSample is one flow observed at its sink.
type FlowSample struct {
	FlowID  uint64 `json:"flow_id"`
	Src     int    `json:"src"`
	Packets int64  `json:"packets"`
	Bits    int64  `json:"bits"`
	// MeanDelayMs and MaxDelayMs are end-to-end delays in milliseconds:
	// the emulated per-hop link time accumulated in the packet plus real
	// stack transit.
	MeanDelayMs float64 `json:"mean_delay_ms"`
	MaxDelayMs  float64 `json:"max_delay_ms"`
}

// FlowsDoc is the /flows document.
type FlowsDoc struct {
	ID   int         `json:"id"`
	Data *DataSample `json:"data"`
}
