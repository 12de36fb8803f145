package transport

import (
	"fmt"
	"sync"
)

// Datagram is the addressed, unreliable, fire-and-forget channel beneath
// the data plane — the deliberate opposite of the ARQ'd control channel.
// A node binds one Datagram (its data port), learns its neighbors' data
// addresses out of band (the mesh wires them; mdrnode publishes them in
// the observability manifest), and forwards each data packet to the next
// hop's address with no acknowledgment, retransmission, or ordering: the
// paper's model charges the routing layer for delay, not for reliability,
// and a lost data packet is simply lost.
//
// Unlike Packet (one point-to-point lane per link), a Datagram is one
// many-to-one socket per node: every neighbor writes to it, which is how
// a real router's interface behaves and what keeps the data plane at one
// file descriptor per node instead of one per link.
type Datagram interface {
	// WriteTo sends one datagram to addr (best effort).
	WriteTo(b []byte, addr string) error
	// ReadFrom blocks for the next datagram, copying it into b and
	// returning its length. It returns an error once the channel closes.
	ReadFrom(b []byte) (int, error)
	// LocalAddr returns this channel's address — what peers pass to
	// WriteTo to reach it.
	LocalAddr() string
	// Close releases the channel and unblocks pending reads.
	Close() error
}

// Medium is one endpoint of an unreliable medium, seen both ways: as a
// Packet lane toward a fixed peer and as an addressed Datagram port. Each
// medium has one endpoint type serving both faces (UDPSocket, a MemNet
// endpoint), and WithFaults wraps either.
type Medium interface {
	Packet
	Datagram
}

// MemNet is an in-memory datagram switchboard for deterministic tests: a
// set of named endpoints that write whole datagrams into each other's
// bounded inboxes. Loss-free up to the ring capacity (overflow drops,
// like a NIC ring); wrap endpoints with WithFaults for loss, duplication
// and reordering.
type MemNet struct {
	mu    sync.Mutex
	ports map[string]*memPort
	next  int
}

// NewMemNet returns an empty switchboard.
func NewMemNet() *MemNet { return &MemNet{ports: make(map[string]*memPort)} }

// Bind creates a new endpoint with a unique synthetic address.
func (mn *MemNet) Bind() Medium {
	mn.mu.Lock()
	defer mn.mu.Unlock()
	d := &memPort{net: mn, addr: fmt.Sprintf("mem:%d", mn.next)}
	d.cond = sync.NewCond(&d.mu)
	mn.next++
	mn.ports[d.addr] = d
	return d
}

// PacketPipe returns a connected pair of in-memory Packet lanes: the two
// endpoints of a private MemNet, each aimed at the other. Delivery is FIFO
// and loss-free up to the ring capacity.
func PacketPipe() (Medium, Medium) {
	mn := NewMemNet()
	a, b := mn.Bind().(*memPort), mn.Bind().(*memPort)
	a.peer, b.peer = b, a
	return a, b
}

// lookup resolves an address to its endpoint (nil when unbound/closed).
func (mn *MemNet) lookup(addr string) *memPort {
	mn.mu.Lock()
	defer mn.mu.Unlock()
	return mn.ports[addr]
}

// drop unregisters a closed endpoint.
func (mn *MemNet) drop(addr string) {
	mn.mu.Lock()
	defer mn.mu.Unlock()
	delete(mn.ports, addr)
}

// memPort is one MemNet endpoint.
type memPort struct {
	net  *MemNet
	addr string
	peer *memPort // WritePacket's target; nil outside a PacketPipe

	mu     sync.Mutex
	cond   *sync.Cond
	inbox  [][]byte
	closed bool
}

// memPortRing bounds each endpoint's inbox; beyond it datagrams drop.
const memPortRing = 4096

// LocalAddr returns the endpoint's synthetic address.
func (m *memPort) LocalAddr() string { return m.addr }

// WriteTo delivers one datagram into the target's inbox.
func (m *memPort) WriteTo(b []byte, addr string) error {
	m.net.lookup(addr).deliver(b)
	return nil
}

// WritePacket delivers one datagram into the peer's inbox.
func (m *memPort) WritePacket(b []byte) error {
	m.peer.deliver(b)
	return nil
}

// deliver queues a copy of b; datagram semantics mean a delivery to an
// unbound (nil), closed, or full endpoint silently drops.
func (m *memPort) deliver(b []byte) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || len(m.inbox) >= memPortRing {
		return
	}
	m.inbox = append(m.inbox, append([]byte(nil), b...))
	m.cond.Signal()
}

// ReadFrom blocks for the next datagram.
func (m *memPort) ReadFrom(b []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.inbox) == 0 && !m.closed {
		m.cond.Wait()
	}
	if m.closed {
		return 0, ErrClosed
	}
	d := m.inbox[0]
	m.inbox[0] = nil
	m.inbox = m.inbox[1:]
	return copy(b, d), nil
}

// ReadPacket is ReadFrom: a lane's only writer is its peer.
func (m *memPort) ReadPacket(b []byte) (int, error) { return m.ReadFrom(b) }

// Close closes this endpoint: pending and future reads fail, writes to it
// drop.
func (m *memPort) Close() error {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.net.drop(m.addr)
	return nil
}
