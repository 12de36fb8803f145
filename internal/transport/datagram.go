package transport

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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
	// WriteTo sends one datagram to addr (best effort). It does not retain
	// b after it returns — the kernel copies a UDP datagram, a MemNet port
	// copies into a slot of its inbox, and WithFaults copies a datagram it
	// holds back — so a sender may reuse b at once.
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
// and reordering. Any number of goroutines may write to an endpoint; one
// at a time reads it.
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
//
// Its datagrams live in slots: byte slices that are copied into and never
// handed out, so each is reused once read. Writers append to inbox under
// mu. The reader takes the whole inbox as its batch in one critical
// section, handing the inbox the previous batch's slice in exchange, and
// then serves the batch without the lock; the spent slots sit past the new
// inbox's length, where the next writers copy into them.
type memPort struct {
	net  *MemNet
	addr string
	peer *memPort // WritePacket's target; nil outside a PacketPipe

	// memo is the port WriteTo resolved last. Addresses are never reused
	// and a closed port drops, so a stale memo is harmless.
	memo atomic.Pointer[memRoute]

	mu    sync.Mutex
	cond  *sync.Cond
	inbox [][]byte
	// closed is set under mu; the reader checks it without mu between
	// batches' datagrams.
	closed atomic.Bool
	// unread counts datagrams queued but not yet read, the batch's
	// included: the ring bound. Writers add under mu, the reader subtracts
	// one as it serves each.
	unread atomic.Int32

	// The reader's own: the batch being served and its next index.
	batch [][]byte
	next  int
}

// memRoute is one resolved MemNet address.
type memRoute struct {
	addr string
	port *memPort
}

// memPortRing bounds each endpoint's unread datagrams; beyond it they drop.
const memPortRing = 4096

// LocalAddr returns the endpoint's synthetic address.
func (m *memPort) LocalAddr() string { return m.addr }

// WriteTo delivers one datagram into the target's inbox.
func (m *memPort) WriteTo(b []byte, addr string) error {
	r := m.memo.Load()
	if r == nil || r.addr != addr {
		p := m.net.lookup(addr)
		if p == nil {
			return nil // unbound: dropped
		}
		r = &memRoute{addr: addr, port: p}
		m.memo.Store(r)
	}
	r.port.deliver(b)
	return nil
}

// WritePacket delivers one datagram into the peer's inbox.
func (m *memPort) WritePacket(b []byte) error {
	m.peer.deliver(b)
	return nil
}

// deliver queues a copy of b in a recycled slot; datagram semantics mean a
// delivery to an unbound (nil), closed, or full endpoint silently drops.
func (m *memPort) deliver(b []byte) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed.Load() || m.unread.Load() >= memPortRing {
		return
	}
	m.inbox = slices.Grow(m.inbox, 1)[:len(m.inbox)+1] // keeps the spent slots past len
	slot := &m.inbox[len(m.inbox)-1]
	*slot = append((*slot)[:0], b...)
	m.unread.Add(1)
	m.cond.Signal()
}

// ReadFrom blocks for the next datagram. It serves one reader at a time:
// the batch is the reader's, unguarded.
func (m *memPort) ReadFrom(b []byte) (int, error) {
	if m.next == len(m.batch) {
		m.mu.Lock()
		for len(m.inbox) == 0 && !m.closed.Load() {
			m.cond.Wait()
		}
		m.inbox, m.batch, m.next = m.batch[:0], m.inbox, 0
		m.mu.Unlock()
	}
	if m.closed.Load() {
		return 0, ErrClosed
	}
	n := copy(b, m.batch[m.next])
	m.next++
	m.unread.Add(-1)
	return n, nil
}

// ReadPacket is ReadFrom: a lane's only writer is its peer.
func (m *memPort) ReadPacket(b []byte) (int, error) { return m.ReadFrom(b) }

// Close closes this endpoint: pending and future reads fail, a batch
// already taken included, and writes to it drop.
func (m *memPort) Close() error {
	m.mu.Lock()
	m.closed.Store(true)
	m.cond.Broadcast()
	m.mu.Unlock()
	m.net.drop(m.addr)
	return nil
}
