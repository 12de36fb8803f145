package transport

import (
	"fmt"
	"net"
	"sync"

	"minroute/internal/rng"
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

// UDPDatagram is a Datagram over one bound UDP socket.
type UDPDatagram struct {
	conn *net.UDPConn

	mu    sync.Mutex
	addrs map[string]*net.UDPAddr
}

// BindUDPDatagram binds a UDP data port on local (e.g. "127.0.0.1:0").
func BindUDPDatagram(local string) (*UDPDatagram, error) {
	addr, err := net.ResolveUDPAddr("udp", local)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, err
	}
	// Best effort (the kernel clamps to net.core.rmem_max without an error).
	// Nothing retransmits or counts a datagram the receive queue drops, and
	// an open-loop sender that was stalled sends its whole backlog back to
	// back: 4 MiB holds about 10 k small data frames, one stall of 0.5 s at
	// the benchmark's 20 k packets per second.
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(1 << 20)
	return &UDPDatagram{conn: conn, addrs: make(map[string]*net.UDPAddr)}, nil
}

// LocalAddr returns the bound socket address.
func (u *UDPDatagram) LocalAddr() string { return u.conn.LocalAddr().String() }

// WriteTo sends one datagram to addr, memoizing the resolved address so
// the per-packet path never re-parses: a forwarder sends to a handful of
// neighbor ports, millions of times.
func (u *UDPDatagram) WriteTo(b []byte, addr string) error {
	u.mu.Lock()
	ua := u.addrs[addr]
	if ua == nil {
		var err error
		if ua, err = net.ResolveUDPAddr("udp", addr); err != nil {
			u.mu.Unlock()
			return err
		}
		u.addrs[addr] = ua
	}
	u.mu.Unlock()
	_, err := u.conn.WriteToUDP(b, ua)
	return err
}

// ReadFrom blocks for the next datagram from anyone; the wire CRC rejects
// strays and corruption.
func (u *UDPDatagram) ReadFrom(b []byte) (int, error) {
	n, _, err := u.conn.ReadFromUDP(b)
	return n, err
}

// Close closes the socket, unblocking reads.
func (u *UDPDatagram) Close() error { return u.conn.Close() }

// MemNet is an in-memory datagram switchboard for deterministic tests: a
// set of named endpoints that write whole datagrams into each other's
// bounded inboxes. Loss-free up to the ring capacity (overflow drops,
// like a NIC ring); wrap endpoints with WithDatagramFaults for loss.
type MemNet struct {
	mu    sync.Mutex
	ports map[string]*memDatagram
	next  int
}

// NewMemNet returns an empty switchboard.
func NewMemNet() *MemNet { return &MemNet{ports: make(map[string]*memDatagram)} }

// Bind creates a new endpoint with a unique synthetic address.
func (mn *MemNet) Bind() Datagram {
	mn.mu.Lock()
	defer mn.mu.Unlock()
	d := &memDatagram{net: mn, addr: fmt.Sprintf("mem:%d", mn.next)}
	d.cond = sync.NewCond(&d.mu)
	mn.next++
	mn.ports[d.addr] = d
	return d
}

// lookup resolves an address to its endpoint (nil when unbound/closed).
func (mn *MemNet) lookup(addr string) *memDatagram {
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

// memDatagram is one MemNet endpoint.
type memDatagram struct {
	net  *MemNet
	addr string

	mu     sync.Mutex
	cond   *sync.Cond
	inbox  [][]byte
	closed bool
}

// memDatagramRing bounds each endpoint's inbox; beyond it datagrams drop.
const memDatagramRing = 4096

// LocalAddr returns the endpoint's synthetic address.
func (m *memDatagram) LocalAddr() string { return m.addr }

// WriteTo delivers one datagram into the target's inbox; datagram
// semantics mean writes to an unbound, closed, or full target silently
// drop.
func (m *memDatagram) WriteTo(b []byte, addr string) error {
	p := m.net.lookup(addr)
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.inbox) >= memDatagramRing {
		return nil
	}
	p.inbox = append(p.inbox, append([]byte(nil), b...))
	p.cond.Signal()
	return nil
}

// ReadFrom blocks for the next datagram.
func (m *memDatagram) ReadFrom(b []byte) (int, error) {
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

// Close closes this endpoint: pending and future reads fail, writes to it
// drop.
func (m *memDatagram) Close() error {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.net.drop(m.addr)
	return nil
}

// faultDatagram wraps a Datagram with seeded write-side faults — the data
// plane's counterpart of faultPacket (loss and duplication only: the data
// plane is unordered by contract, so reordering adds nothing a test could
// observe).
type faultDatagram struct {
	inner Datagram
	cfg   Fault

	mu sync.Mutex
	r  *rng.Source
}

// WithDatagramFaults wraps d with the seeded fault injector; a zero Fault
// returns d unchanged.
func WithDatagramFaults(d Datagram, f Fault) Datagram {
	if !f.Active() {
		return d
	}
	return &faultDatagram{inner: d, cfg: f, r: rng.New(f.Seed)}
}

// WriteTo applies loss, then duplication.
func (fd *faultDatagram) WriteTo(b []byte, addr string) error {
	fd.mu.Lock()
	drop := fd.cfg.LossProb > 0 && fd.r.Float64() < fd.cfg.LossProb
	dup := !drop && fd.cfg.DupProb > 0 && fd.r.Float64() < fd.cfg.DupProb
	fd.mu.Unlock()
	if drop {
		return nil // lost on the wire
	}
	if err := fd.inner.WriteTo(b, addr); err != nil {
		return err
	}
	if dup {
		return fd.inner.WriteTo(b, addr)
	}
	return nil
}

// ReadFrom passes through.
func (fd *faultDatagram) ReadFrom(b []byte) (int, error) { return fd.inner.ReadFrom(b) }

// LocalAddr passes through.
func (fd *faultDatagram) LocalAddr() string { return fd.inner.LocalAddr() }

// Close passes through.
func (fd *faultDatagram) Close() error { return fd.inner.Close() }
