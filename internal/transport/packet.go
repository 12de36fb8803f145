package transport

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
)

// MaxDatagram bounds one datagram on the packet layer. Loopback UDP
// carries up to ~64 KiB; a CAIRN-scale full-table LSU is under 2 KiB, so
// the bound is generous while still letting the ARQ use fixed read
// buffers.
const MaxDatagram = 64 << 10

// Packet is an unreliable datagram channel: writes may be lost,
// duplicated, or reordered; reads return whole datagrams. It is the layer
// beneath the ARQ — UDP in production, in-memory pairs in tests, and the
// fault injector wraps either.
type Packet interface {
	// WritePacket sends one datagram (best effort).
	WritePacket(b []byte) error
	// ReadPacket blocks for the next datagram, copying it into b and
	// returning its length. It returns an error once the channel closes.
	ReadPacket(b []byte) (int, error)
	// Close releases the channel and unblocks pending reads.
	Close() error
}

// UDPPacket is a Packet over one bound UDP socket. Bind first (which
// chooses the local port), exchange addresses out of band, then Connect to
// aim writes at the remote peer.
type UDPPacket struct {
	conn *net.UDPConn

	mu     sync.Mutex
	remote netip.AddrPort // zero until Connect
}

// BindUDP binds a UDP socket on local (e.g. "127.0.0.1:0").
func BindUDP(local string) (*UDPPacket, error) {
	addr, err := net.ResolveUDPAddr("udp", local)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, err
	}
	// Best effort: a selective-repeat window of coalesced datagrams can
	// burst well past the platform default socket buffers.
	_ = conn.SetReadBuffer(1 << 20)
	_ = conn.SetWriteBuffer(1 << 20)
	return &UDPPacket{conn: conn}, nil
}

// LocalAddr returns the bound socket address.
func (u *UDPPacket) LocalAddr() string { return u.conn.LocalAddr().String() }

// Connect aims subsequent writes at remote and, from then on, makes
// reads drop datagrams from any other source.
func (u *UDPPacket) Connect(remote string) error {
	addr, err := net.ResolveUDPAddr("udp", remote)
	if err != nil {
		return err
	}
	u.mu.Lock()
	u.remote = unmapped(addr.AddrPort())
	u.mu.Unlock()
	return nil
}

// unmapped strips the IPv4-in-IPv6 form so that one peer compares equal
// however the resolver or a dual-stack socket spelled its address.
func unmapped(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

func (u *UDPPacket) peer() netip.AddrPort {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.remote
}

// WritePacket sends one datagram to the connected remote.
func (u *UDPPacket) WritePacket(b []byte) error {
	remote := u.peer()
	if !remote.IsValid() {
		return fmt.Errorf("transport: UDP packet not connected")
	}
	_, err := u.conn.WriteToUDPAddrPort(b, remote)
	return err
}

// ReadPacket blocks for the next datagram from the connected remote (from
// anyone until Connect). The source check is what rejects strays: a frame
// another ARQ session wrote — a closed mesh's late BYE or retransmit
// reaching a re-bound port — carries a valid CRC and a plausible sequence
// number, so nothing above this layer can tell it from the peer's.
func (u *UDPPacket) ReadPacket(b []byte) (int, error) {
	for {
		n, src, err := u.conn.ReadFromUDPAddrPort(b)
		if err != nil {
			return n, err
		}
		if remote := u.peer(); !remote.IsValid() || unmapped(src) == remote {
			return n, nil
		}
	}
}

// Close closes the socket, unblocking reads.
func (u *UDPPacket) Close() error { return u.conn.Close() }

// memPacket is one side of an in-memory datagram pair. Delivery is FIFO
// and loss-free up to the ring capacity (overflow drops, like a NIC ring);
// wrap with WithFaults for loss/dup/reorder.
type memPacket struct {
	peer *memPacket

	mu     sync.Mutex
	cond   *sync.Cond
	inbox  [][]byte
	closed bool
}

// memPacketRing bounds each side's inbox; beyond it datagrams drop.
const memPacketRing = 4096

// PacketPipe returns a connected pair of in-memory Packets.
func PacketPipe() (Packet, Packet) {
	a := &memPacket{}
	b := &memPacket{}
	a.cond = sync.NewCond(&a.mu)
	b.cond = sync.NewCond(&b.mu)
	a.peer, b.peer = b, a
	return a, b
}

// WritePacket delivers one datagram into the peer's inbox; datagram
// semantics mean writes to a closed or full peer silently drop.
func (m *memPacket) WritePacket(b []byte) error {
	p := m.peer
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.inbox) >= memPacketRing {
		return nil
	}
	p.inbox = append(p.inbox, append([]byte(nil), b...))
	p.cond.Signal()
	return nil
}

// ReadPacket blocks for the next datagram.
func (m *memPacket) ReadPacket(b []byte) (int, error) {
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

// Close closes this side; pending and future reads fail, writes from the
// peer drop.
func (m *memPacket) Close() error {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	return nil
}
