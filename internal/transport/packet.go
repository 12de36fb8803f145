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
	// WritePacket sends one datagram (best effort). Like Datagram.WriteTo
	// it does not retain b after it returns, so the ARQ can resend from
	// its window slots and a sender may reuse b at once.
	WritePacket(b []byte) error
	// ReadPacket blocks for the next datagram, copying it into b and
	// returning its length. It returns an error once the channel closes.
	ReadPacket(b []byte) (int, error)
	// Close releases the channel and unblocks pending reads.
	Close() error
}

// UDPSocket is one bound UDP socket serving both faces of Medium: a
// Packet lane toward the peer named by Connect (the ARQ's link), and a
// Datagram port any address can be written to (the data plane's). Bind
// first (which chooses the local port), exchange addresses out of band,
// then Connect for the lane or WriteTo for the port.
type UDPSocket struct {
	conn *net.UDPConn

	mu     sync.Mutex
	remote netip.AddrPort // zero until Connect
	addrs  map[string]*net.UDPAddr
}

// BindUDP binds a UDP socket on local (e.g. "127.0.0.1:0").
func BindUDP(local string) (*UDPSocket, error) {
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
	// the benchmark's 20 k packets per second. On the lane a
	// selective-repeat window of coalesced datagrams bursts the same way.
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(1 << 20)
	return &UDPSocket{conn: conn, addrs: make(map[string]*net.UDPAddr)}, nil
}

// LocalAddr returns the bound socket address.
func (u *UDPSocket) LocalAddr() string { return u.conn.LocalAddr().String() }

// Connect aims subsequent WritePackets at remote and, from then on, makes
// ReadPacket drop datagrams from any other source.
func (u *UDPSocket) Connect(remote string) error {
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

func (u *UDPSocket) peer() netip.AddrPort {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.remote
}

// WritePacket sends one datagram to the connected remote.
func (u *UDPSocket) WritePacket(b []byte) error {
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
func (u *UDPSocket) ReadPacket(b []byte) (int, error) {
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

// WriteTo sends one datagram to addr, memoizing the resolved address so
// the per-packet path never re-parses: a forwarder sends to a handful of
// neighbor ports, millions of times.
func (u *UDPSocket) WriteTo(b []byte, addr string) error {
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
func (u *UDPSocket) ReadFrom(b []byte) (int, error) {
	n, _, err := u.conn.ReadFromUDP(b)
	return n, err
}

// Close closes the socket, unblocking reads.
func (u *UDPSocket) Close() error { return u.conn.Close() }
