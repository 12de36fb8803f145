package transport

import (
	"bufio"
	"net"
	"sync"

	"minroute/internal/wire"
)

// tcpConn adapts a net.Conn (TCP or any reliable byte stream) to the frame
// contract. TCP already provides reliable in-order exactly-once bytes, so
// the adapter only adds framing: wire.WriteFrame / wire.ReadFrame with a
// mutex per direction so concurrent Sends never interleave frames.
type tcpConn struct {
	c  net.Conn
	br *bufio.Reader

	wmu sync.Mutex
	rmu sync.Mutex

	closeOnce sync.Once
	closeErr  error
}

// NewStreamConn wraps an established reliable byte stream as a Conn.
func NewStreamConn(c net.Conn) Conn {
	return &tcpConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
}

// DialTCP connects to a listening peer.
func DialTCP(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewStreamConn(c), nil
}

// Send writes one frame to the stream.
func (t *tcpConn) Send(f *wire.Frame) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return wire.WriteFrame(t.c, f)
}

// Recv reads the next frame. Any framing error (bad magic, CRC mismatch)
// is fatal to the stream — byte boundaries are lost — so callers should
// Close on error.
func (t *tcpConn) Recv() (*wire.Frame, error) {
	t.rmu.Lock()
	defer t.rmu.Unlock()
	return wire.ReadFrame(t.br)
}

// Close shuts the stream down; blocked Recvs return with an error.
func (t *tcpConn) Close() error {
	t.closeOnce.Do(func() { t.closeErr = t.c.Close() })
	return t.closeErr
}

// TCPListener accepts framed peers on a TCP address.
type TCPListener struct {
	l net.Listener
}

// ListenTCP starts listening on addr (use "127.0.0.1:0" for an ephemeral
// port; Addr reports the bound address).
func ListenTCP(addr string) (*TCPListener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &TCPListener{l: l}, nil
}

// Addr returns the bound listen address.
func (tl *TCPListener) Addr() string { return tl.l.Addr().String() }

// Accept blocks for the next inbound peer.
func (tl *TCPListener) Accept() (Conn, error) {
	c, err := tl.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewStreamConn(c), nil
}

// Close stops accepting; blocked Accepts return with an error.
func (tl *TCPListener) Close() error { return tl.l.Close() }
