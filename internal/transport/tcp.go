package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"minroute/internal/wire"
)

// StreamConn adapts a net.Conn (TCP or any reliable byte stream) to both
// faces of a peer link. As a Conn it only adds framing — TCP already
// provides reliable in-order exactly-once bytes — with wire.WriteFrame /
// wire.ReadFrame and a mutex per direction so concurrent Sends never
// interleave frames. As a Packet lane it carries whole frames: a write is
// any run of encoded frames (an ARQ datagram), and each read returns the
// next one self-delimiting frame. Use one face per stream.
type StreamConn struct {
	c  net.Conn
	br *bufio.Reader

	wmu sync.Mutex
	rmu sync.Mutex

	closeOnce sync.Once
	closeErr  error
}

// NewStreamConn wraps an established reliable byte stream.
func NewStreamConn(c net.Conn) *StreamConn {
	return &StreamConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
}

// DialTCP connects to a listening peer.
func DialTCP(addr string) (*StreamConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewStreamConn(c), nil
}

// Send writes one frame to the stream.
func (t *StreamConn) Send(f *wire.Frame) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return wire.WriteFrame(t.c, f)
}

// Recv reads the next frame. Any framing error (bad magic, CRC mismatch)
// is fatal to the stream — byte boundaries are lost — so callers should
// Close on error.
func (t *StreamConn) Recv() (*wire.Frame, error) {
	t.rmu.Lock()
	defer t.rmu.Unlock()
	return wire.ReadFrame(t.br)
}

// WritePacket writes b, a run of whole encoded frames, in one Write.
func (t *StreamConn) WritePacket(b []byte) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	_, err := t.c.Write(b)
	return err
}

// ReadPacket reads the next frame into b, re-encoded; the lane's reader
// decodes it again. A frame that does not fit b is an error.
func (t *StreamConn) ReadPacket(b []byte) (int, error) {
	f, err := t.Recv()
	if err != nil {
		return 0, err
	}
	if n := f.EncodedBytes(); n > len(b) {
		return 0, fmt.Errorf("transport: stream frame of %d bytes exceeds %d", n, len(b))
	}
	out, err := f.AppendEncode(b[:0])
	return len(out), err
}

// Close shuts the stream down; blocked reads return with an error.
func (t *StreamConn) Close() error {
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
func (tl *TCPListener) Accept() (*StreamConn, error) {
	c, err := tl.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewStreamConn(c), nil
}

// Close stops accepting; blocked Accepts return with an error.
func (tl *TCPListener) Close() error { return tl.l.Close() }
