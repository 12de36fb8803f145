//go:build unix

package transport

import (
	"net"
	"syscall"
	"testing"
	"time"

	"minroute/internal/leaktest"
)

// rcvBuf reads back the receive-buffer size the kernel granted conn.
func rcvBuf(t *testing.T, conn *net.UDPConn) int {
	t.Helper()
	raw, err := conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var size int
	var serr error
	if err := raw.Control(func(fd uintptr) {
		size, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		t.Fatal(serr)
	}
	return size
}

// TestUDPDatagramAbsorbsBurst pins what the data port's receive buffer is
// for: a sender that was stalled delivers its whole backlog before the
// reader runs again, nothing retransmits a datagram the kernel queue drops,
// and so the queue must hold the burst — 10,000 data-frame-sized datagrams,
// 0.5 s at the benchmark's 20 k packets per second.
func TestUDPDatagramAbsorbsBurst(t *testing.T) {
	leaktest.Check(t)
	const burst, frame, need = 10000, 54, 4 << 20

	// What the kernel grants a socket that asks for the size the burst
	// needs: below the request it is clamping (net.core.rmem_max) and no
	// data port on this host can hold the burst.
	probe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	_ = probe.SetReadBuffer(need)
	granted := rcvBuf(t, probe)
	probe.Close()
	if granted < need {
		t.Skipf("kernel grants a %d-byte receive buffer of the %d asked", granted, need)
	}

	rx, err := BindUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := BindUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	buf := make([]byte, frame)
	for i := 0; i < burst; i++ {
		if err := tx.WriteTo(buf, rx.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	// Loopback delivery is synchronous with the write: whatever is not
	// queued by now was dropped, and the deadline turns that into an error.
	if err := rx.conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for got := 0; got < burst; got++ {
		if _, err := rx.ReadFrom(buf); err != nil {
			t.Fatalf("%d of %d datagrams arrived (data port SO_RCVBUF %d, a probe got %d): %v",
				got, burst, rcvBuf(t, rx.conn), granted, err)
		}
	}
}
