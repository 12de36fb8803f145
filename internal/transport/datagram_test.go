package transport

import (
	"sync"
	"testing"

	"minroute/internal/leaktest"
)

// TestMemNetDelivery pins the switchboard basics: addressed delivery
// between endpoints, FIFO per sender, and self-delivery.
func TestMemNetDelivery(t *testing.T) {
	leaktest.Check(t)
	mn := NewMemNet()
	a, b := mn.Bind(), mn.Bind()
	defer a.Close()
	defer b.Close()

	if a.LocalAddr() == b.LocalAddr() {
		t.Fatalf("endpoints share address %q", a.LocalAddr())
	}
	for _, msg := range []string{"one", "two", "three"} {
		if err := a.WriteTo([]byte(msg), b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 64)
	for _, want := range []string{"one", "two", "three"} {
		n, err := b.ReadFrom(buf)
		if err != nil {
			t.Fatal(err)
		}
		if string(buf[:n]) != want {
			t.Fatalf("got %q want %q", buf[:n], want)
		}
	}
	// Self-delivery: a node's forwarder may hand packets to itself.
	if err := a.WriteTo([]byte("self"), a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	n, err := a.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "self" {
		t.Fatalf("got %q want %q", buf[:n], "self")
	}
}

// TestMemNetUnboundAndClosed asserts datagram semantics: writes to
// unknown or closed addresses silently drop, and Close unblocks readers
// with ErrClosed.
func TestMemNetUnboundAndClosed(t *testing.T) {
	leaktest.Check(t)
	mn := NewMemNet()
	a := mn.Bind()
	defer a.Close()

	if err := a.WriteTo([]byte("void"), "mem:999"); err != nil {
		t.Fatalf("write to unbound addr: %v", err)
	}
	b := mn.Bind()
	baddr := b.LocalAddr()
	done := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 16)
		_, err := b.ReadFrom(buf)
		done <- err
	}()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != ErrClosed {
		t.Fatalf("blocked read after Close: %v, want ErrClosed", err)
	}
	wg.Wait()
	if err := a.WriteTo([]byte("late"), baddr); err != nil {
		t.Fatalf("write to closed addr: %v", err)
	}
}

// TestMemNetOverflowDrops asserts the inbox ring bounds memory: writes
// beyond the ring silently drop rather than block or grow.
func TestMemNetOverflowDrops(t *testing.T) {
	leaktest.Check(t)
	mn := NewMemNet()
	a, b := mn.Bind(), mn.Bind()
	defer a.Close()
	defer b.Close()
	for i := 0; i < memPortRing+100; i++ {
		if err := a.WriteTo([]byte{byte(i)}, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 4)
	for i := 0; i < memPortRing; i++ {
		if _, err := b.ReadFrom(buf); err != nil {
			t.Fatal(err)
		}
	}
	// The overflow was dropped; the inbox is empty again.
	if got := len(b.(*memPort).inbox); got != 0 {
		t.Fatalf("inbox holds %d datagrams after draining the ring", got)
	}
}

// TestUDPDatagramRoundTrip exercises the real-socket implementation over
// loopback, including the resolved-address cache on the hot path.
func TestUDPDatagramRoundTrip(t *testing.T) {
	leaktest.Check(t)
	a, err := BindUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := BindUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	buf := make([]byte, 128)
	for i := 0; i < 3; i++ { // repeat hits the addr cache after the first
		if err := a.WriteTo([]byte("ping"), b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		n, err := b.ReadFrom(buf)
		if err != nil {
			t.Fatal(err)
		}
		if string(buf[:n]) != "ping" {
			t.Fatalf("got %q want %q", buf[:n], "ping")
		}
	}
	if err := a.WriteTo([]byte("x"), "not-an-addr"); err == nil {
		t.Fatal("unresolvable address accepted")
	}
}

// TestDatagramFaults pins the seeded injector: full loss drops everything,
// full duplication doubles everything, and a zero Fault is the identity.
func TestDatagramFaults(t *testing.T) {
	leaktest.Check(t)
	mn := NewMemNet()
	sink := mn.Bind()
	defer sink.Close()

	if d := mn.Bind(); WithFaults(d, Fault{}) != d {
		t.Fatal("zero Fault did not return the wrapped Datagram unchanged")
	}

	lossy := WithFaults(mn.Bind(), Fault{Seed: 1, LossProb: 1})
	defer lossy.Close()
	for i := 0; i < 50; i++ {
		if err := lossy.WriteTo([]byte("gone"), sink.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	dupy := WithFaults(mn.Bind(), Fault{Seed: 2, DupProb: 1})
	defer dupy.Close()
	const sent = 25
	for i := 0; i < sent; i++ {
		if err := dupy.WriteTo([]byte("twice"), sink.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(sink.(*memPort).inbox); got != 2*sent {
		t.Fatalf("sink holds %d datagrams, want %d (all dup'd, none from lossy)", got, 2*sent)
	}
}

// TestDatagramFaultsReorder asserts a reorder-only fault reaches the
// addressed face too: with every datagram held back one slot, each pair
// arrives swapped.
func TestDatagramFaultsReorder(t *testing.T) {
	leaktest.Check(t)
	mn := NewMemNet()
	sink := mn.Bind()
	defer sink.Close()
	src := WithFaults(mn.Bind(), Fault{Seed: 3, ReorderProb: 1})
	defer src.Close()
	for i := byte(0); i < 4; i++ {
		if err := src.WriteTo([]byte{i}, sink.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 4)
	for _, want := range []byte{1, 0, 3, 2} {
		if _, err := sink.ReadFrom(buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != want {
			t.Fatalf("read datagram %d, want %d (pairs swapped)", buf[0], want)
		}
	}
}
