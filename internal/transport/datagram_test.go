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

	// A reader that still holds unread datagrams in its batch fails its
	// next read too; a sender's memo of the closed port drops.
	c := mn.Bind()
	for _, msg := range []string{"one", "two", "three"} {
		if err := a.WriteTo([]byte(msg), c.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 16)
	if _, err := c.ReadFrom(buf); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadFrom(buf); err != ErrClosed {
		t.Fatalf("read from a held batch after Close: %v, want ErrClosed", err)
	}
	if err := a.WriteTo([]byte("late"), c.LocalAddr()); err != nil {
		t.Fatalf("write to closed memoized addr: %v", err)
	}
}

// TestMemNetConcurrentWriters has four writers send distinct payloads into
// one port while one reader drains it, in rounds that stay under the ring
// bound so nothing may drop. Every datagram must arrive exactly once, byte
// for byte, and in order per writer: a recycled slot that still held an
// unread datagram, or a reader serving a slot a writer is filling, shows
// here (and under -race).
func TestMemNetConcurrentWriters(t *testing.T) {
	leaktest.Check(t)
	const writers, perRound, rounds = 4, 250, 8
	mn := NewMemNet()
	rx := mn.Bind()
	defer rx.Close()
	// payload appends writer w's datagram seq to b: its identity, then a
	// filler whose length and bytes both vary, so a stale or short slot
	// copy differs. Writers reuse one buffer, as the write contract allows,
	// so a port that kept b instead of copying it differs too.
	payload := func(b []byte, w, seq int) []byte {
		b = append(b, byte(w), byte(seq>>8), byte(seq))
		for i := 0; i < (seq*7+w)%61; i++ {
			b = append(b, byte(w*31+seq+i))
		}
		return b
	}
	txs := make([]Medium, writers)
	for w := range txs {
		txs[w] = mn.Bind()
		defer txs[w].Close()
	}
	next := make([]int, writers)
	buf := make([]byte, 128)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for w, tx := range txs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var b []byte
				for i := 0; i < perRound; i++ {
					b = payload(b[:0], w, r*perRound+i)
					if err := tx.WriteTo(b, rx.LocalAddr()); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		for i := 0; i < writers*perRound; i++ {
			n, err := rx.ReadFrom(buf)
			if err != nil {
				t.Fatal(err)
			}
			w := int(buf[0])
			if n < 3 || w >= writers {
				t.Fatalf("round %d: read %x, not a writer's datagram", r, buf[:n])
			}
			seq := int(buf[1])<<8 | int(buf[2])
			if seq != next[w] {
				t.Fatalf("writer %d: got datagram %d, want %d (FIFO per writer, exactly once)", w, seq, next[w])
			}
			if want := payload(nil, w, seq); string(buf[:n]) != string(want) {
				t.Fatalf("writer %d datagram %d: got %x want %x", w, seq, buf[:n], want)
			}
			next[w]++
		}
		wg.Wait()
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

// TestMemNetRingCountsBatch asserts the ring bounds unread datagrams
// wherever they sit: the ones the reader has taken as its batch but not
// yet read count, and each read frees exactly one place.
func TestMemNetRingCountsBatch(t *testing.T) {
	leaktest.Check(t)
	mn := NewMemNet()
	a, b := mn.Bind(), mn.Bind()
	defer a.Close()
	defer b.Close()
	for i := 0; i < memPortRing; i++ {
		if err := a.WriteTo([]byte{1}, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 4)
	if _, err := b.ReadFrom(buf); err != nil { // takes the whole ring as its batch
		t.Fatal(err)
	}
	for _, v := range []byte{2, 3} { // room for one of the two
		if err := a.WriteTo([]byte{v}, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < memPortRing; i++ {
		if _, err := b.ReadFrom(buf); err != nil || buf[0] != 1 {
			t.Fatalf("read %d: %v, datagram %d", i, err, buf[0])
		}
	}
	if _, err := b.ReadFrom(buf); err != nil || buf[0] != 2 {
		t.Fatalf("last read: %v, datagram %d, want 2", err, buf[0])
	}
	if got := b.(*memPort).unread.Load(); got != 0 {
		t.Fatalf("%d datagrams unread after the ring drained, want 0 (3 dropped)", got)
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
