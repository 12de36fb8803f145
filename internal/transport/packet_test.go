package transport

import "testing"

// TestUDPPacketDropsStrays pins the source check: once connected, a
// socket hands up only its peer's datagrams. The stray is a well-formed
// frame from a third socket — what a closed mesh's late BYE looks like to
// the mesh that re-bound its port — queued ahead of the peer's datagram.
func TestUDPPacketDropsStrays(t *testing.T) {
	bind := func() *UDPSocket {
		p, err := BindUDP("127.0.0.1:0")
		if err != nil {
			t.Fatalf("BindUDP: %v", err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	a, b, c := bind(), bind(), bind()
	for _, link := range [][2]*UDPSocket{{a, b}, {b, a}, {c, a}} {
		if err := link[0].Connect(link[1].LocalAddr()); err != nil {
			t.Fatalf("Connect: %v", err)
		}
	}
	if err := c.WritePacket([]byte("stray")); err != nil {
		t.Fatal(err)
	}
	if err := b.WritePacket([]byte("peer")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := a.ReadPacket(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(buf[:n]); got != "peer" {
		t.Fatalf("ReadPacket returned %q, want the connected peer's datagram", got)
	}
}
