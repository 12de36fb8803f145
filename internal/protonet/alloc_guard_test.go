package protonet

import "testing"

// TestStepAllocBudget holds Step itself to no allocation: choosing among
// sf240's 954 non-empty queues, delivering, and keeping ready and the
// counters cost none. What is left near it is append's — a queue that needs
// room for the message a receiver sends — which is the harness holding the
// protocol's output, not overhead of its own.
func TestStepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under the race detector")
	}
	// Steady state: 48 messages deep in arrays of 64, every queue has room
	// for the ~2 bounces that come its way during the measurement.
	net := bounceNet(sf240(), 48)
	step := func() { net.Step() }
	if got := testing.AllocsPerRun(2000, step); got != 0 {
		t.Errorf("deep queues: %.0f allocs per Step, want 0", got)
	}
	// Turnover: one message per link, so every Step empties a queue, takes
	// it off ready, and the bounce puts it back on. The one allocation is
	// the fresh queue's first slot.
	net = bounceNet(sf240(), 1)
	if got := testing.AllocsPerRun(2000, step); got > 1 {
		t.Errorf("one-message queues: %.0f allocs per Step, want 1 (the refilled queue's slot)", got)
	}
}
