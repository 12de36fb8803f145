package transport

import (
	"sync"

	"minroute/internal/rng"
)

// Fault configures seeded perturbation of a Medium. Probabilities are
// per-datagram and applied on the write side, so ARQ retransmissions run
// the same gauntlet as first transmissions. The zero value injects
// nothing.
type Fault struct {
	// Seed drives the perturbation PRNG; equal seeds give equal fault
	// sequences for the same write sequence.
	Seed uint64
	// LossProb drops the datagram.
	LossProb float64
	// DupProb sends the datagram twice.
	DupProb float64
	// ReorderProb holds the datagram back and releases it after the next
	// one — a one-slot reordering, the classic UDP late-arrival.
	ReorderProb float64
}

// Active reports whether any perturbation is configured.
func (f Fault) Active() bool { return f.LossProb > 0 || f.DupProb > 0 || f.ReorderProb > 0 }

// faultMedium wraps a Medium with seeded write-side faults. Both faces
// draw from one stream, so a given write sequence meets one fault
// sequence whichever face it goes through; reads, LocalAddr and Close pass
// through.
type faultMedium struct {
	Medium
	cfg Fault

	mu   sync.Mutex
	r    *rng.Source
	held func() error // the write held back for reordering, nil if none
}

// WithFaults wraps m with the seeded fault injector; a zero Fault returns
// m unchanged.
func WithFaults(m Medium, f Fault) Medium {
	if !f.Active() {
		return m
	}
	return &faultMedium{Medium: m, cfg: f, r: rng.New(f.Seed)}
}

// WritePacket sends b down the lane through the fault gauntlet.
func (fm *faultMedium) WritePacket(b []byte) error {
	return fm.write(b, fm.Medium.WritePacket)
}

// WriteTo sends b to addr through the fault gauntlet.
func (fm *faultMedium) WriteTo(b []byte, addr string) error {
	return fm.write(b, func(b []byte) error { return fm.Medium.WriteTo(b, addr) })
}

// write applies loss, then reorder, then duplication, sending through
// send.
func (fm *faultMedium) write(b []byte, send func([]byte) error) error {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	if fm.cfg.LossProb > 0 && fm.r.Float64() < fm.cfg.LossProb {
		return nil // lost on the wire
	}
	if held := fm.held; held != nil {
		// Release the held datagram after this one: the pair arrives
		// swapped.
		fm.held = nil
		if err := send(b); err != nil {
			return err
		}
		return held()
	}
	if fm.cfg.ReorderProb > 0 && fm.r.Float64() < fm.cfg.ReorderProb {
		c := append([]byte(nil), b...)
		fm.held = func() error { return send(c) }
		return nil
	}
	if err := send(b); err != nil {
		return err
	}
	if fm.cfg.DupProb > 0 && fm.r.Float64() < fm.cfg.DupProb {
		return send(b)
	}
	return nil
}

// Close releases any held datagram (it counts as lost) and closes the
// inner medium.
func (fm *faultMedium) Close() error {
	fm.mu.Lock()
	fm.held = nil
	fm.mu.Unlock()
	return fm.Medium.Close()
}
