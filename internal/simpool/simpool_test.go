package simpool

import (
	"errors"
	"fmt"
	"minroute/internal/leaktest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withWorkers runs fn under a temporary worker bound, restoring the old one.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	old := Workers()
	SetWorkers(n)
	defer SetWorkers(old)
	fn()
}

func TestBoundedConcurrency(t *testing.T) {
	leaktest.Check(t)
	withWorkers(t, 3, func() {
		var cur, peak int64
		g := NewGroup()
		for i := 0; i < 20; i++ {
			g.Go(func() error {
				c := atomic.AddInt64(&cur, 1)
				for {
					p := atomic.LoadInt64(&peak)
					if c <= p || atomic.CompareAndSwapInt64(&peak, p, c) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				atomic.AddInt64(&cur, -1)
				return nil
			})
		}
		if err := g.Wait(); err != nil {
			t.Fatal(err)
		}
		if p := atomic.LoadInt64(&peak); p > 3 {
			t.Fatalf("peak concurrency %d exceeds bound 3", p)
		}
	})
}

func TestFirstErrorBySubmissionOrder(t *testing.T) {
	leaktest.Check(t)
	withWorkers(t, 4, func() {
		// Task 5 fails fast, task 2 fails slow: Wait must report task 2,
		// the lowest submission index, regardless of completion order.
		g := NewGroup()
		for i := 0; i < 8; i++ {
			i := i
			g.Go(func() error {
				switch i {
				case 2:
					time.Sleep(10 * time.Millisecond)
					return fmt.Errorf("task %d", i)
				case 5:
					return fmt.Errorf("task %d", i)
				default:
					return nil
				}
			})
		}
		err := g.Wait()
		if err == nil || err.Error() != "task 2" {
			t.Fatalf("Wait = %v, want task 2 (lowest submission index)", err)
		}
	})
}

func TestWaitNilOnSuccess(t *testing.T) {
	leaktest.Check(t)
	g := NewGroup()
	var n int64
	for i := 0; i < 10; i++ {
		g.Go(func() error { atomic.AddInt64(&n, 1); return nil })
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("ran %d tasks, want 10", n)
	}
}

func TestCoordinatorUnbounded(t *testing.T) {
	leaktest.Check(t)
	withWorkers(t, 1, func() {
		// With one worker slot, 4 coordinators each fanning out one bounded
		// leaf task must still finish: coordinators hold no slot while
		// waiting, so the leaves serialize through the semaphore instead of
		// deadlocking against their parents.
		done := make(chan struct{})
		go func() {
			outer := Coordinator()
			for i := 0; i < 4; i++ {
				outer.Go(func() error {
					inner := NewGroup()
					inner.Go(func() error {
						time.Sleep(time.Millisecond)
						return nil
					})
					return inner.Wait()
				})
			}
			if err := outer.Wait(); err != nil {
				t.Error(err)
			}
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("nested coordinator/leaf fan-out deadlocked")
		}
	})
}

func TestSetWorkersDefault(t *testing.T) {
	leaktest.Check(t)
	old := Workers()
	defer SetWorkers(old)
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("Workers() = %d after SetWorkers(0), want >= 1", Workers())
	}
	SetWorkers(7)
	if Workers() != 7 {
		t.Fatalf("Workers() = %d, want 7", Workers())
	}
}

func TestGroupKeepsBoundAcrossSetWorkers(t *testing.T) {
	leaktest.Check(t)
	withWorkers(t, 2, func() {
		g := NewGroup()
		var mu sync.Mutex
		release := make(chan struct{})
		started := 0
		for i := 0; i < 2; i++ {
			g.Go(func() error {
				mu.Lock()
				started++
				mu.Unlock()
				<-release
				return nil
			})
		}
		// Resizing the global bound must not disturb tasks already running
		// under the old semaphore.
		SetWorkers(8)
		time.Sleep(5 * time.Millisecond)
		close(release)
		if err := g.Wait(); err != nil {
			t.Fatal(err)
		}
		if started != 2 {
			t.Fatalf("started %d tasks, want 2", started)
		}
	})
}

func TestErrorsAreRealErrors(t *testing.T) {
	leaktest.Check(t)
	g := Coordinator()
	want := errors.New("boom")
	g.Go(func() error { return want })
	if err := g.Wait(); !errors.Is(err, want) {
		t.Fatalf("Wait = %v, want %v", err, want)
	}
}

// TestSaturatedGroupWithFailingTask: with one worker slot and more tasks
// than slots, tasks queue for the slot while early ones fail. Recording a
// failure must not wait on anything a queued task holds: Wait returns the
// error of the lowest failing submission index, and every task ran. A
// watchdog fails the test within seconds instead of at the package
// timeout.
func TestSaturatedGroupWithFailingTask(t *testing.T) {
	leaktest.Check(t)
	SetWorkers(1)
	defer SetWorkers(0)
	const tasks = 8
	var ran atomic.Int64
	done := make(chan error, 1)
	go func() {
		g := NewGroup()
		for i := 0; i < tasks; i++ {
			g.Go(func() error {
				ran.Add(1)
				time.Sleep(time.Millisecond) // let the others queue for the slot
				if i == 1 || i == 3 {
					return fmt.Errorf("task %d", i)
				}
				return nil
			})
		}
		done <- g.Wait()
	}()
	select {
	case err := <-done:
		if err == nil || err.Error() != "task 1" {
			t.Fatalf("Wait = %v, want task 1 (lowest failing submission index)", err)
		}
		if got := ran.Load(); got != tasks {
			t.Fatalf("%d of %d tasks ran", got, tasks)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("saturated group deadlocked recording a task's error")
	}
}
