package server

import (
	"testing"
	"time"
)

// async runs f on its own goroutine and returns a channel closed when f
// returns.
func async(f func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	return done
}

// blocked fails the test if done closes within a short grace period.
func blocked(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("%s did not wait", what)
	case <-time.After(20 * time.Millisecond):
	}
}

// proceeds fails the test unless done closes.
func proceeds(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never proceeded", what)
	}
}

// TestPipelineOneBatchAtATime: a second acquire waits for the first
// batch's release.
func TestPipelineOneBatchAtATime(t *testing.T) {
	p := newPipeline()
	p.acquire()
	second := async(p.acquire)
	blocked(t, second, "a second acquire while a batch holds the slot")
	p.release()
	proceeds(t, second, "the second acquire after release")
	p.release()
}

// TestPipelineReserveAllWaitsOutTheBatch: reserveAll shuts the slot to
// new batches at once, waits for the running batch to finish, and holds
// the slot until its release runs.
func TestPipelineReserveAllWaitsOutTheBatch(t *testing.T) {
	p := newPipeline()
	p.acquire()
	var release func()
	reserved := async(func() { release = p.reserveAll() })
	blocked(t, reserved, "reserveAll while a batch runs")
	next := async(p.acquire)
	blocked(t, next, "a new batch while a reserver waits")
	p.release()
	proceeds(t, reserved, "reserveAll after the running batch released")
	blocked(t, next, "a new batch while the reservation is held")
	release()
	proceeds(t, next, "the waiting batch after the reservation released")
	p.release()
}

// TestPipelineReservationsQueue: a second reserveAll waits for the first
// reservation's release.
func TestPipelineReservationsQueue(t *testing.T) {
	p := newPipeline()
	first := p.reserveAll()
	var second func()
	done := async(func() { second = p.reserveAll() })
	blocked(t, done, "a second reserveAll while the first holds")
	first()
	proceeds(t, done, "the second reserveAll after the first released")
	second()
	proceeds(t, async(p.acquire), "a batch after both reservations released")
}
