package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"pnstm/internal/bitnum"
	"pnstm/internal/bitvec"
)

// settle polls cond for up to a second: workers that have handed back
// their last result still have a few lines to run before they park or
// exit.
func settle(cond func() bool) bool {
	for deadline := time.Now().Add(time.Second); !cond(); {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// forkN is a root program that forks n empty children.
func forkN(n int) func(*Ctx) {
	fns := make([]func(*Ctx), n)
	for i := range fns {
		fns[i] = noop
	}
	return func(c *Ctx) { c.Parallel(fns...) }
}

// TestWorkersExitAfterClose: Close lets the parked workers go and waits for
// them, so a closed runtime leaves no goroutine behind.
func TestWorkersExitAfterClose(t *testing.T) {
	before := runtime.NumGoroutine()
	rt, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := rt.Run(forkN(8)); err != nil {
			t.Fatal(err)
		}
	}
	if !settle(func() bool { return rt.sched.parked.Load() > 0 }) {
		t.Fatal("no worker parked after 50 forking roots")
	}
	closed := make(chan struct{})
	go func() {
		rt.Close()
		rt.Close() // idempotent
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close has not returned after 1 s")
	}
	if !settle(func() bool { return runtime.NumGoroutine() <= before }) {
		t.Fatalf("%d goroutines 1 s after Close, %d before New", runtime.NumGoroutine(), before)
	}
}

// TestWorkerPoolCapped: however many goroutines a burst needed, at most
// N = 2P of them stay parked afterwards; the rest exit. Its bitnums keep a
// runtime from running much more than N blocks at once, so after 64
// concurrent forking roots the test makes a burst by hand: 64 root blocks
// handed out at once, each with a slot of its own, that hold their
// goroutines until all 64 run.
func TestWorkerPoolCapped(t *testing.T) {
	const p, n, burst = 4, 8, 64
	before := runtime.NumGoroutine()
	rt := newRT(t, p)
	// Besides the parked workers, the runtime keeps its publisher.
	idle := func() bool {
		return rt.sched.parked.Load() <= n && runtime.NumGoroutine()-before <= n+1
	}
	check := func(what string) {
		t.Helper()
		if !settle(idle) {
			t.Fatalf("after %s: %d workers parked and %d goroutines above the level before New; at most %d and %d",
				what, rt.sched.parked.Load(), runtime.NumGoroutine()-before, n, n+1)
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := rt.Run(forkN(8)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	check("64 concurrent roots forking 8")

	var running sync.WaitGroup
	running.Add(burst)
	release := make(chan struct{})
	hold := func(*Ctx) {
		running.Done()
		<-release
	}
	done := make([]chan joinPayload, burst)
	for i := range done {
		b := rootBlock(hold)
		done[i] = b.frame.resume
		rt.sched.start(dispatch{
			slot:  &slot{id: p + i},
			block: b,
			free:  bitnum.Free{Bn: bitvec.None},
		})
	}
	running.Wait()
	close(release)
	for _, ch := range done {
		await(ch)
	}
	check("64 blocks on goroutines at once")
}

// runRecovering runs fn as a root and returns what Run panicked with.
func runRecovering(rt *Runtime, fn func(*Ctx)) (r any) {
	defer func() { r = recover() }()
	_ = rt.Run(fn)
	return nil
}

// TestWorkerSurvivesChildPanic: a child's panic reaches Run's caller, and
// the workers that ran the panicking tree go on serving roots.
func TestWorkerSurvivesChildPanic(t *testing.T) {
	// Closed only on success: Close would wait for a hung Run forever.
	rt, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	boom := func(c *Ctx) { c.Parallel(func(*Ctx) { panic("boom") }, noop) }
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 3; i++ {
			if r := runRecovering(rt, boom); r != "boom" {
				done <- fmt.Errorf("Run of a panicking child: recovered %v, want boom", r)
				return
			}
		}
		for i := 0; i < 100; i++ {
			if err := rt.Run(forkN(2)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		rt.Close()
	case <-time.After(10 * time.Second):
		t.Fatal("3 panicking roots and 100 forking roots did not finish in 10 s")
	}
}
