package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// settledGoroutines waits up to a second for the goroutine count to fall
// to want (a finished process may still be unwinding) and returns the
// last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestAbortPathsLeakNoGoroutines checks every way Run can end early
// unwinds every process it started: none may stay parked once Run
// returns, including one that blocks again after it was told to abort.
func TestAbortPathsLeakNoGoroutines(t *testing.T) {
	// parkForever waits on an event nobody fires.
	parkForever := func(ev *Event) func(p *Proc) error {
		return func(p *Proc) error {
			_, err := p.Wait(ev)
			return err
		}
	}
	loop := func(d Time) func(p *Proc) error {
		return func(p *Proc) error {
			for {
				if err := p.Sleep(d); err != nil {
					return err
				}
			}
		}
	}
	var reblockErrs []error
	// reblock ignores the first abort and blocks once more, the way
	// cleanup code that still talks to the simulated system does.
	reblock := func(again func(p *Proc) error) func(p *Proc) error {
		return func(p *Proc) error {
			_, err := p.Wait(p.e.NewEvent())
			if !errors.Is(err, ErrAborted) {
				return err
			}
			err = again(p)
			reblockErrs = append(reblockErrs, err)
			return err
		}
	}
	cases := []struct {
		name    string
		build   func(e *Engine)
		wantErr error
		reblock int
	}{
		{"deadlock", func(e *Engine) {
			r := e.NewResource("one", 1)
			e.Spawn("parked", parkForever(e.NewEvent()))
			e.Spawn("holder", func(p *Proc) error {
				if err := p.Acquire(r, 1); err != nil {
					return err
				}
				_, err := p.Wait(e.NewEvent())
				return err
			})
			e.Spawn("queued", func(p *Proc) error { return p.Acquire(r, 1) })
		}, ErrDeadlock, 0},
		{"deadline", func(e *Engine) {
			e.SetDeadline(10)
			e.Spawn("parked", parkForever(e.NewEvent()))
			e.Spawn("long", loop(3))
			e.Spawn("longer", func(p *Proc) error { return p.Sleep(100) })
		}, ErrDeadline, 0},
		{"stall", func(e *Engine) {
			e.SetStallHorizon(5)
			e.Spawn("parked", parkForever(e.NewEvent()))
			e.Spawn("ticker", loop(0.1))
		}, ErrStalled, 0},
		{"fail-fast", func(e *Engine) {
			e.Spawn("parked", parkForever(e.NewEvent()))
			e.Spawn("ticker", loop(0.5))
			e.Spawn("failing", func(p *Proc) error {
				if err := p.Sleep(2); err != nil {
					return err
				}
				return errRankFailure
			})
		}, errRankFailure, 0},
		{"recovered-panic", func(e *Engine) {
			e.Spawn("parked", parkForever(e.NewEvent()))
			e.Spawn("ticker", loop(0.5))
			e.Spawn("bomb", func(p *Proc) error {
				if err := p.Sleep(2); err != nil {
					return err
				}
				panic("boom")
			})
		}, ErrPanicked, 0},
		{"block-after-abort", func(e *Engine) {
			e.Spawn("sleeps-again", reblock(func(p *Proc) error { return p.Sleep(1) }))
			e.Spawn("waits-again", reblock(func(p *Proc) error {
				_, err := p.Wait(e.NewEvent())
				return err
			}))
			e.Spawn("acquires-again", reblock(func(p *Proc) error {
				r := e.NewResource("held", 1)
				if err := r.TryAcquire(1); err != nil {
					return err
				}
				return p.Acquire(r, 1)
			}))
		}, ErrDeadlock, 3},
		{"spawn-after-abort", func(e *Engine) {
			e.Spawn("spawner", reblock(func(p *Proc) error {
				child := e.Spawn("child", func(c *Proc) error { return c.Sleep(1) })
				return child.err
			}))
		}, ErrDeadlock, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reblockErrs = nil
			before := runtime.NumGoroutine()
			e := NewEngine()
			c.build(e)
			err := e.Run()
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("Run error = %v, want %v", err, c.wantErr)
			}
			if e.live != 0 {
				t.Errorf("live = %d after Run, want 0", e.live)
			}
			if after := settledGoroutines(before); after != before {
				t.Errorf("%d goroutines before Run, %d after: a process never unwound", before, after)
			}
			if len(reblockErrs) != c.reblock {
				t.Fatalf("%d processes blocked again after the abort, want %d", len(reblockErrs), c.reblock)
			}
			for _, err := range reblockErrs {
				if !errors.Is(err, ErrAborted) {
					t.Errorf("blocking after the abort returned %v, want ErrAborted", err)
				}
			}
		})
	}
}
