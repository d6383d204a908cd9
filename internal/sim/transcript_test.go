package sim

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"
)

// transcript records what every process body and callback observes after
// each return from a blocking call: who, the exact virtual time (as float
// bits) and which step. Hashing it pins the engine's event order, not just
// a run's end state, so a change to the process hand-off that reorders
// anything shows up here even when the final clock agrees.
type transcript struct{ h hash.Hash }

func newTranscript() *transcript { return &transcript{h: sha256.New()} }

func (tr *transcript) rec(e *Engine, name string, step int, err error) {
	fmt.Fprintf(tr.h, "%s %016x %d %v\n", name, math.Float64bits(e.Now()), step, err)
}

func (tr *transcript) sum() string { return fmt.Sprintf("%x", tr.h.Sum(nil)) }

// sleeper loops Sleep(d) steps times, recording every return.
func sleeper(tr *transcript, steps int, d Time) func(p *Proc) error {
	return func(p *Proc) error {
		for s := 0; s < steps; s++ {
			err := p.Sleep(d)
			tr.rec(p.e, p.name, s, err)
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// waiter waits on ev once, recording the return.
func waiter(tr *transcript, ev *Event) func(p *Proc) error {
	return func(p *Proc) error {
		_, err := p.Wait(ev)
		tr.rec(p.e, p.name, 0, err)
		return err
	}
}

var errRankFailure = errors.New("rank failure")

var transcriptScenarios = []struct {
	name  string
	build func(e *Engine, tr *transcript, rng *rand.Rand)
	// wantErr is what Run's error must match (errors.Is), nil for a
	// clean finish; want is the transcript hash.
	wantErr error
	want    string
}{
	{"fan-in-10k", func(e *Engine, tr *transcript, rng *rand.Rand) {
		n := e.NewNet()
		recv := n.NewLink("recv", 5.5e9)
		for i := 0; i < 10000; i++ {
			name := fmt.Sprintf("s%d", i)
			src := n.NewLink(name, 5.5e9)
			start := Time(rng.Intn(7)) * 1e-3
			bytes := float64(1+rng.Intn(4)) * 1e6
			e.Spawn(name, func(p *Proc) error {
				err := p.Sleep(start)
				tr.rec(e, name, 0, err)
				if err != nil {
					return err
				}
				err = p.Transfer(n, bytes, src, recv)
				tr.rec(e, name, 1, err)
				return err
			})
		}
	}, nil, "c05d582f922d5e5b53de471f772cd61a1f27d6243c2c2c9a72b9a0c1f252236e"},
	{"resource-contention", func(e *Engine, tr *transcript, rng *rand.Rand) {
		r := e.NewResource("slots", 4)
		for i := 0; i < 24; i++ {
			name := fmt.Sprintf("r%d", i)
			arrive := Time(rng.Intn(5)) * 0.25
			want := int64(1 + rng.Intn(3))
			hold := Time(1+rng.Intn(4)) * 0.5
			e.Spawn(name, func(p *Proc) error {
				err := p.Sleep(arrive)
				tr.rec(e, name, 0, err)
				if err != nil {
					return err
				}
				err = p.Acquire(r, want)
				tr.rec(e, name, 1, err)
				if err != nil {
					return err
				}
				err = p.Sleep(hold)
				tr.rec(e, name, 2, err)
				r.Release(want)
				return err
			})
		}
	}, nil, "52dfec6b6216ea69ae5d91bb70d10c249d91eed5a00c774ce2a01bc3dc620da7"},
	{"event-waiters", func(e *Engine, tr *transcript, rng *rand.Rand) {
		ev := e.NewEvent()
		for i := 0; i < 8; i++ {
			e.Spawn(fmt.Sprintf("w%d", i), waiter(tr, ev))
		}
		fireAt := Time(1 + rng.Intn(5))
		e.Spawn("firer", func(p *Proc) error {
			err := p.Sleep(fireAt)
			tr.rec(e, "firer", 0, err)
			ev.Fire(7)
			// Waiters that arrive after the fire pass straight through.
			e.Spawn("late", waiter(tr, ev))
			err = p.Sleep(0)
			tr.rec(e, "firer", 1, err)
			return err
		})
	}, nil, "293546ed08d4ea1bc7afdaef8f5c2bacd72964c2becf9b3546bc962aab063571"},
	{"at-cancel", func(e *Engine, tr *transcript, rng *rand.Rand) {
		var cancels []func()
		for i := 0; i < 16; i++ {
			name := fmt.Sprintf("cb%d", i)
			step := i
			at := Time(rng.Intn(8)) * 0.5
			cancels = append(cancels, e.At(at, func() {
				tr.rec(e, name, step, nil)
				// Every third callback cancels a later-registered one,
				// which may or may not have fired yet.
				if step%3 == 0 && step+2 < len(cancels) {
					cancels[step+2]()
				}
			}))
		}
		e.Spawn("canceller", func(p *Proc) error {
			for s := 0; s < 4; s++ {
				err := p.Sleep(0.75)
				tr.rec(e, "canceller", s, err)
				if err != nil {
					return err
				}
				cancels[rng.Intn(len(cancels))]()
				// Re-register from a process: the recycled schedItems must
				// not be touched by the stale cancels above.
				e.At(p.Now()+0.25, func() { tr.rec(e, "late-cb", s, nil) })
			}
			return nil
		})
	}, nil, "8de9a0b5f8d506f87b28f269ec8e3e5e159a651c1455548d27d679a0816ad736"},
	{"spawn-from-proc", func(e *Engine, tr *transcript, rng *rand.Rand) {
		var spawnTree func(name string, depth int) func(p *Proc) error
		spawnTree = func(name string, depth int) func(p *Proc) error {
			return func(p *Proc) error {
				for s := 0; s < 3; s++ {
					err := p.Sleep(Time(rng.Intn(3)) * 0.5)
					tr.rec(e, name, s, err)
					if err != nil {
						return err
					}
					if depth < 3 {
						child := fmt.Sprintf("%s.%d", name, s)
						e.Spawn(child, spawnTree(child, depth+1))
					}
				}
				return nil
			}
		}
		e.Spawn("root", spawnTree("root", 0))
	}, nil, "241dd87941f054f448ecdc5f95cf88b0e25308031327902f7e27ecc18a1bcf5e"},
	{"watchdog-stall", func(e *Engine, tr *transcript, rng *rand.Rand) {
		e.SetStallHorizon(5)
		gate := e.NewEvent()
		gate.SetLabel("gate")
		for i := 0; i < 3; i++ {
			e.Spawn(fmt.Sprintf("reader%d", i), waiter(tr, gate))
		}
		e.Spawn("ticker", sleeper(tr, 1000, 0.1+0.1*rng.Float64()))
		e.Spawn("worker", sleeper(tr, 2, 1))
	}, ErrStalled, "a7d5efd7628ea1d5cfe5b4ac29099b97dce7eed9f2547374a215768d27299212"},
	{"deadline-abort", func(e *Engine, tr *transcript, rng *rand.Rand) {
		e.SetDeadline(10)
		ev := e.NewEvent()
		e.Spawn("parked", waiter(tr, ev))
		for i := 0; i < 5; i++ {
			e.Spawn(fmt.Sprintf("long%d", i), sleeper(tr, 20, 1+rng.Float64()))
		}
		e.At(4, func() { tr.rec(e, "cb", 0, nil) })
		e.At(40, func() { tr.rec(e, "cb", 1, nil) })
	}, ErrDeadline, "be2b5a04536db318404a8afd4a327b3e8c1c446b69dd50dbc523fd08523f7242"},
	{"fail-fast-abort", func(e *Engine, tr *transcript, rng *rand.Rand) {
		ev := e.NewEvent()
		r := e.NewResource("one", 1)
		e.Spawn("holder", func(p *Proc) error {
			err := p.Acquire(r, 1)
			tr.rec(e, "holder", 0, err)
			if err != nil {
				return err
			}
			err = p.Sleep(100)
			tr.rec(e, "holder", 1, err)
			return err
		})
		e.Spawn("queued", func(p *Proc) error {
			err := p.Acquire(r, 1)
			tr.rec(e, "queued", 0, err)
			return err
		})
		e.Spawn("parked", waiter(tr, ev))
		for i := 0; i < 4; i++ {
			e.Spawn(fmt.Sprintf("busy%d", i), sleeper(tr, 50, 0.5+rng.Float64()))
		}
		e.Spawn("failing", func(p *Proc) error {
			err := p.Sleep(3)
			tr.rec(e, "failing", 0, err)
			return errRankFailure
		})
	}, errRankFailure, "e1c8c804c3446473ff37ae25ff992ac2531e17343fc726104cd8ed02df3b06b5"},
	{"recovered-panic", func(e *Engine, tr *transcript, rng *rand.Rand) {
		ev := e.NewEvent()
		e.Spawn("parked", waiter(tr, ev))
		for i := 0; i < 3; i++ {
			e.Spawn(fmt.Sprintf("busy%d", i), sleeper(tr, 50, 0.5+rng.Float64()))
		}
		e.Spawn("bomb", func(p *Proc) error {
			err := p.Sleep(2)
			tr.rec(e, "bomb", 0, err)
			panic("boom")
		})
	}, ErrPanicked, "a7ca19b98acfcab2546df57f96376125bb4143cecc2e82f9bd669d0237b896e7"},
}

// TestEventTranscriptGolden runs seeded scenarios covering every engine
// path — a 10k-process fan-in, resource contention, shared events, At
// callbacks with cancel, spawning from a process, and the watchdog,
// deadline, fail-fast and panic abort paths — and checks each one's
// transcript hash against a constant. The constants were recorded on the
// engine's earlier goroutine-and-channel process hand-off, so a mismatch
// means an engine change reordered events. Run with -v to print the
// hashes.
func TestEventTranscriptGolden(t *testing.T) {
	for i, sc := range transcriptScenarios {
		t.Run(sc.name, func(t *testing.T) {
			e := NewEngine()
			tr := newTranscript()
			sc.build(e, tr, rand.New(rand.NewSource(int64(1000+i))))
			err := e.Run()
			if !errors.Is(err, sc.wantErr) {
				t.Errorf("Run error = %v, want %v", err, sc.wantErr)
			}
			fmt.Fprintf(tr.h, "run %016x %v\n", math.Float64bits(e.Now()), err)
			got := tr.sum()
			t.Logf("%s transcript %s", sc.name, got)
			if got != sc.want {
				t.Fatalf("transcript hash %s, want %s: the engine's event order changed", got, sc.want)
			}
		})
	}
}
