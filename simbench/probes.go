package main

import (
	"fmt"
	"time"

	"github.com/imcstudy/imcstudy/internal/sim"
)

// handoffProbe times the engine's process hand-off through the public
// sim API: procs processes each Sleep in a loop under Engine.Run, so
// nearly every event is one resume round trip. It returns ns per resume.
func handoffProbe(procs int) (float64, error) {
	const minResumes = 200_000
	sleeps := (minResumes + procs - 1) / procs
	e := sim.NewEngine()
	for i := 0; i < procs; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) error {
			for k := 0; k < sleeps; k++ {
				if err := p.Sleep(1e-6); err != nil {
					return err
				}
			}
			return nil
		})
	}
	start := time.Now()
	if err := e.Run(); err != nil {
		return 0, fmt.Errorf("handoff probe: %w", err)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(procs*(sleeps+1)), nil
}

// flowProbe times the network solver through the public sim API: writers
// flows, each over its own link and one shared sink link (a fan-in), are
// started together and run to completion. Sizes fall into flowSizeClasses
// groups so completions come in that many waves, each re-solving the
// remaining flows. It returns µs per flow from start to completion.
func flowProbe(writers int) (float64, error) {
	const flowSizeClasses = 64
	e := sim.NewEngine()
	n := e.NewNet()
	start := time.Now()
	sink := n.NewLink("sink", 10e9)
	links := make([]*sim.Link, writers)
	for i := range links {
		links[i] = n.NewLink(fmt.Sprintf("w%d", i), 5e9)
	}
	done := make([]*sim.Event, writers)
	e.At(0, func() {
		for i, l := range links {
			done[i] = n.StartFlow(float64(1+i%flowSizeClasses)*(1<<20), l, sink)
		}
	})
	if err := e.Run(); err != nil {
		return 0, fmt.Errorf("flow probe: %w", err)
	}
	elapsed := time.Since(start)
	for i, ev := range done {
		if ev == nil || !ev.Fired() {
			return 0, fmt.Errorf("flow probe: flow %d did not complete", i)
		}
	}
	return float64(elapsed.Nanoseconds()) / 1e3 / float64(writers), nil
}
