//go:build go1.23 && !race

package sim

import "iter"

// procContext runs a process body as an iter.Pull coroutine: switchIn
// transfers control straight to the process and switchOut straight back,
// with no trip through the goroutine scheduler.
type procContext struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

// start makes body the process's coroutine; it first runs at switchIn.
func (c *procContext) start(body func()) {
	c.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		body()
	})
}

// switchIn runs the process until it calls switchOut or body returns.
func (c *procContext) switchIn() { c.next() }

// switchOut returns control to switchIn's caller until the next switchIn.
func (c *procContext) switchOut() { c.yield(struct{}{}) }
