//go:build race || !go1.23

package sim

// procContext runs a process body on its own goroutine and passes the
// turn back and forth over one unbuffered channel. Race-detector builds
// use it because a finished coroutine never releases its race-detector
// state (Go's runtime.coroexit skips racegoend): at ~5 KB per finished
// process, `go test -race` of the long suites runs out of memory.
// Toolchains before Go 1.23 have no iter.Pull and use it too.
type procContext struct {
	turn chan struct{}
}

// start makes body the process's goroutine; it first runs at switchIn.
func (c *procContext) start(body func()) {
	c.turn = make(chan struct{})
	go func() {
		<-c.turn
		body()
		c.turn <- struct{}{}
	}()
}

// switchIn runs the process until it calls switchOut or body returns.
func (c *procContext) switchIn() {
	c.turn <- struct{}{}
	<-c.turn
}

// switchOut returns control to switchIn's caller until the next switchIn.
func (c *procContext) switchOut() {
	c.turn <- struct{}{}
	<-c.turn
}
