// Package sim implements a deterministic discrete-event simulation engine.
//
// Processes are coroutines (iter.Pull) that the event loop resumes one at
// a time against a virtual clock: control passes directly between the
// loop and exactly one process, so simulations are deterministic and free
// of data races by construction (race-detector builds run processes on
// goroutines instead; see procContext). The engine provides three
// coordination primitives used by the rest of the testbed:
//
//   - Event: a one-shot condition processes can wait on,
//   - Resource: a counting semaphore with a FIFO wait queue (RDMA memory,
//     socket descriptors, server request slots, ...),
//   - Bandwidth: a processor-sharing link model (NICs, Lustre OSTs, ...).
//
// Virtual time is measured in float64 seconds from the start of the run.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"github.com/imcstudy/imcstudy/internal/prof"
)

// Time is a virtual-clock timestamp in seconds since the start of the run.
type Time = float64

// ErrAborted is returned from blocking calls when the engine is shut down
// while the calling process is blocked.
var ErrAborted = errors.New("sim: process aborted")

// ErrDeadlock is returned by Run when no events remain but live processes
// are still blocked.
var ErrDeadlock = errors.New("sim: deadlock: processes blocked with empty event queue")

// ErrDeadline is returned by Run when the virtual clock passes the deadline
// set with SetDeadline.
var ErrDeadline = errors.New("sim: virtual deadline exceeded")

type wakeMsg struct {
	aborted bool
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now   Time
	queue eventHeap
	seq   int64

	live     int
	blocked  map[*Proc]struct{}
	procs    []*Proc
	errs     []error
	failFast bool
	failed   bool

	// pool recycles schedItems: the hot path allocates one per event
	// otherwise. Recycling bumps seq, which the At cancel closure checks
	// so a stale cancel cannot touch a reused item.
	pool []*schedItem

	// prof, when non-nil, attributes wall time, event counts and
	// allocations per (component kind, event site); nil (the default)
	// keeps the hot path at one pointer check per event.
	prof *prof.Profiler

	// stallHorizon arms the no-progress watchdog (see SetStallHorizon);
	// lastProgress is the last virtual instant a process spawned, woke
	// from a block, or finished.
	stallHorizon Time
	lastProgress Time

	maxTime Time
	stopped bool
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{
		blocked:  make(map[*Proc]struct{}),
		maxTime:  math.Inf(1),
		failFast: true,
	}
}

// SetFailFast controls whether the first process failure aborts the whole
// run (the default — an unhandled rank failure kills an MPI job). With
// fail-fast off, remaining processes keep running.
func (e *Engine) SetFailFast(on bool) { e.failFast = on }

// Now returns the current virtual time. It is safe to call from process
// functions and from engine callbacks.
func (e *Engine) Now() Time { return e.now }

// SetProfiler attaches a simulator self-profiler: every scheduled event
// is tagged with its scheduling site and every execution is attributed
// wall time and allocations (see internal/prof). A nil p (the default)
// disables profiling; the event loop then pays one nil check per event
// and the pooled schedItem path is unchanged.
func (e *Engine) SetProfiler(p *prof.Profiler) { e.prof = p }

// Profiler returns the attached profiler (nil when profiling is off).
func (e *Engine) Profiler() *prof.Profiler { return e.prof }

// SetDeadline makes Run stop (with ErrDeadline wrapped into the run errors)
// once the virtual clock passes t. Zero or negative means no deadline.
func (e *Engine) SetDeadline(t Time) {
	if t <= 0 {
		e.maxTime = math.Inf(1)
		return
	}
	e.maxTime = t
}

// Proc is a handle to a simulated process. All blocking operations must be
// invoked from the process's own body.
type Proc struct {
	e    *Engine
	name string
	ctx  procContext
	msg  wakeMsg // the wake-up the engine last resumed the process with
	done bool
	err  error

	// waitingOn and blockedSince describe the current block for stall and
	// deadlock diagnostics; wait sites (events, resources, gates) label
	// them via SetWaitLabel before parking.
	waitingOn    string
	blockedSince Time
}

// SetWaitLabel names what the process is about to block on, so stall and
// deadlock diagnostics can point at the wedged gate or resource instead
// of just the process. The label clears automatically when the process
// wakes.
func (p *Proc) SetWaitLabel(label string) { p.waitingOn = label }

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Spawn registers a new process that starts at the current virtual time.
// fn runs in its own coroutine; a non-nil returned error is collected and
// reported by Run. Spawn may be called before Run or from a running process;
// once the engine has shut down, the process is born aborted and never runs.
func (e *Engine) Spawn(name string, fn func(p *Proc) error) *Proc {
	p := &Proc{e: e, name: name}
	if e.stopped {
		p.done, p.err = true, ErrAborted
		return p
	}
	e.live++
	e.lastProgress = e.now
	e.procs = append(e.procs, p)
	p.ctx.start(func() {
		if p.msg.aborted {
			p.err = ErrAborted
		} else {
			p.err = runProc(p, fn)
		}
		p.done = true
	})
	e.schedule(e.now, p, nil)
	return p
}

// runProc executes a process body, converting a panic into a structured
// error instead of tearing down the host: the deferred recover runs
// before the body's coroutine returns, so the resume that was running it
// sees an ordinary finished process and the engine stays sane.
func runProc(p *Proc, fn func(p *Proc) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = RecoveredPanic("proc "+p.name, v)
		}
	}()
	return fn(p)
}

// schedule enqueues either a process wake-up or a callback at time t.
func (e *Engine) schedule(t Time, p *Proc, fn func()) *schedItem {
	if t < e.now {
		t = e.now
	}
	e.seq++
	var it *schedItem
	pooled := len(e.pool) > 0
	if pooled {
		n := len(e.pool)
		it = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		it.t, it.seq, it.proc, it.fn, it.canceled, it.site = t, e.seq, p, fn, false, 0
	} else {
		it = &schedItem{t: t, seq: e.seq, proc: p, fn: fn}
	}
	if e.prof != nil {
		it.site = e.prof.ScheduleSite()
		e.prof.Scheduled(pooled, e.queue.Len()+1)
	}
	heap.Push(&e.queue, it)
	return it
}

// recycle returns a consumed schedItem to the pool.
func (e *Engine) recycle(it *schedItem) {
	it.proc = nil
	it.fn = nil
	e.pool = append(e.pool, it)
}

// At schedules fn to run in engine context (not as a process) at time t.
// The returned cancel function is a no-op after the callback has fired,
// even if the item has since been recycled for another event.
func (e *Engine) At(t Time, fn func()) (cancel func()) {
	it := e.schedule(t, nil, fn)
	seq := it.seq
	return func() {
		if it.seq == seq {
			it.canceled = true
		}
	}
}

// resume hands control to p and returns once it yields or finishes.
func (e *Engine) resume(p *Proc, msg wakeMsg) {
	p.msg = msg
	p.ctx.switchIn()
	if p.done {
		e.live--
		e.lastProgress = e.now
		if p.err != nil && !errors.Is(p.err, ErrAborted) {
			e.errs = append(e.errs, fmt.Errorf("proc %s: %w", p.name, p.err))
			if e.failFast {
				e.failed = true
			}
		}
	}
}

// yield blocks the calling process until the engine wakes it again.
// It must only be called from the process's own body.
func (p *Proc) yield() wakeMsg {
	p.ctx.switchOut()
	return p.msg
}

// block parks the process with no scheduled wake-up; something else (an
// Event firing, a Resource release) must schedule it. Returns ErrAborted if
// the engine shut down while blocked, or at once if it already has: no one
// would ever wake the process again.
func (p *Proc) block() error {
	if p.e.stopped {
		return ErrAborted
	}
	p.blockedSince = p.e.now
	p.e.blocked[p] = struct{}{}
	msg := p.yield()
	p.waitingOn = ""
	if msg.aborted {
		return ErrAborted
	}
	return nil
}

// unblock schedules a wake-up for a process parked with block.
func (e *Engine) unblock(p *Proc) {
	if _, ok := e.blocked[p]; !ok {
		return
	}
	delete(e.blocked, p)
	e.lastProgress = e.now
	e.schedule(e.now, p, nil)
}

// Sleep advances the process's view of time by d seconds (d <= 0 yields
// without advancing the clock). Like every blocking call, it returns
// ErrAborted immediately if the engine has already shut down.
func (p *Proc) Sleep(d Time) error {
	if p.e.stopped {
		return ErrAborted
	}
	if d < 0 {
		d = 0
	}
	p.e.schedule(p.e.now+d, p, nil)
	msg := p.yield()
	if msg.aborted {
		return ErrAborted
	}
	return nil
}

// Run executes the simulation until no events remain. It returns the
// combined error of all failed processes, ErrDeadline if the clock passed
// the SetDeadline time, ErrDeadlock if live processes remain blocked, or
// nil on a clean finish.
func (e *Engine) Run() error {
	deadlineHit := false
	for e.queue.Len() > 0 {
		if e.failed {
			e.abortAll()
			break
		}
		it := heap.Pop(&e.queue).(*schedItem)
		if it.canceled {
			e.recycle(it)
			continue
		}
		if it.t > e.maxTime {
			deadlineHit = true
			e.errs = append(e.errs, fmt.Errorf("%w: %.3fs", ErrDeadline, e.maxTime))
			// The popped item is in neither the queue nor the blocked map;
			// abort its process here or its coroutine leaks and the run is
			// misreported as a deadlock.
			if it.proc != nil && !it.proc.done {
				e.resume(it.proc, wakeMsg{aborted: true})
			}
			e.abortAll()
			break
		}
		if e.stallHorizon > 0 && len(e.blocked) > 0 && it.t-e.lastProgress > e.stallHorizon {
			// The clock kept moving (self-rescheduling processes keep the
			// queue alive) but nothing blocked ever woke: the simulated
			// system is wedged. Fail with a structured diagnostic instead
			// of spinning; deadlineHit-style popped-item handling applies.
			deadlineHit = true
			e.errs = append(e.errs, &StallError{
				Now: it.t, LastProgress: e.lastProgress, Blocked: e.blockedSnapshot(),
			})
			if it.proc != nil && !it.proc.done {
				e.resume(it.proc, wakeMsg{aborted: true})
			}
			e.abortAll()
			break
		}
		e.now = it.t
		if it.proc != nil {
			p := it.proc
			site := it.site
			e.recycle(it)
			if p.done {
				continue
			}
			if e.prof == nil {
				e.resume(p, wakeMsg{})
			} else {
				tok := e.prof.BeginEvent(site, p.name, e.now, e.queue.Len())
				e.resume(p, wakeMsg{})
				e.prof.EndEvent(tok)
			}
		} else {
			fn := it.fn
			site := it.site
			e.recycle(it)
			if e.prof == nil {
				fn()
			} else {
				tok := e.prof.BeginEvent(site, "", e.now, e.queue.Len())
				fn()
				e.prof.EndEvent(tok)
			}
		}
	}
	if e.live > 0 && !deadlineHit {
		blocked := e.blockedSnapshot()
		e.abortAll()
		e.errs = append(e.errs, fmt.Errorf("%w: [%s]", ErrDeadlock, joinBlocked(blocked)))
	}
	return errors.Join(e.errs...)
}

// abortAll wakes every live process with an abort signal so its coroutine
// unwinds; used on deadlock and shutdown so Run leaks no goroutines.
func (e *Engine) abortAll() {
	e.stopped = true
	// Drain scheduled wake-ups first so procs are not woken twice.
	for e.queue.Len() > 0 {
		it := heap.Pop(&e.queue).(*schedItem)
		if it.canceled || it.proc == nil || it.proc.done {
			continue
		}
		delete(e.blocked, it.proc)
		e.resume(it.proc, wakeMsg{aborted: true})
	}
	// Wake the stragglers in spawn order, not map order, so teardown is
	// deterministic (abort handlers run user code that can record).
	for _, p := range e.procs {
		if _, ok := e.blocked[p]; !ok {
			continue
		}
		delete(e.blocked, p)
		if !p.done {
			e.resume(p, wakeMsg{aborted: true})
		}
	}
}

// schedItem is a pending wake-up or callback in the event queue.
type schedItem struct {
	t        Time
	seq      int64
	proc     *Proc
	fn       func()
	canceled bool
	index    int
	// site is the profiler's interned scheduling-site id; 0 ("engine")
	// whenever no profiler is attached.
	site int32
}

type eventHeap []*schedItem

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	it := x.(*schedItem)
	it.index = len(*h)
	*h = append(*h, it)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}
