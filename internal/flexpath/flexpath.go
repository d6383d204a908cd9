// Package flexpath models Flexpath (Dayal et al.), the typed
// publish/subscribe coupling layer built on EVPath and FFS serialization
// (Section II-A). Unlike DataSpaces there are no staging servers: data is
// queued at the *simulation side* and subscribers pull it directly from
// the writers that produced it.
//
// Behaviours reproduced from the paper:
//
//   - writer-side queues bounded by the ADIOS queue_size setting
//     (Table I: queue_size=1), so a writer publishing step v+1 blocks
//     until every subscriber has consumed step v (back-pressure);
//   - FFS self-describing envelopes on every published event;
//   - transport over NNTI RDMA or TCP sockets (the CMTransport option of
//     Figure 10).
//
// Writers and readers are matched by box overlap. Each variable keeps an
// ndarray.BoxIndex over its writers' declarations and one over its
// readers' subscriptions, so a match costs a bisection and a scan of the
// candidates rather than a test against every peer; matches come back in
// attach order, the order a linear scan over the peers gives.
package flexpath

import (
	"errors"
	"fmt"

	"github.com/imcstudy/imcstudy/internal/ffs"
	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/rdma"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/staging"
	"github.com/imcstudy/imcstudy/internal/transport"
)

// ErrNotDeclared is returned when a writer publishes a variable it never
// declared, or a reader fetches one with no declared producers.
var ErrNotDeclared = errors.New("flexpath: variable not declared")

// Memory and cost model constants.
const (
	// ClientBaseBytes / ClientBufFactor match the ~400 MB/processor
	// footprint of Figure 5c.
	ClientBaseBytes int64 = 187 << 20
	// ClientBufFactor is the client-side buffering per output byte.
	ClientBufFactor = 2.0
	// SerializeBytesPerSec is the FFS encode throughput (CPU cost charged
	// per publish).
	SerializeBytesPerSec = 5e9
	// notifyBytes is the wire size of one pub/sub notification.
	notifyBytes int64 = 128
)

// Config describes a Flexpath deployment.
type Config struct {
	// Name prefixes component names (default "flexpath").
	Name string
	// Mode selects NNTI RDMA or TCP sockets (CMTransport).
	Mode transport.Mode
	// QueueSize bounds unconsumed versions per writer variable (Table I:
	// 1).
	QueueSize int
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "flexpath"
	}
	if c.Mode == 0 {
		c.Mode = transport.ModeRDMA
	}
	if c.QueueSize == 0 {
		c.QueueSize = 1
	}
	return c
}

// System is a deployed Flexpath fabric (pure peer-to-peer: it only tracks
// declarations and subscriptions).
type System struct {
	cfg     Config
	m       *hpc.Machine
	writers []*Writer
	readers []*Reader

	// matches holds each variable's box indexes; Declare and Subscribe
	// drop the variable's entry and the next match rebuilds it.
	matches map[string]*varMatches
}

// varMatches indexes one variable's declarations and subscriptions. The
// writers and readers are kept in attach order, so index hits (ascending
// positions) come back in attach order too.
type varMatches struct {
	varName string
	writers []*Writer
	wIndex  ndarray.BoxIndex
	readers []*Reader
	rIndex  ndarray.BoxIndex
	hits    []int // scratch for one query
}

// Deploy creates the fabric.
func Deploy(m *hpc.Machine, cfg Config) *System {
	return &System{
		cfg:     cfg.withDefaults(),
		m:       m,
		matches: make(map[string]*varMatches),
	}
}

// newNNTIEndpoint builds an endpoint on Flexpath's NNTI portability layer
// (EVPath CMTransport=nnti), which manages its own credentials and does
// not consult the DRC service — the reason Flexpath runs RDMA in shared
// mode on Cori while DataSpaces must fall back to sockets (Figure 13).
func newNNTIEndpoint(m *hpc.Machine, node *hpc.Node, job, name string, mode transport.Mode) *transport.Endpoint {
	ep := transport.NewEndpoint(m, node, job, name, mode)
	if mode == transport.ModeRDMA {
		ep.UseProtocol(rdma.ProtoNNTI)
	}
	return ep
}

// blockSchema is the FFS event layout for one published block.
var blockSchema = ffs.Schema{
	Name: "flexpath.block",
	Fields: []ffs.Field{
		{Name: "var", Type: ffs.TString},
		{Name: "version", Type: ffs.TInt64},
		{Name: "lo", Type: ffs.TUint64s},
		{Name: "hi", Type: ffs.TUint64s},
	},
}

// queueEntry is one unconsumed published version.
type queueEntry struct {
	key       staging.Key
	consumers int
	envelope  []byte
	drained   *sim.Event
}

// Writer is a publishing endpoint.
type Writer struct {
	sys  *System
	node *hpc.Node
	ep   *transport.Endpoint
	name string

	store     *staging.Store
	declared  map[string]ndarray.Box
	queues    map[string][]*queueEntry
	published map[staging.Key]*sim.Event
}

// NewWriter attaches a writer on node. perStepBytes sizes its library
// buffers.
func (s *System) NewWriter(node *hpc.Node, job, name string, perStepBytes int64) (*Writer, error) {
	w := &Writer{
		sys:       s,
		node:      node,
		ep:        newNNTIEndpoint(s.m, node, job, name, s.cfg.Mode),
		name:      name,
		store:     staging.NewStore(s.m, node, name, "staging", 0, 0),
		declared:  make(map[string]ndarray.Box),
		queues:    make(map[string][]*queueEntry),
		published: make(map[staging.Key]*sim.Event),
	}
	lib := ClientBaseBytes + int64(ClientBufFactor*float64(perStepBytes))
	if err := s.m.Alloc(node, name, "library", lib); err != nil {
		return nil, err
	}
	s.writers = append(s.writers, w)
	return w, nil
}

// Init acquires transport credentials.
func (w *Writer) Init(p *sim.Proc) error { return w.ep.Init(p) }

// Declare announces the box this writer will publish for varName; readers
// are matched against it (FFS/EVPath type registration). A declaration
// made or changed after matching started takes effect at the next match.
func (w *Writer) Declare(varName string, box ndarray.Box) {
	w.declared[varName] = box
	delete(w.sys.matches, varName)
}

// publishedEvent returns (creating) the event fired when key is published.
func (w *Writer) publishedEvent(key staging.Key) *sim.Event {
	ev, ok := w.published[key]
	if !ok {
		ev = w.sys.m.E.NewEvent()
		w.published[key] = ev
	}
	return ev
}

// Publish serializes the block into an FFS event, queues it writer-side
// and notifies matching subscribers. If QueueSize versions of varName are
// already unconsumed, Publish blocks until the oldest drains — the
// back-pressure that couples simulation speed to analytics speed.
func (w *Writer) Publish(p *sim.Proc, varName string, version int, blk ndarray.Block) error {
	if _, ok := w.declared[varName]; !ok {
		return fmt.Errorf("%w: %s by %s", ErrNotDeclared, varName, w.name)
	}
	mreg := w.sys.m.Metrics
	if mreg != nil {
		g := mreg.SampledGauge(w.sys.cfg.Name + "/puts_inflight")
		g.Add(1)
		defer g.Add(-1)
	}
	// Back-pressure on the bounded queue.
	t0 := p.Now()
	for len(w.queues[varName]) >= w.sys.cfg.QueueSize {
		oldest := w.queues[varName][0]
		if _, err := p.Wait(oldest.drained); err != nil {
			return err
		}
	}
	if mreg != nil {
		mreg.Histogram(w.sys.cfg.Name + "/backpressure_wait_s").Observe(p.Now() - t0)
	}
	// FFS encode (self-describing envelope + CPU cost for the payload).
	envelope, err := ffs.Encode(blockSchema, ffs.Record{
		"var":     varName,
		"version": int64(version),
		"lo":      append([]uint64(nil), blk.Box.Lo...),
		"hi":      append([]uint64(nil), blk.Box.Hi...),
	})
	if err != nil {
		return fmt.Errorf("flexpath publish %s v%d: %w", varName, version, err)
	}
	if err := w.sys.m.Compute(p, float64(blk.Bytes())/SerializeBytesPerSec); err != nil {
		return err
	}
	key := staging.Key{Var: varName, Version: version}
	if err := w.store.Put(key, blk); err != nil {
		return err
	}
	subscribers := w.sys.matchingReaders(w, varName)
	entry := &queueEntry{
		key:       key,
		consumers: len(subscribers),
		envelope:  envelope,
		drained:   w.sys.m.E.NewEvent(),
	}
	w.queues[varName] = append(w.queues[varName], entry)
	w.sys.addQueued(1)
	w.publishedEvent(key).Fire(nil)
	// Notify subscribers (small typed event).
	for _, r := range subscribers {
		if err := w.ep.Send(p, r.ep, notifyBytes+int64(len(envelope)), transport.SendOpts{}); err != nil {
			return err
		}
	}
	if entry.consumers == 0 {
		w.dequeue(varName, entry)
	}
	return nil
}

// dequeue retires a fully-consumed entry, freeing its staged data.
func (w *Writer) dequeue(varName string, entry *queueEntry) {
	w.store.DropVersion(entry.key)
	w.sys.addQueued(-1)
	q := w.queues[varName]
	for i, e := range q {
		if e == entry {
			w.queues[varName] = append(q[:i], q[i+1:]...)
			break
		}
	}
	delete(w.published, entry.key)
	entry.drained.Fire(nil)
}

// QueueDepth returns the unconsumed versions of varName.
func (w *Writer) QueueDepth(varName string) int { return len(w.queues[varName]) }

// Close releases the writer's transport and queued data.
func (w *Writer) Close() {
	w.store.Close()
	w.ep.Close()
}

// Reader is a subscribing endpoint.
type Reader struct {
	sys  *System
	node *hpc.Node
	ep   *transport.Endpoint
	name string

	subs map[string]ndarray.Box
}

// NewReader attaches a reader on node.
func (s *System) NewReader(node *hpc.Node, job, name string, perStepBytes int64) (*Reader, error) {
	r := &Reader{
		sys:  s,
		node: node,
		ep:   newNNTIEndpoint(s.m, node, job, name, s.cfg.Mode),
		name: name,
		subs: make(map[string]ndarray.Box),
	}
	lib := ClientBaseBytes + int64(ClientBufFactor*float64(perStepBytes))
	if err := s.m.Alloc(node, name, "library", lib); err != nil {
		return nil, err
	}
	s.readers = append(s.readers, r)
	return r, nil
}

// Init acquires transport credentials.
func (r *Reader) Init(p *sim.Proc) error { return r.ep.Init(p) }

// Subscribe registers interest in a box of varName. A subscription must
// be in place before the versions it should receive are published; one
// made or changed after matching started takes effect at the next match
// (the next Publish or Fetch of varName).
func (r *Reader) Subscribe(varName string, box ndarray.Box) {
	r.subs[varName] = box
	delete(r.sys.matches, varName)
}

// matchesFor returns varName's indexes, building them from the current
// declarations and subscriptions when Declare or Subscribe dropped them.
// A reader or writer joins a variable's match sets only through those two
// calls, so attaching one needs no rebuild.
func (s *System) matchesFor(varName string) *varMatches {
	vm, ok := s.matches[varName]
	if ok {
		return vm
	}
	vm = &varMatches{varName: varName}
	for _, w := range s.writers {
		if _, ok := w.declared[varName]; ok {
			vm.writers = append(vm.writers, w)
		}
	}
	for _, r := range s.readers {
		if _, ok := r.subs[varName]; ok {
			vm.readers = append(vm.readers, r)
		}
	}
	vm.wIndex.Build(len(vm.writers), vm.writerBox)
	vm.rIndex.Build(len(vm.readers), vm.readerBox)
	s.matches[varName] = vm
	return vm
}

func (vm *varMatches) writerBox(i int) ndarray.Box { return vm.writers[i].declared[vm.varName] }
func (vm *varMatches) readerBox(i int) ndarray.Box { return vm.readers[i].subs[vm.varName] }

// matchingReaders returns, in attach order, the readers whose
// subscription intersects the writer's declared box for varName.
func (s *System) matchingReaders(w *Writer, varName string) []*Reader {
	wBox, ok := w.declared[varName]
	if !ok {
		return nil
	}
	vm := s.matchesFor(varName)
	vm.hits = vm.rIndex.Query(wBox, vm.readerBox, vm.hits[:0])
	out := make([]*Reader, len(vm.hits))
	for k, i := range vm.hits {
		out[k] = vm.readers[i]
	}
	return out
}

// matchingWriters returns, in attach order, the writers whose declared
// box intersects the reader's subscription.
func (s *System) matchingWriters(r *Reader, varName string) []*Writer {
	rBox, ok := r.subs[varName]
	if !ok {
		return nil
	}
	vm := s.matchesFor(varName)
	vm.hits = vm.wIndex.Query(rBox, vm.writerBox, vm.hits[:0])
	out := make([]*Writer, len(vm.hits))
	for k, i := range vm.hits {
		out[k] = vm.writers[i]
	}
	return out
}

// Fetch retrieves the reader's subscribed box of version: it waits for
// every matching writer to publish, pulls each writer's overlapping piece,
// decodes the FFS envelope, assembles the result and marks the entries
// consumed (draining writer queues).
func (r *Reader) Fetch(p *sim.Proc, varName string, version int) (ndarray.Block, error) {
	box, ok := r.subs[varName]
	if !ok {
		return ndarray.Block{}, fmt.Errorf("%w: %s not subscribed by %s", ErrNotDeclared, varName, r.name)
	}
	writers := r.sys.matchingWriters(r, varName)
	if len(writers) == 0 {
		return ndarray.Block{}, fmt.Errorf("%w: %s has no producers", ErrNotDeclared, varName)
	}
	if mreg := r.sys.m.Metrics; mreg != nil {
		g := mreg.SampledGauge(r.sys.cfg.Name + "/gets_inflight")
		g.Add(1)
		defer g.Add(-1)
	}
	key := staging.Key{Var: varName, Version: version}
	var parts []ndarray.Block
	for _, w := range writers {
		if _, err := p.Wait(w.publishedEvent(key)); err != nil {
			return ndarray.Block{}, err
		}
		entry := w.findEntry(varName, key)
		if entry == nil {
			return ndarray.Block{}, fmt.Errorf("flexpath fetch %s v%d: entry drained early", varName, version)
		}
		if _, _, err := ffs.Decode(entry.envelope); err != nil {
			return ndarray.Block{}, fmt.Errorf("flexpath fetch %s v%d: %w", varName, version, err)
		}
		overlap, ok := box.Intersect(w.declared[varName])
		if !ok {
			continue
		}
		blocks, err := w.store.Query(key, overlap)
		if err != nil {
			return ndarray.Block{}, err
		}
		var bytes int64
		for _, b := range blocks {
			bytes += b.Bytes()
		}
		if err := w.ep.Send(p, r.ep, bytes, transport.SendOpts{}); err != nil {
			return ndarray.Block{}, fmt.Errorf("flexpath fetch %s v%d: %w", varName, version, err)
		}
		parts = append(parts, blocks...)
		entry.consumers--
		if entry.consumers <= 0 {
			w.dequeue(varName, entry)
		}
	}
	out, err := ndarray.Assemble(box, parts)
	if err != nil {
		return ndarray.Block{}, fmt.Errorf("flexpath fetch %s v%d: %w", varName, version, err)
	}
	return out, nil
}

func (w *Writer) findEntry(varName string, key staging.Key) *queueEntry {
	for _, e := range w.queues[varName] {
		if e.key == key {
			return e
		}
	}
	return nil
}

// Close releases the reader's transport state.
func (r *Reader) Close() { r.ep.Close() }

// addQueued moves the fabric-wide unconsumed-version track (the sum of
// every writer's bounded queue — the back-pressure signal of Table I's
// queue_size setting).
func (s *System) addQueued(delta int) {
	if mreg := s.m.Metrics; mreg != nil {
		mreg.SampledGauge(s.cfg.Name + "/queue_depth").Add(float64(delta))
	}
}
