package flexpath

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/imcstudy/imcstudy/internal/metrics"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/sim"
)

// firstTraffic returns the labels of watched nodes in the order their
// NIC direction ("in" or "out") first carried traffic within [from, to),
// dropping those that carried none.
func firstTraffic(reg *metrics.Registry, labels []string, dir string, from, to sim.Time) []string {
	first := map[string]sim.Time{}
	var order []string
	for _, l := range labels {
		for _, s := range reg.Series("nic/" + l + "/" + dir + "_util").Samples() {
			if s.T >= from && s.T < to && s.V > 0 {
				first[l] = s.T
				order = append(order, l)
				break
			}
		}
	}
	slices.SortStableFunc(order, func(a, b string) int {
		switch {
		case first[a] < first[b]:
			return -1
		case first[a] > first[b]:
			return 1
		}
		return 0
	})
	return order
}

// TestMatchOrderFollowsAttachOrder streams one version over a non-tiling
// 2-D layout — overlapping and unequal writer and reader boxes, and a
// reader that matches no writer — and checks, from the NIC traffic, that
// every Publish notifies and every Fetch pulls from its matches in the
// order a linear scan over the attached readers or writers gives.
func TestMatchOrderFollowsAttachOrder(t *testing.T) {
	wLayout := [][4]uint64{ // lo0, lo1, hi0, hi1
		{0, 0, 10, 10},
		{5, 5, 15, 15},
		{20, 0, 30, 4},
		{0, 8, 30, 9},
		{12, 0, 14, 30},
		{0, 0, 10, 10}, // duplicate of the first
	}
	rLayout := [][4]uint64{
		{3, 3, 13, 13},
		{0, 0, 30, 2},
		{40, 40, 50, 50}, // matches no writer
		{6, 6, 8, 8},
		{0, 0, 15, 15},
	}
	mk := func(l [4]uint64) ndarray.Box { return box(t, []uint64{l[0], l[1]}, []uint64{l[2], l[3]}) }

	e, m := newTitan(t, len(wLayout)+len(rLayout))
	reg := metrics.NewRegistry(e.Now)
	m.EnableMetrics(reg)
	sys := Deploy(m, Config{})
	var writers []*Writer
	var readers []*Reader
	var wLabels, rLabels []string
	for i, l := range wLayout {
		label := fmt.Sprintf("w%d", i)
		w, err := sys.NewWriter(m.Nodes[i], "sim", label, 8000)
		if err != nil {
			t.Fatal(err)
		}
		w.Declare("T", mk(l))
		m.WatchNode(label, m.Nodes[i])
		writers, wLabels = append(writers, w), append(wLabels, label)
	}
	for i, l := range rLayout {
		label := fmt.Sprintf("r%d", i)
		node := m.Nodes[len(wLayout)+i]
		r, err := sys.NewReader(node, "analytics", label, 8000)
		if err != nil {
			t.Fatal(err)
		}
		r.Subscribe("T", mk(l))
		m.WatchNode(label, node)
		readers, rLabels = append(readers, r), append(rLabels, label)
	}

	// The linear scans the index must reproduce.
	wantReaders := func(w int) []string {
		var out []string
		for r, l := range rLayout {
			if mk(l).Overlaps(mk(wLayout[w])) {
				out = append(out, rLabels[r])
			}
		}
		return out
	}
	wantWriters := func(r int) []string {
		var out []string
		for w, l := range wLayout {
			if mk(l).Overlaps(mk(rLayout[r])) {
				out = append(out, wLabels[w])
			}
		}
		return out
	}

	pubWindows := make([][2]sim.Time, len(writers))
	fetchWindows := make([][2]sim.Time, len(readers))
	const fetchAt = 100
	e.Spawn("publish", func(p *sim.Proc) error {
		for i, w := range writers {
			pubWindows[i][0] = p.Now()
			if err := w.Publish(p, "T", 1, ndarray.NewSyntheticBlock(mk(wLayout[i]))); err != nil {
				return err
			}
			pubWindows[i][1] = p.Now()
		}
		return nil
	})
	e.Spawn("fetch", func(p *sim.Proc) error {
		if err := p.Sleep(fetchAt); err != nil {
			return err
		}
		for i, r := range readers {
			fetchWindows[i][0] = p.Now()
			_, err := r.Fetch(p, "T", 1)
			if len(wantWriters(i)) == 0 {
				if !errors.Is(err, ErrNotDeclared) {
					return fmt.Errorf("fetch by unmatched %s: err %v, want ErrNotDeclared", rLabels[i], err)
				}
			} else if err != nil {
				return err
			}
			fetchWindows[i][1] = p.Now()
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if pubWindows[len(writers)-1][1] >= fetchAt {
		t.Fatalf("publishing ran until %v, into the fetch phase at %v", pubWindows[len(writers)-1][1], fetchAt)
	}
	for i, win := range pubWindows {
		got := firstTraffic(reg, rLabels, "in", win[0], win[1])
		if want := wantReaders(i); !slices.Equal(got, want) {
			t.Errorf("%s notified %v, linear scan order %v", wLabels[i], got, want)
		}
	}
	for i, win := range fetchWindows {
		got := firstTraffic(reg, wLabels, "out", win[0], win[1])
		if want := wantWriters(i); !slices.Equal(got, want) {
			t.Errorf("%s pulled from %v, linear scan order %v", rLabels[i], got, want)
		}
	}
	for i, w := range writers {
		if d := w.QueueDepth("T"); d != 0 {
			t.Errorf("%s still queues %d versions after every match fetched", wLabels[i], d)
		}
	}
}

// TestMatchesSeeLateDeclareAndSubscribe checks that a Declare or
// Subscribe made after matches were computed changes the next match.
func TestMatchesSeeLateDeclareAndSubscribe(t *testing.T) {
	_, m := newTitan(t, 4)
	sys := Deploy(m, Config{})
	newWriter := func(name string) *Writer {
		w, err := sys.NewWriter(m.Nodes[0], "sim", name, 800)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	newReader := func(name string) *Reader {
		r, err := sys.NewReader(m.Nodes[1], "analytics", name, 800)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	readersOf := func(w *Writer) []string {
		var out []string
		for _, r := range sys.matchingReaders(w, "T") {
			out = append(out, r.name)
		}
		return out
	}
	writersOf := func(r *Reader) []string {
		var out []string
		for _, w := range sys.matchingWriters(r, "T") {
			out = append(out, w.name)
		}
		return out
	}
	expect := func(what string, got []string, want ...string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Errorf("%s: got %v, want %v", what, got, want)
		}
	}
	sq := func(lo, hi uint64) ndarray.Box { return box(t, []uint64{lo, lo}, []uint64{hi, hi}) }

	w0, r0 := newWriter("w0"), newReader("r0")
	w0.Declare("T", sq(0, 10))
	r0.Subscribe("T", sq(0, 5))
	expect("readers of w0", readersOf(w0), "r0")
	expect("writers of r0", writersOf(r0), "w0")

	r1 := newReader("r1")
	r1.Subscribe("T", sq(5, 10))
	expect("readers of w0 after r1 subscribed", readersOf(w0), "r0", "r1")

	w1 := newWriter("w1")
	w1.Declare("T", sq(0, 5))
	expect("writers of r0 after w1 declared", writersOf(r0), "w0", "w1")
	expect("writers of r1 after w1 declared", writersOf(r1), "w0")

	r0.Subscribe("T", sq(20, 30))
	expect("readers of w0 after r0 moved", readersOf(w0), "r1")
	expect("writers of r0 after r0 moved", writersOf(r0))

	w0.Declare("T", sq(20, 30))
	expect("readers of w0 after w0 moved", readersOf(w0), "r0")
	expect("readers of w1", readersOf(w1))
}
