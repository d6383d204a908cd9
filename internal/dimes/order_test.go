package dimes

import (
	"fmt"
	"slices"
	"testing"

	"github.com/imcstudy/imcstudy/internal/metrics"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/sim"
)

// firstSends returns the labels of watched nodes in the order their NIC
// first carried outbound traffic at or after from, dropping those that
// carried none.
func firstSends(reg *metrics.Registry, labels []string, from sim.Time) []string {
	first := map[string]sim.Time{}
	var order []string
	for _, l := range labels {
		for _, s := range reg.Series("nic/" + l + "/out_util").Samples() {
			if s.T >= from && s.V > 0 {
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

// TestGetVisitsOwnersInRegistrationOrder puts a non-tiling 2-D layout —
// overlapping and unequal owner boxes, one owner the query misses — and
// checks that Get pulls from the overlapping owners in the order a
// linear scan over the registrations gives, read off the owners' NIC
// traffic.
func TestGetVisitsOwnersInRegistrationOrder(t *testing.T) {
	layout := [][4]uint64{ // lo0, lo1, hi0, hi1
		{0, 0, 10, 10},
		{40, 40, 50, 50}, // missed by the query
		{5, 5, 15, 15},
		{0, 8, 30, 9},
		{20, 0, 30, 4},
		{12, 0, 14, 30},
		{2, 2, 4, 4},
		{0, 0, 10, 10}, // duplicate of the first
	}
	query := box(t, []uint64{3, 3}, []uint64{13, 13})

	e, m := newTitan(t, 3+len(layout))
	reg := metrics.NewRegistry(e.Now)
	m.EnableMetrics(reg)
	sys, err := Deploy(m, Config{Writers: 1}, m.Nodes[:2])
	if err != nil {
		t.Fatal(err)
	}
	var owners []*Client
	var labels, want []string
	for i, l := range layout {
		label := fmt.Sprintf("w%d", i)
		c, err := sys.NewClient(m.Nodes[3+i], "sim", label, 800)
		if err != nil {
			t.Fatal(err)
		}
		m.WatchNode(label, m.Nodes[3+i])
		owners = append(owners, c)
		labels = append(labels, label)
		if box(t, []uint64{l[0], l[1]}, []uint64{l[2], l[3]}).Overlaps(query) {
			want = append(want, label)
		}
	}
	r, err := sys.NewClient(m.Nodes[2], "analytics", "r", 800)
	if err != nil {
		t.Fatal(err)
	}
	const getAt = 10
	e.Spawn("writers", func(p *sim.Proc) error {
		for i, l := range layout {
			b := box(t, []uint64{l[0], l[1]}, []uint64{l[2], l[3]})
			if err := owners[i].Put(p, "T", 1, ndarray.NewSyntheticBlock(b)); err != nil {
				return err
			}
		}
		owners[0].Commit("T", 1)
		return nil
	})
	e.Spawn("reader", func(p *sim.Proc) error {
		if err := p.Sleep(getAt); err != nil {
			return err
		}
		_, err := r.Get(p, "T", 1, query)
		return err
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := firstSends(reg, labels, getAt); !slices.Equal(got, want) {
		t.Fatalf("Get pulled from %v, linear scan order %v", got, want)
	}
}

// TestGetSeesPutAfterGet checks that a Put registered after a Get built
// the version's index is visible to the next Get.
func TestGetSeesPutAfterGet(t *testing.T) {
	e, m := newTitan(t, 5)
	sys, err := Deploy(m, Config{Writers: 1}, m.Nodes[:2])
	if err != nil {
		t.Fatal(err)
	}
	w0, err := sys.NewClient(m.Nodes[2], "sim", "w0", 800)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := sys.NewClient(m.Nodes[3], "sim", "w1", 800)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.NewClient(m.Nodes[4], "analytics", "r", 800)
	if err != nil {
		t.Fatal(err)
	}
	left := box(t, []uint64{0, 0}, []uint64{4, 8})
	right := box(t, []uint64{4, 0}, []uint64{8, 8})
	whole := box(t, []uint64{0, 0}, []uint64{8, 8})
	e.Spawn("run", func(p *sim.Proc) error {
		if err := w0.Put(p, "T", 1, ndarray.NewSyntheticBlock(left)); err != nil {
			return err
		}
		w0.Commit("T", 1)
		if _, err := r.Get(p, "T", 1, left); err != nil {
			return err
		}
		if _, err := r.Get(p, "T", 1, whole); err == nil {
			return fmt.Errorf("Get of %v with only %v registered succeeded", whole, left)
		}
		if err := w1.Put(p, "T", 1, ndarray.NewSyntheticBlock(right)); err != nil {
			return err
		}
		_, err := r.Get(p, "T", 1, whole)
		return err
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
