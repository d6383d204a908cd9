package metrics

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(5) // must not panic
	r.Gauge("g").Set(1)
	r.SampledGauge("sg").Add(2)
	r.Histogram("h").Observe(3)
	r.Series("s").Append(0, 1)
	r.Sample("s2", 4)
	if r.Counter("c").Value() != 0 || r.Gauge("g").Peak() != 0 {
		t.Fatal("nil registry returned values")
	}
	if r.SeriesNames() != nil {
		t.Fatal("nil registry returned series names")
	}
	if _, err := r.EncodeJSON(); err != nil {
		t.Fatalf("EncodeJSON on nil registry: %v", err)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry(nil)
	c := r.Counter("bytes")
	c.Add(10)
	c.Inc()
	if c.Value() != 11 {
		t.Fatalf("counter = %v, want 11", c.Value())
	}
	if r.Counter("bytes") != c {
		t.Fatal("Counter should return the same instrument")
	}
	g := r.Gauge("depth")
	g.Add(3)
	g.Add(-2)
	if g.Value() != 1 || g.Peak() != 3 {
		t.Fatalf("gauge value=%v peak=%v, want 1/3", g.Value(), g.Peak())
	}
	h := r.Histogram("wait")
	h.Observe(2)
	h.Observe(6)
	if h.Count() != 2 || h.Sum() != 8 || h.Mean() != 4 {
		t.Fatalf("histogram count=%d sum=%v mean=%v", h.Count(), h.Sum(), h.Mean())
	}
}

func TestSeriesCoalescesSameInstant(t *testing.T) {
	r := NewRegistry(nil)
	s := r.Series("util")
	s.Append(1, 0.5)
	s.Append(1, 0.7) // same instant: last value wins
	s.Append(2, 0.9)
	got := s.Samples()
	if len(got) != 2 || got[0].V != 0.7 || got[1].T != 2 {
		t.Fatalf("samples = %+v", got)
	}
}

func TestSampledGaugeFeedsSeries(t *testing.T) {
	now := Time(0)
	r := NewRegistry(func() Time { return now })
	g := r.SampledGauge("inflight")
	g.Add(1)
	now = 5
	g.Add(1)
	now = 9
	g.Add(-2)
	s := r.Series("inflight").Samples()
	if len(s) != 3 || s[1].V != 2 || s[2].T != 9 || s[2].V != 0 {
		t.Fatalf("series = %+v", s)
	}
}

// TestSampledGaugeConcurrentAttach: the gauge lookup and the series
// attach happen under the registry lock, so concurrent first calls agree
// on one gauge and one series per name (and the race detector sees no
// unguarded access to the gauge's series field).
func TestSampledGaugeConcurrentAttach(t *testing.T) {
	r := NewRegistry(nil)
	names := make([]string, 200)
	for i := range names {
		names[i] = "g" + strconv.Itoa(i)
	}
	got := make([][]*Gauge, 4)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range names {
				got[w] = append(got[w], r.SampledGauge(name))
			}
		}()
	}
	wg.Wait()
	for i, name := range names {
		for w := range got {
			if g := got[w][i]; g != got[0][i] || g.series != r.Series(name) {
				t.Fatalf("concurrent SampledGauge(%q) calls returned different gauges or series", name)
			}
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry(nil)
		// Create in scrambled order; encoding must still sort.
		r.Counter("z/last").Add(2)
		r.Counter("a/first").Add(1)
		r.Gauge("mid").Set(3)
		r.Histogram("h").Observe(1.5)
		r.Series("s").Append(0.25, 1)
		r.Series("s").Append(0.5, 2)
		return r
	}
	j1, err := build().EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := build().EncodeJSON()
	if !bytes.Equal(j1, j2) {
		t.Fatalf("JSON not byte-identical:\n%s\n---\n%s", j1, j2)
	}
	if !bytes.Equal(build().EncodeCSV(), build().EncodeCSV()) {
		t.Fatal("CSV not byte-identical")
	}
	js := string(j1)
	if strings.Index(js, "a/first") > strings.Index(js, "z/last") {
		t.Fatalf("JSON keys not sorted:\n%s", js)
	}
	csv := string(build().EncodeCSV())
	if !strings.HasPrefix(csv, "kind,name,field,value\n") {
		t.Fatalf("CSV missing header:\n%s", csv)
	}
	if !strings.Contains(csv, "series,s,0.25,1\n") {
		t.Fatalf("CSV missing series row:\n%s", csv)
	}
}
