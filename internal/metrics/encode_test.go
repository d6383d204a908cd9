package metrics

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
)

// oracleJSON is the encoder EncodeJSON replaced: reflection over a
// Snapshot copy. EncodeJSON must match its bytes and its errors.
func oracleJSON(r *Registry) ([]byte, error) {
	buf, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// oracleCSV is the encoder EncodeCSV replaced, kept verbatim: rows built
// from a Snapshot copy with one formatted string per value.
func oracleCSV(r *Registry) []byte {
	snap := r.Snapshot()
	var b strings.Builder
	b.WriteString("kind,name,field,value\n")
	formatFloat := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	row := func(kind, name, field string, v float64) {
		b.WriteString(kind)
		b.WriteByte(',')
		b.WriteString(csvEscape(name))
		b.WriteByte(',')
		b.WriteString(field)
		b.WriteByte(',')
		b.WriteString(formatFloat(v))
		b.WriteByte('\n')
	}
	for _, name := range sortedKeys(snap.Counters) {
		row("counter", name, "value", snap.Counters[name])
	}
	for _, name := range sortedKeys(snap.Gauges) {
		g := snap.Gauges[name]
		row("gauge", name, "value", g.Value)
		row("gauge", name, "peak", g.Peak)
	}
	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		row("histogram", name, "count", float64(h.Count))
		row("histogram", name, "sum", h.Sum)
		row("histogram", name, "min", h.Min)
		row("histogram", name, "max", h.Max)
		row("histogram", name, "mean", h.Mean)
	}
	for _, name := range sortedKeys(snap.Series) {
		for _, s := range snap.Series[name] {
			row("series", name, formatFloat(s.T), s.V)
		}
	}
	return []byte(b.String())
}

// checkEncoders requires both encoders to match their oracles on r, and
// the JSON to fit the size bound its buffer is allocated with.
func checkEncoders(t *testing.T, r *Registry) (failed bool) {
	t.Helper()
	want, wantErr := oracleJSON(r)
	got, err := r.EncodeJSON()
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("EncodeJSON error = %v, oracle error = %v", err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("EncodeJSON differs from the oracle at byte %d:\n got: %q\nwant: %q",
			firstDiff(got, want), clip(got, firstDiff(got, want)), clip(want, firstDiff(got, want)))
	}
	csv, wantCSV := r.EncodeCSV(), oracleCSV(r)
	if !bytes.Equal(csv, wantCSV) {
		t.Fatalf("EncodeCSV differs from the oracle at byte %d:\n got: %q\nwant: %q",
			firstDiff(csv, wantCSV), clip(csv, firstDiff(csv, wantCSV)), clip(wantCSV, firstDiff(csv, wantCSV)))
	}
	if r != nil {
		if size := r.jsonSize(r.sortedNames()); len(want) > size {
			t.Fatalf("JSON is %d bytes, over its %d-byte bound", len(want), size)
		}
	}
	return err != nil
}

func appendFloatJSON(f float64) []byte {
	b, err := appendJSONFloat(nil, f)
	if err != nil {
		panic(err)
	}
	return b
}

func firstDiff(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

func clip(b []byte, at int) []byte {
	return b[max(0, at-40):min(len(b), at+40)]
}

// Values worth pinning: both sides of encoding/json's 1e-6 and 1e21
// switches to exponent form, two-digit negative exponents it shortens,
// signed zero and the extremes; and apart, the non-finite values it
// rejects.
var (
	finiteValues = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 0.1, 3.25, 123456789.125, -42,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, 1e-7, 1.5e-9,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e20, 1e22,
		5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64 * 3, 1e-300, 1e300,
		float64(1<<53 + 1), 0.000123456789012345678,
	}
	nonFiniteValues = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
)

// Names covering encoding/json's string escaping: HTML characters,
// quotes, backslashes, control bytes, invalid UTF-8, the JavaScript line
// separators, plus the CSV escaper's commas and quotes.
var testNames = []string{
	"", "a", "a/first", "z/last", "dataspaces/staging-0/recv_queue",
	"a<b>&c", `q"uote`, `back\slash`, "ctl\x00\x01\x1f", "nl\nname", "tab\tname", "b\bf\f\r",
	"bad\xffutf8", "\xc3", "line\u2028sep", "para\u2029", "del\x7f", "émoji😀",
	"comma,name", `"quoted",csv`, "a/first\x00",
}

// registryBuilder turns bytes into instrument operations, so the fuzzer
// and the seeded property test drive one generator. Reads past the end
// yield zeros.
type registryBuilder struct {
	data []byte
	now  Time
}

func (d *registryBuilder) byte() byte {
	if len(d.data) == 0 {
		return 0
	}
	c := d.data[0]
	d.data = d.data[1:]
	return c
}

// name picks from testNames, or takes up to 15 raw input bytes.
func (d *registryBuilder) name() string {
	c := d.byte()
	if c < 0x80 {
		return testNames[int(c)%len(testNames)]
	}
	n := min(int(c&0x0f), len(d.data))
	s := string(d.data[:n])
	d.data = d.data[n:]
	return s
}

// value picks a listed finite value for most bytes, a non-finite one
// for the three highest below 0x80, and raw float bits otherwise.
func (d *registryBuilder) value() float64 {
	c := d.byte()
	switch {
	case c >= 0x80:
		var bits [8]byte
		for i := range bits {
			bits[i] = d.byte()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(bits[:]))
	case int(c) >= 0x80-len(nonFiniteValues):
		return nonFiniteValues[0x7f-int(c)]
	}
	return finiteValues[int(c)%len(finiteValues)]
}

func buildRegistry(data []byte) *Registry {
	if len(data) == 0 {
		return nil
	}
	d := &registryBuilder{data: data}
	r := NewRegistry(func() Time { return d.now })
	for len(d.data) > 0 {
		switch op := d.byte(); op % 7 {
		case 0:
			r.Counter(d.name()).Add(d.value())
		case 1:
			r.Gauge(d.name()).Set(d.value())
		case 2:
			r.SampledGauge(d.name()).Set(d.value())
		case 3:
			r.Histogram(d.name()).Observe(d.value())
		case 4:
			r.Series(d.name()) // possibly left empty
		case 5:
			r.Sample(d.name(), d.value())
		case 6:
			d.now = d.value() // samples between clock moves coalesce
		}
	}
	return r
}

func TestEncodeMatchesOracleOnEdgeCases(t *testing.T) {
	type edgeCase struct {
		name    string
		build   func() *Registry
		wantErr bool
	}
	cases := []edgeCase{
		{name: "nil", build: func() *Registry { return nil }},
		{name: "empty", build: func() *Registry { return NewRegistry(nil) }},
		{name: "empty series", build: func() *Registry {
			r := NewRegistry(nil)
			r.Series("idle")
			r.Series("")
			return r
		}},
		{name: "empty histogram", build: func() *Registry {
			r := NewRegistry(nil)
			r.Histogram("h")
			return r
		}},
		{name: "coalesced samples", build: func() *Registry {
			now := Time(0)
			r := NewRegistry(func() Time { return now })
			g := r.SampledGauge("inflight")
			g.Add(1)
			g.Add(1)
			now = 1e-7
			g.Add(-2)
			g.Add(5)
			return r
		}},
		{name: "every value in every slot", build: func() *Registry {
			r := NewRegistry(nil)
			s := r.Series("s")
			for i, v := range finiteValues {
				name := fmt.Sprintf("v%02d", i)
				r.Counter(name).Add(v)
				r.Gauge(name).Set(v)
				r.Histogram(name).Observe(v)
				s.Append(v, v)
			}
			return r
		}},
		{name: "every name", build: func() *Registry {
			r := NewRegistry(nil)
			for i, name := range testNames {
				r.Counter(name).Add(float64(i))
				r.Gauge(name).Set(float64(i))
				r.Histogram(name).Observe(float64(i))
				r.Series(name).Append(float64(i), 1)
			}
			return r
		}},
	}
	slots := []struct {
		name string
		set  func(r *Registry, name string, v float64)
	}{
		{"counter", func(r *Registry, name string, v float64) { r.Counter(name).Add(v) }},
		{"gauge", func(r *Registry, name string, v float64) { r.Gauge(name).Set(v) }},
		{"histogram", func(r *Registry, name string, v float64) { r.Histogram(name).Observe(v) }},
		{"series time", func(r *Registry, name string, v float64) { r.Series(name).Append(v, 1) }},
		{"series value", func(r *Registry, name string, v float64) { r.Series(name).Append(1, v) }},
	}
	for _, slot := range slots {
		// One instrument kind at a time, every key fully escaped and
		// every number at maxFloatLen bytes: the tightest case for the
		// size bounds, which must still hold.
		cases = append(cases, edgeCase{name: "longest text in " + slot.name, build: func() *Registry {
			const escaped = "\x01\x02\x03\x04\x05\x06\x07<>&" // six bytes each in JSON
			r := NewRegistry(nil)
			v := -1.2345678901234567e-6
			for i := 0; i < 100; i++ {
				for len(appendFloatJSON(v)) < maxFloatLen {
					v = math.Nextafter(v, -1)
				}
				if strings.HasPrefix(slot.name, "series") {
					r.Series(escaped).Append(v, v)
				} else {
					slot.set(r, string([]byte{escaped[i/10], escaped[i%10]}), v)
				}
				v = math.Nextafter(v, -1)
			}
			return r
		}})
	}
	for _, v := range nonFiniteValues {
		for _, slot := range slots {
			cases = append(cases, edgeCase{name: fmt.Sprintf("%v in %s", v, slot.name), wantErr: true, build: func() *Registry {
				r := NewRegistry(nil)
				r.Counter("ok").Add(1)
				slot.set(r, "x", v)
				return r
			}})
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if failed := checkEncoders(t, c.build()); failed != c.wantErr {
				t.Fatalf("EncodeJSON failed = %v, want %v", failed, c.wantErr)
			}
		})
	}
}

// TestEncodeMatchesOracleOnRandomRegistries is the seeded property test:
// 300 generated registries, both encoders against their oracles.
func TestEncodeMatchesOracleOnRandomRegistries(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 2020))
	var ok, failed int
	for i := 0; i < 300; i++ {
		data := make([]byte, rng.IntN(600))
		for j := range data {
			data[j] = byte(rng.Uint32())
		}
		if checkEncoders(t, buildRegistry(data)) {
			failed++
		} else {
			ok++
		}
	}
	// Both outcomes must be exercised for the error oracle to mean much.
	if ok < 30 || failed < 30 {
		t.Fatalf("%d registries encoded and %d failed; want at least 30 of each", ok, failed)
	}
}

func FuzzEncodeJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1})
	f.Add([]byte{2, 6, 9, 6, 1, 2, 6, 10, 6, 1, 2, 6, 10, 4, 7, 0})
	f.Add([]byte{5, 0x85, 'a', '<', 0xff, '"', '\n', 0x7f, 0x80, 1, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add([]byte{3, 8, 13, 3, 8, 16, 0, 12, 24, 1, 17, 25})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEncoders(t, buildRegistry(data))
	})
}

// TestEncodeAllocsIndependentOfSamples guards the streaming design: the
// number of allocations EncodeJSON makes depends on the number of
// instruments, never on how many samples the series hold, so a
// per-sample copy or a buffer that grows while encoding shows up here.
func TestEncodeAllocsIndependentOfSamples(t *testing.T) {
	allocs := func(samples int) float64 {
		r := NewRegistry(nil)
		for i := 0; i < 10; i++ {
			s := r.Series(fmt.Sprintf("staging-%d/bytes", i))
			for j := 0; j < samples; j++ {
				s.Append(float64(j)*1.25e-4, float64(j*i)+0.5)
			}
		}
		return testing.AllocsPerRun(2, func() {
			if _, err := r.EncodeJSON(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(10), allocs(100_000); large != small {
		t.Errorf("EncodeJSON allocates %v times with 10 samples per series, %v with 100000", small, large)
	}
}
