// Package metrics is the testbed's virtual-clock telemetry registry:
// counters, gauges, histograms and time-series sampled on the simulation
// clock. It is the quantitative companion to trace.Recorder — where the
// recorder answers "when did each rank do what", the registry answers
// "how much": NIC utilization, per-collective MPI bytes, staging-server
// object counts and index sizes, memory tracks.
//
// Two properties shape the design:
//
//   - Near-zero cost when disabled. Every accessor on a nil *Registry
//     returns a nil instrument, and every method on a nil instrument is a
//     no-op — the same pattern as trace.Recorder — so instrumented hot
//     paths pay one nil check when telemetry is off. Call sites that
//     would allocate building a metric name should guard with a plain
//     `if reg != nil`.
//
//   - Deterministic, streaming encoding. The discrete-event engine is
//     deterministic, so two runs of the same configuration produce
//     identical metric values; EncodeJSON and EncodeCSV emit them in
//     sorted order so the encoded reports are byte-identical as well.
//     Both walk the live registry straight into one buffer; EncodeJSON's
//     bytes are pinned by test to encoding/json's.
//
// The package deliberately imports nothing from the rest of the testbed
// (virtual time is a plain float64), so every layer — sim, hpc,
// transport, mpi, the staging models, memprof — can record into it.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Time is a virtual-clock timestamp in seconds (mirrors sim.Time without
// importing it).
type Time = float64

// Counter is a monotonically-increasing value.
type Counter struct {
	v float64
}

// Add increases the counter; calls on a nil counter are dropped.
func (c *Counter) Add(d float64) {
	if c == nil {
		return
	}
	c.v += d
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a value that can move both ways; it remembers its peak. A
// sampled gauge (see Registry.SampledGauge) also appends every change to
// a same-named time-series, producing a Perfetto counter track.
type Gauge struct {
	r      *Registry
	v      float64
	peak   float64
	series *Series
}

// Set assigns the gauge; calls on a nil gauge are dropped.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.peak {
		g.peak = v
	}
	if g.series != nil {
		g.series.Append(g.r.now(), g.v)
	}
}

// Add moves the gauge by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.Set(g.v + d)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Peak returns the maximum value ever set (0 on nil).
func (g *Gauge) Peak() float64 {
	if g == nil {
		return 0
	}
	return g.peak
}

// Histogram summarizes a stream of observations (count, sum, min, max).
type Histogram struct {
	count    int64
	sum      float64
	min, max float64
}

// Observe records one value; calls on a nil histogram are dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Sample is one point of a time-series.
type Sample struct {
	T Time    `json:"t"`
	V float64 `json:"v"`
}

// Series is a time-series of samples on the virtual clock. Consecutive
// samples at the same instant coalesce (the last value wins), which
// keeps rate-recomputation storms from bloating the series.
type Series struct {
	samples []Sample
}

// Append records v at time t; calls on a nil series are dropped.
func (s *Series) Append(t Time, v float64) {
	if s == nil {
		return
	}
	if n := len(s.samples); n > 0 && s.samples[n-1].T == t {
		s.samples[n-1].V = v
		return
	}
	if len(s.samples) == cap(s.samples) {
		// Double explicitly: large series otherwise hit the runtime's
		// ~1.25x growth and spend their time in memmove.
		next := make([]Sample, len(s.samples), max(64, 2*cap(s.samples)))
		copy(next, s.samples)
		s.samples = next
	}
	s.samples = append(s.samples, Sample{T: t, V: v})
}

// Samples returns a copy of the series.
func (s *Series) Samples() []Sample {
	if s == nil {
		return nil
	}
	out := make([]Sample, len(s.samples))
	copy(out, s.samples)
	return out
}

// Len returns the number of samples.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.samples)
}

// Registry owns all instruments of one run. A nil *Registry is a valid
// disabled registry: every accessor returns nil and every recording is
// dropped.
type Registry struct {
	mu         sync.Mutex
	nowFn      func() Time
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	series     map[string]*Series
}

// NewRegistry returns a registry stamping series samples with now
// (typically sim.Engine.Now). A nil now function pins the clock at zero.
func NewRegistry(now func() Time) *Registry {
	if now == nil {
		now = func() Time { return 0 }
	}
	return &Registry{
		nowFn:      now,
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		series:     make(map[string]*Series),
	}
}

func (r *Registry) now() Time {
	if r == nil {
		return 0
	}
	return r.nowFn()
}

// Counter returns (creating if needed) the named counter; nil on a nil
// registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gaugeLocked(name)
}

func (r *Registry) gaugeLocked(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{r: r}
		r.gauges[name] = g
	}
	return g
}

// SampledGauge returns the named gauge with time-series sampling
// attached: every Set/Add also appends to the same-named series, which
// the trace exporter renders as a Perfetto counter track.
func (r *Registry) SampledGauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gaugeLocked(name)
	if g.series == nil {
		g.series = r.seriesLocked(name)
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Series returns (creating if needed) the named time-series.
func (r *Registry) Series(name string) *Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seriesLocked(name)
}

func (r *Registry) seriesLocked(name string) *Series {
	s, ok := r.series[name]
	if !ok {
		s = &Series{}
		r.series[name] = s
	}
	return s
}

// Sample appends v to the named series at the current virtual time.
func (r *Registry) Sample(name string, v float64) {
	if r == nil {
		return
	}
	r.Series(name).Append(r.now(), v)
}

// SeriesNames returns every series name, sorted.
func (r *Registry) SeriesNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.series))
	for name := range r.series {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// gaugeOut / histOut are the encoded forms.
type gaugeOut struct {
	Value float64 `json:"value"`
	Peak  float64 `json:"peak"`
}

type histOut struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
}

// Snapshot is the encodable state of a registry.
type Snapshot struct {
	Counters   map[string]float64  `json:"counters"`
	Gauges     map[string]gaugeOut `json:"gauges"`
	Histograms map[string]histOut  `json:"histograms"`
	Series     map[string][]Sample `json:"series"`
}

// Snapshot captures the current state. The maps encode deterministically:
// encoding/json sorts map keys.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]float64{},
		Gauges:     map[string]gaugeOut{},
		Histograms: map[string]histOut{},
		Series:     map[string][]Sample{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.v
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = gaugeOut{Value: g.v, Peak: g.peak}
	}
	//imclint:deterministic -- per-key pure copy into a map; Mean reads only the histogram and encoders emit keys sorted
	for name, h := range r.histograms {
		snap.Histograms[name] = histOut{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max, Mean: h.Mean()}
	}
	//imclint:deterministic -- per-key pure copy into a map; Samples reads only the series and encoders emit keys sorted
	for name, s := range r.series {
		snap.Series[name] = s.Samples()
	}
	return snap
}

// EncodeJSON renders the registry as indented JSON: counters, gauges,
// histograms and series, each with its names sorted. It is a streaming
// encoder: one walk over the live instruments under the registry lock
// appends into a single buffer, sized once up front, with no Snapshot
// copy and no reflection over the values. Its bytes are pinned by test to
// json.MarshalIndent(r.Snapshot(), "", "  ") plus a trailing newline,
// so two runs of the same deterministic simulation produce
// byte-identical output. NaN and ±Inf values are reported as errors,
// as encoding/json does.
func (r *Registry) EncodeJSON() ([]byte, error) {
	if r == nil {
		r = &Registry{} // encodes as four empty maps, like Snapshot
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := r.sortedNames()

	b := make([]byte, 0, r.jsonSize(names))
	var err error
	num := func(field string, f float64) {
		b = append(b, field...)
		if err == nil {
			b, err = appendJSONFloat(b, f)
		}
	}
	b = append(b, "{\n  \"counters\": {"...)
	for i, name := range names.counters {
		b = append(b, jsonMember(i)...)
		b = appendJSONKey(b, name)
		num(": ", r.counters[name].v)
	}
	b = appendJSONClose(b, len(names.counters))
	b = append(b, ",\n  \"gauges\": {"...)
	for i, name := range names.gauges {
		g := r.gauges[name]
		b = append(b, jsonMember(i)...)
		b = appendJSONKey(b, name)
		num(": {\n      \"value\": ", g.v)
		num(",\n      \"peak\": ", g.peak)
		b = append(b, "\n    }"...)
	}
	b = appendJSONClose(b, len(names.gauges))
	b = append(b, ",\n  \"histograms\": {"...)
	for i, name := range names.histograms {
		h := r.histograms[name]
		b = append(b, jsonMember(i)...)
		b = appendJSONKey(b, name)
		b = append(b, ": {\n      \"count\": "...)
		b = strconv.AppendInt(b, h.count, 10)
		num(",\n      \"sum\": ", h.sum)
		num(",\n      \"min\": ", h.min)
		num(",\n      \"max\": ", h.max)
		num(",\n      \"mean\": ", h.Mean())
		b = append(b, "\n    }"...)
	}
	b = appendJSONClose(b, len(names.histograms))
	b = append(b, ",\n  \"series\": {"...)
	for i, name := range names.series {
		samples := r.series[name].samples
		b = append(b, jsonMember(i)...)
		b = appendJSONKey(b, name)
		b = append(b, ": ["...)
		for j, s := range samples {
			num(jsonElem(j), s.T)
			num(",\n        \"v\": ", s.V)
			b = append(b, "\n      }"...)
		}
		if len(samples) > 0 {
			b = append(b, "\n    "...)
		}
		b = append(b, ']')
	}
	b = appendJSONClose(b, len(names.series))
	if err != nil {
		return nil, err
	}
	return append(b, "\n}\n"...), nil
}

// reportNames holds a registry's instrument names, each kind sorted:
// the order both encoders write.
type reportNames struct {
	counters, gauges, histograms, series []string
}

// sortedNames collects the names; the caller holds r.mu.
func (r *Registry) sortedNames() reportNames {
	return reportNames{
		counters:   sortedKeys(r.counters),
		gauges:     sortedKeys(r.gauges),
		histograms: sortedKeys(r.histograms),
		series:     sortedKeys(r.series),
	}
}

// jsonSize bounds EncodeJSON's output from above, so its buffer is
// allocated once: the fixed text of every entry at its indentation,
// every number at its longest and every key fully escaped.
func (r *Registry) jsonSize(n reportNames) int {
	size := len("{\n  \"counters\": {\n  },\n  \"gauges\": {\n  },\n  \"histograms\": {\n  },\n  \"series\": {\n  }\n}\n")
	for _, name := range n.counters {
		size += jsonKeySize(name) + 8 + maxFloatLen
	}
	for _, name := range n.gauges {
		size += jsonKeySize(name) + 48 + 2*maxFloatLen
	}
	for _, name := range n.histograms {
		size += jsonKeySize(name) + 112 + 4*maxFloatLen
	}
	for _, name := range n.series {
		size += jsonKeySize(name) + 16 + len(r.series[name].samples)*(46+2*maxFloatLen)
	}
	return size
}

// maxFloatLen is the longest shortest-form float64 that encoding/json
// writes: "-0.0000012345678901234567" in the 'f' form it uses from 1e-6
// to 1e21; the 'e' form peaks at 24 bytes.
const maxFloatLen = 25

// jsonMember is the text before the key of member i of a map nested
// one level in the report: a separator and the member's indentation.
func jsonMember(i int) string {
	if i == 0 {
		return "\n    "
	}
	return ",\n    "
}

// jsonElem is the text before sample j's time: a separator, the
// sample's opening brace and the "t" field, indented for a series
// nested two levels in.
func jsonElem(j int) string {
	if j == 0 {
		return "\n      {\n        \"t\": "
	}
	return ",\n      {\n        \"t\": "
}

// appendJSONClose ends a top-level map of n members: empty maps stay
// "{}", as json.Indent leaves them.
func appendJSONClose(b []byte, n int) []byte {
	if n > 0 {
		b = append(b, "\n  "...)
	}
	return append(b, '}')
}

// appendJSONKey appends key as a JSON string with encoding/json's
// escaping. Plain printable ASCII is copied between quotes; anything
// else (quotes, backslashes, control bytes, <>&, non-ASCII) goes through
// json.Marshal so HTML escaping and invalid UTF-8 come out exactly as
// encoding/json writes them.
func appendJSONKey(b []byte, key string) []byte {
	if !jsonPlain(key) {
		q, _ := json.Marshal(key) // a string always marshals
		return append(b, q...)
	}
	b = append(b, '"')
	b = append(b, key...)
	return append(b, '"')
}

// jsonKeySize is the longest appendJSONKey can make key: escaping turns
// one byte at most into a six-byte \uXXXX, and U+2028/U+2029 take three
// bytes in, six out.
func jsonKeySize(key string) int {
	if jsonPlain(key) {
		return len(key) + 2
	}
	return 6*len(key) + 2
}

func jsonPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// appendJSONFloat formats f as encoding/json does: the shortest
// representation, in exponent form below 1e-6 and from 1e21 on, with a
// two-digit negative exponent cut to one ("1e-07" becomes "1e-7"). NaN
// and ±Inf have no JSON form and are an error.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("metrics: json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// EncodeCSV renders the registry as `kind,name,field,value` rows, sorted
// by (kind, name, field); series samples become one row per point in
// time order, with the sample time as the field. Numbers use strconv's
// shortest 'g' form. Like EncodeJSON it streams: one walk over the live
// instruments appending into one buffer, no Snapshot copy and no string
// per value. Byte-identical across runs of the same configuration.
func (r *Registry) EncodeCSV() []byte {
	if r == nil {
		r = &Registry{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := r.sortedNames()

	b := []byte("kind,name,field,value\n")
	for _, name := range names.counters {
		b = appendCSVRow(b, "counter,", csvEscape(name), "value", r.counters[name].v)
	}
	for _, name := range names.gauges {
		g, esc := r.gauges[name], csvEscape(name)
		b = appendCSVRow(b, "gauge,", esc, "value", g.v)
		b = appendCSVRow(b, "gauge,", esc, "peak", g.peak)
	}
	for _, name := range names.histograms {
		h, esc := r.histograms[name], csvEscape(name)
		b = appendCSVRow(b, "histogram,", esc, "count", float64(h.count))
		b = appendCSVRow(b, "histogram,", esc, "sum", h.sum)
		b = appendCSVRow(b, "histogram,", esc, "min", h.min)
		b = appendCSVRow(b, "histogram,", esc, "max", h.max)
		b = appendCSVRow(b, "histogram,", esc, "mean", h.Mean())
	}
	for _, name := range names.series {
		esc := csvEscape(name)
		for _, s := range r.series[name].samples {
			b = append(b, "series,"...)
			b = append(b, esc...)
			b = append(b, ',')
			b = strconv.AppendFloat(b, s.T, 'g', -1, 64)
			b = append(b, ',')
			b = strconv.AppendFloat(b, s.V, 'g', -1, 64)
			b = append(b, '\n')
		}
	}
	return b
}

// appendCSVRow appends one `kind,name,field,value` row; kind carries its
// trailing comma and name is already escaped.
func appendCSVRow(b []byte, kind, name, field string, v float64) []byte {
	b = append(b, kind...)
	b = append(b, name...)
	b = append(b, ',')
	b = append(b, field...)
	b = append(b, ',')
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	return append(b, '\n')
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// csvEscape guards metric names containing commas or quotes (none of the
// testbed's do, but reports must stay parseable regardless).
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
