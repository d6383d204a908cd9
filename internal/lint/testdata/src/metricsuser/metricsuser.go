// Fixture for nilguard's metrics row; the analyzer applies everywhere
// outside internal/metrics itself.
package metricsuser

import "github.com/imcstudy/imcstudy/internal/metrics"

// server caches instruments the approved way: pointers filled from
// Registry accessors, nil when telemetry is off.
type server struct {
	objects *metrics.Counter
	queue   metrics.Gauge // want `value-typed metrics\.Gauge field`
}

func good(reg *metrics.Registry) *server {
	s := &server{objects: reg.Counter("staging/put/objects")}
	s.objects.Inc()
	reg.SampledGauge("staging/queue").Set(2)
	reg.Histogram("staging/latency").Observe(0.5)
	reg.Sample("staging/rate", 1)
	return s
}

func bad() {
	c := &metrics.Counter{} // want `metrics\.Counter constructed directly`
	c.Inc()
	g := new(metrics.Gauge) // want `new\(metrics\.Gauge\) bypasses the Registry accessors`
	g.Set(1)
	var h metrics.Histogram // want `value-typed metrics\.Histogram variable`
	h.Observe(3)
	r := &metrics.Registry{} // want `metrics\.Registry constructed directly`
	_ = r
}

func waivedLiteral() *metrics.Counter {
	//imclint:deterministic -- fixture: standalone test double, never encoded
	return &metrics.Counter{}
}
